"""Simulated deployment: server nodes, adversaries, audits, and reports.

Servers are in-process state machines behind a request/response surface,
so a networked transport could be layered on without touching scheme
logic.  A byzantine server is an honest one whose answer an adversary
replaces, so its error is added to the honest answer word.  All
randomness flows through seeded streams and every report records its
seed, making sessions, sweeps, and audits reproducible byte for byte.
Every report serializes through ``json_dict``, field by field in order.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import pir
from .gf import next_prime
from .linalg import rank_stacked
from .pir import (
    AnswerSet,
    ByzantineBudgetExceeded,
    Database,
    InvalidParameters,
    SchemeParams,
    capacity,
    collect_answers,
    gen_queries,
    queries_from_blinding,
    retrieve_from_k,
    retrieve_from_r,
    server_answer,
)
from .rand import SeededStream
from .rscodes import EnumerationTooLarge

# after the package modules: pir.py then compiles before numpy is loaded, which
# keeps peak memory at import lower when bytecode caching is off
import numpy as np  # noqa: E402

DEFAULT_SEED = 0xC0DEC0DE
EXHAUSTIVE_AUDIT_LIMIT = 2**16  # randomness tuples per database entry
EXHAUSTIVE_SWEEP_LIMIT = 10**6  # byzantine sets x corruption values x files
# k x m x delta x s int64 entries of one session's queries: 128 MiB, twice the
# 6.8M entries of (13,1,2,9; m=65536)
QUERY_ENTRIES_LIMIT = 2**24


def json_dict(value):
    """`value` as JSON-ready data, converted all the way down: a dataclass
    as the dict of its fields in order, a dict with its values converted,
    tuples and lists as lists, a Fraction as its string, and anything else
    as it is."""
    if dataclasses.is_dataclass(value):
        value = {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: json_dict(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [json_dict(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _params_summary(params: SchemeParams) -> dict:
    return {
        "k": params.k,
        "t": params.t,
        "b": params.b,
        "r": params.r,
        "delta": params.delta,
        "s": params.s,
        "q": params.q,
        "m": params.m,
    }


@functools.lru_cache(maxsize=None)
def _session_constants(params: SchemeParams, mode: str) -> tuple:
    """(summary, figures): what every session report of one scheme and mode shares.

    summary is the params summary; figures holds the report fields the
    scheme and mode fix: the download and file sizes in base symbols and
    in bits, the measured rate, both capacities and whether the rate
    meets the asymptotic one.  Computed once per (params, mode), as pir
    caches its tables per params, and handed out as read-only mappings:
    each report copies the summary into a dict of its own.
    """
    log_q = math.log2(params.q)
    # trace mode downloads one base symbol per server, full mode s from each of r
    downloaded = params.k if mode == "trace" else params.r * params.s
    file_syms = params.file_base_symbols
    measured = Fraction(file_syms, downloaded)
    asymptotic = capacity(params.t, params.b, params.k)
    figures = {
        "downloaded_base_symbols": downloaded,
        "file_base_symbols": file_syms,
        "downloaded_bits": downloaded * log_q,
        "file_bits": file_syms * log_q,
        "measured_rate": measured,
        "capacity_finite_m": capacity(params.t, params.b, params.k, params.m),
        "capacity_asymptotic": asymptotic,
        "capacity_achieving": measured == asymptotic,
    }
    return MappingProxyType(_params_summary(params)), MappingProxyType(figures)


# --- adversaries and servers --------------------------------------------------


@dataclass(frozen=True)
class AdversaryModel:
    """Byzantine set plus corruption strategy.

    Strategies: 'random' draws a uniformly random wrong symbol, 'offset'
    adds a fixed nonzero constant, 'targeted' hands the query (and the
    honest answer) to a caller-supplied function that may compute
    anything well-typed.
    """

    byzantine_set: tuple = ()
    strategy: str = "random"
    offset: int = 1
    targeted_fn: object = None

    def __post_init__(self):
        object.__setattr__(self, "offset", pir.check_int(self.offset, "offset", constraint="offset"))
        if self.strategy not in ("random", "offset", "targeted"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "offset" and self.offset == 0:
            raise ValueError("offset strategy needs a nonzero offset")

    def corrupt(self, params: SchemeParams, j: int, query_j, honest, mode: str, stream):
        ext, q = params.ext, params.q
        if self.strategy == "random":
            if mode == "trace":
                return stream.randrange_excluding(q, honest)
            while True:
                candidate = stream.field_element(ext)
                if candidate != honest:
                    return candidate
        if self.strategy == "offset":
            if mode == "trace":
                return (honest + self.offset) % q
            return ext.add(honest, ext.embed(self.offset))
        if self.targeted_fn is not None:
            return self.targeted_fn(params, j, query_j, honest, mode, stream)
        # default query-aware adversary: answers for the query against itself
        return server_answer(params, j, query_j, Database(query_j), mode)


_HONEST = AdversaryModel()  # the adversary of a session given none: it corrupts no server


def check_adversary(params: SchemeParams, byzantine_set, strategy: str, offset: int) -> None:
    """Reject an adversary that would not act as its report says.

    Raises InvalidParameters (a ValueError) naming the constraint:
    "byzantine" for a server id given twice, which the report would list
    twice, and "offset" for an offset strategy whose offset is 0 mod q,
    which leaves every answer honest.  ``run_session`` and the CLI's
    ``run`` share it.
    """
    if len(set(byzantine_set)) != len(byzantine_set):
        raise InvalidParameters("byzantine", "duplicate server id")
    if strategy == "offset" and offset % params.q == 0:
        raise InvalidParameters("offset", f"{offset} is 0 mod q={params.q}")


@dataclass(frozen=True)
class ServerNode:
    """Replicated servers answering from one database.

    `server_id` is one id, or a tuple of ids with the meaning of
    ``server_answer``'s j: ``respond`` then takes their stacked
    (len(ids), m, delta, s) queries and returns one answer per id, in id
    order, from one ``server_answer`` call.  Every server computes the
    same function of its query, so a session answers all of them through
    one node; a byzantine server's answer is that honest answer as an
    ``AdversaryModel`` corrupts it.
    """

    server_id: int | tuple
    db: Database

    def respond(self, params: SchemeParams, query_j, mode: str):
        return server_answer(params, self.server_id, query_j, self.db, mode)


# --- sessions -----------------------------------------------------------------


@dataclass(frozen=True)
class SessionReport:
    params: dict
    seed: int
    iota: int
    mode: str
    ok: bool
    retrieved_file: tuple | None
    ground_truth_match: bool
    identified_error_positions: tuple
    byzantine_set: tuple
    strategy: str
    downloaded_base_symbols: int
    file_base_symbols: int
    downloaded_bits: float
    file_bits: float
    measured_rate: Fraction
    capacity_finite_m: Fraction
    capacity_asymptotic: Fraction
    capacity_achieving: bool
    error: str | None

    def to_json_dict(self, format_element=None) -> dict:
        """``json_dict``, with each retrieved symbol as `format_element` formats it, if given."""
        data = json_dict(self)
        if format_element and self.retrieved_file is not None:
            data["retrieved_file"] = [format_element(x) for x in self.retrieved_file]
        return data


def run_session(
    params: SchemeParams,
    db: Database,
    iota: int,
    adversary: AdversaryModel | None = None,
    mode: str = "trace",
    seed: int = DEFAULT_SEED,
) -> SessionReport:
    """One full query/answer/retrieve round, deterministic given the seed.

    Trace mode involves all k servers; full mode the first r.  They all
    answer through one ``ServerNode`` in one ``respond`` call, which gets
    their rows of the query array and nothing else; then the adversary
    corrupts the answer of each byzantine one among them, from its query
    row, with its own stream, forked from the session's as "server-<id>".
    The report names only the byzantine servers the session asked, and
    the strategy "honest" when it asked none of them.  A decode failure
    is reported as a failed session, never raised; a bad file index,
    server id or seed (``linalg.check_int``), a refused adversary
    (``check_adversary``) or an unknown mode raises before any draw.

    At a small scheme the session is mostly fixed cost, so what the
    scheme and mode fix (the params summary, sizes, rate and capacities)
    comes from ``_session_constants``, computed once per scheme and mode,
    and a session given no adversary uses the one honest model.  The
    report still gets a params dict of its own.
    """
    stream = SeededStream(seed, "session")
    iota = pir.check_int(iota, "file index", 1, params.m, None)
    adversary = adversary or _HONEST
    byz = tuple(sorted(pir.check_server_ids(adversary.byzantine_set, params.k)))
    pir.check_dimensions(params, db)
    check_query_size(params)
    check_adversary(params, byz, adversary.strategy, adversary.offset)
    if mode == "trace":
        ids = tuple(range(1, params.k + 1))
    elif mode == "full":
        ids = tuple(range(1, params.r + 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    queries = gen_queries(params, iota, stream.fork("query"))
    values = list(ServerNode(server_id=ids, db=db).respond(params, queries[: len(ids)], mode))
    asked = tuple(j for j in byz if j <= len(ids))  # full mode never asks a server above r
    for j in asked:
        values[j - 1] = adversary.corrupt(
            params, j, queries[j - 1], values[j - 1], mode, stream.fork(f"server-{j}")
        )
    answers = AnswerSet(mode=mode, server_ids=ids, values=tuple(values))
    error = None
    retrieval = None
    try:
        retrieval = retrieve_from_k(params, answers) if mode == "trace" else retrieve_from_r(params, answers)
    except ByzantineBudgetExceeded as exc:
        error = str(exc)
    match = retrieval is not None and retrieval.symbols == db.row(iota)
    summary, figures = _session_constants(params, mode)
    return SessionReport(
        params=summary.copy(),
        seed=stream.seed,
        iota=iota,
        mode=mode,
        ok=match and error is None,
        retrieved_file=retrieval.symbols if retrieval else None,
        ground_truth_match=match,
        identified_error_positions=retrieval.error_servers if retrieval else (),
        byzantine_set=asked,
        strategy=adversary.strategy if asked else "honest",
        error=error,
        **figures,
    )


# --- privacy audit ------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyAuditReport:
    params: dict
    mode: str
    subsets: tuple
    verdict: str  # "pass" | "fail" | "beyond threshold, privacy not claimed"
    max_tv_distance: Fraction | None
    cases_total: int
    cases_failed: int
    failures: tuple

    def to_json_dict(self) -> dict:
        # an audit draws nothing at random: its seed is null, as reports record one
        return {**json_dict(self), "seed": None}


def privacy_audit(params: SchemeParams, t_subset=None, mode: str = "exhaustive") -> PrivacyAuditReport:
    """Exact audit of query privacy against t colluding servers.

    Exhaustive mode enumerates every blinding draw per database entry and
    compares the resulting query distributions across requested file
    indices; a distance of exactly zero certifies privacy.  Every entry
    takes the same draw, so for each index iota one batched call of the
    query map evaluates all (q^s)^t draws at once.  A subset's queries at
    one entry are one int key below (q^s)^|subset| <= draws, and one
    `np.bincount` gives every (subset, entry) histogram of keys over the
    draws.  The TV distance of an index pair is half the L1 distance
    between their histograms over the draw count, an exact Fraction.
    Its arrays are the batched queries and keys of one iota,
    (k*s + C(k, t)) * m * delta * draws ints, the histograms of all m
    iotas, kept for the pair comparisons, and the pair distances; when
    any of them would exceed QUERY_ENTRIES_LIMIT entries, or the draws
    EXHAUSTIVE_AUDIT_LIMIT, it raises EnumerationTooLarge before the
    first query is drawn.  Transfer mode checks instead that each
    t-subset's blinding-to-query map is a bijection (which forces
    uniformity): its (t*s) x (t*s) expansions over F_q must have rank
    t*s, all in one stacked rank test (`linalg.rank_stacked`); the map
    is F_q-linear, so that is exact.  A `t_subset` must be a nonempty
    set of ids in [1, k] (else InvalidParameters("subset")), and `mode`
    "exhaustive" or "transfer-matrix" (else ValueError, before anything
    else).  The transfer-matrix mode also refuses a subset of fewer than
    t servers as InvalidParameters("subset"): its map is not square, and
    whether it is onto would be a new verdict on a rank below t*s, not
    this bijection test; the exhaustive mode audits such a subset.  The
    exhaustive mode refuses m = 1 as InvalidParameters("m >= 2") before
    it enumerates anything: with one file there is no pair of indices to
    compare, and a pass would certify nothing.
    """
    if mode not in ("exhaustive", "transfer-matrix"):
        raise ValueError(f"unknown audit mode {mode!r}")
    if t_subset is not None:
        subset = tuple(sorted(pir.check_server_ids(t_subset, params.k, "subset")))
        if not subset or len(set(subset)) != len(subset):
            raise InvalidParameters("subset", f"{list(subset)} is not a nonempty set of server ids")
        if mode == "transfer-matrix" and len(subset) < params.t:
            raise InvalidParameters(
                "subset",
                f"{list(subset)} has fewer than t={params.t} servers; the transfer-matrix "
                "audit needs a t-subset (use the exhaustive mode)",
            )
        subsets = (subset,)
    else:
        subsets = tuple(itertools.combinations(range(1, params.k + 1), params.t))
    max_tv, failures = None, []
    if len(subsets[0]) > params.t:  # only a given subset is wider than t
        verdict, cases = "beyond threshold, privacy not claimed", 0
    elif mode == "transfer-matrix":
        curve = pir._query_tables(params)[0]
        # row h*s + a of subset u maps blinding coefficient a of term h to its
        # servers' query coefficients
        size = params.t * params.s
        matrices = curve[np.array(subsets) - 1].transpose(0, 2, 1, 3).reshape(len(subsets), size, -1)
        singular = rank_stacked(params.q, matrices) < size
        failures = [
            {"subset": list(subsets[u]), "reason": "transfer matrix singular"}
            for u in np.flatnonzero(singular).tolist()
        ]
        verdict, cases = "pass" if not failures else "fail", len(subsets)
    else:
        max_tv, cases, failures = _exhaustive_audit(params, subsets)
        verdict = "pass" if max_tv == 0 else "fail"
    return PrivacyAuditReport(
        params=_params_summary(params),
        mode=mode,
        subsets=subsets,
        verdict=verdict,
        max_tv_distance=max_tv,
        cases_total=cases,
        cases_failed=len(failures),
        failures=tuple(failures),
    )


def _exhaustive_audit(params: SchemeParams, subsets: tuple) -> tuple:
    """``privacy_audit``'s exhaustive mode over `subsets`, as (max TV distance, cases, failures)."""
    q, s, t, m, delta = params.q, params.s, params.t, params.m, params.delta
    if m < 2:
        raise InvalidParameters("m >= 2", f"the exhaustive audit compares file indices; m={m} has no pair")
    size = params.ext.size  # field elements, and keys of one server's query entry
    draws = size**t
    if draws > EXHAUSTIVE_AUDIT_LIMIT:
        raise EnumerationTooLarge(
            f"{draws} blinding draws per entry exceed {EXHAUSTIVE_AUDIT_LIMIT}; "
            "use the transfer-matrix mode"
        )
    width = len(subsets[0])
    keyspace = size**width  # keys of one subset's query tuple at one entry
    slots = len(subsets) * m * delta  # (subset, entry) pairs
    for what, entries in (
        ("queries and keys of one file index", draws * m * delta * (params.k * s + len(subsets))),
        ("histogram counts kept for the pairs", m * slots * keyspace),
        ("pair distances", slots * m * (m - 1) // 2),
    ):
        if entries > QUERY_ENTRIES_LIMIT:
            raise EnumerationTooLarge(f"{entries} {what} exceed {QUERY_ENTRIES_LIMIT}")
    # draw n is the base-q digits of n: t elements of s coefficients each
    digits = pir._base_q_digits(q, t * s)
    blinding = np.broadcast_to(digits.reshape(draws, t, 1, 1, s), (draws, t, m, delta, s))
    radix = q ** np.arange(s, dtype=np.int64)  # an element as one int: its base-q digits
    servers = np.array(subsets, dtype=np.int64) - 1  # (subsets, width)
    # each (subset, entry) slot counts its keys in its own range of one bincount
    offsets = np.arange(slots, dtype=np.int64).reshape(len(subsets), m, delta)
    offsets *= keyspace
    histograms = []  # histograms[iota - 1][subset, i, l, key]: the draws giving that key
    for iota in range(1, m + 1):
        codes = queries_from_blinding(params, iota, blinding) @ radix  # (draws, k, m, delta)
        keys = offsets + sum(codes[:, servers[:, w]] * size**w for w in range(width))
        counts = np.bincount(keys.ravel(), minlength=offsets.size * keyspace)
        histograms.append(counts.reshape(offsets.shape + (keyspace,)))
    pairs = list(itertools.combinations(range(m), 2))
    # diffs[subset, i, l, pair]: the L1 distance of the pair's histograms, 2 * draws * TV
    diffs = np.empty(offsets.shape + (len(pairs),), dtype=np.int64)
    for p, (a, c) in enumerate(pairs):
        diffs[..., p] = np.abs(histograms[a] - histograms[c]).sum(axis=-1)
    failures = [
        {
            "subset": list(subsets[u]),
            "entry": [i + 1, l + 1],
            "iota_pair": [pairs[p][0] + 1, pairs[p][1] + 1],
            "tv_distance": str(Fraction(diffs[u, i, l, p].item(), 2 * draws)),
        }
        for u, i, l, p in np.argwhere(diffs).tolist()
    ]
    max_tv = Fraction(diffs.max(initial=0).item(), 2 * draws)
    return max_tv, diffs.size, failures


# --- byzantine sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    params: dict
    seed: int
    scope: str
    cases_total: int
    cases_failed: int
    failures: tuple

    to_json_dict = json_dict


SWEEP_REPORTED_FAILURES = 20  # counterexamples a sweep report lists
SWEEP_CHUNK_WORDS = 2**11  # tampered words an exhaustive sweep decodes per call (at least one set); bounds randomized chunks too


def _check_cases(params, db, iotas, byzantine, words, failures) -> int:
    """Decode the tampered words in one call and count the cases that miss their planted file.

    Row w of the (W, k) array `words` is the answer word for file index
    iotas[w] with wrong values at the servers byzantine[w], a row of the
    (W, b) array of server ids; `iotas` may also be one file index for
    every row, whose planted file is then compared with every decoded
    one by broadcasting, with no copy per row.  The missed cases are
    appended to `failures`, in row order, until it holds
    SWEEP_REPORTED_FAILURES.
    """
    files, _, failed = pir.retrieve_many(params, words)
    # each file as one (delta * s) row, so the comparison reduces along one axis
    planted = db.array[iotas - 1].reshape(np.shape(iotas) + (-1,))
    missed = np.flatnonzero(failed | (files.reshape(len(files), -1) != planted).any(axis=1))
    iotas = np.broadcast_to(iotas, len(words))
    for w in missed[: SWEEP_REPORTED_FAILURES - len(failures)].tolist():
        failures.append({
            "iota": iotas[w].item(),
            "byzantine_set": byzantine[w].tolist(),
            "injected": words[w, byzantine[w] - 1].tolist(),
        })
    return len(missed)


def check_sweep_trials(trials: int) -> int:
    """A randomized sweep's case count, at least 1; ``byzantine_sweep`` and the CLI share it."""
    return pir.check_int(trials, "trials", 1, constraint="randomized")


def check_query_size(params: SchemeParams) -> None:
    """Refuse a scheme whose k x m x delta x s queries exceed QUERY_ENTRIES_LIMIT.

    Raises EnumerationTooLarge before any database is built or read, or
    any query drawn, so a huge m ends in a refusal and not in a long
    hash loop and a MemoryError; sessions, sweeps and the CLI share it.
    """
    entries = params.k * params.m * params.delta * params.s
    if entries > QUERY_ENTRIES_LIMIT:
        raise EnumerationTooLarge(
            f"{entries} query entries (k*m*delta*s) exceed {QUERY_ENTRIES_LIMIT}"
        )


def check_exhaustive_sweep(params: SchemeParams) -> None:
    """Refuse an exhaustive sweep of more than EXHAUSTIVE_SWEEP_LIMIT cases.

    Raises EnumerationTooLarge before any database is built or read;
    ``byzantine_sweep`` and the CLI share it.
    """
    total = math.comb(params.k, params.b) * (params.q - 1) ** params.b * params.m
    if total > EXHAUSTIVE_SWEEP_LIMIT:
        raise EnumerationTooLarge(
            f"{total} exhaustive cases exceed {EXHAUSTIVE_SWEEP_LIMIT}; use the randomized scope"
        )


def byzantine_sweep(
    params: SchemeParams,
    db: Database,
    scope: str = "exhaustive",
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> SweepReport:
    """Assert universal recovery under every tolerated corruption pattern.

    Exhaustive scope iterates file index x byzantine set (size b) x all
    wrong base-field values.  The G = (q - 1)^b wrong values of one
    byzantine set are the rows of a grid in ``itertools.product`` order,
    grid value g standing for g + (g >= honest answer).  For each file
    index the C(k, b) byzantine sets, in ``itertools.combinations``
    order, are taken max(1, SWEEP_CHUNK_WORDS // G) at a time: a chunk
    of n sets is one (n * G, k) int64 array, the honest answers tiled,
    each set repeated G times and the grid tiled n times, its values put
    at the set's columns with one ``put``, at flat positions computed
    once per sweep and not once per file index.  Each chunk is decoded
    in one ``retrieve_many`` call, so its dirty words find their error
    locators together (see ``rscodes.grs_decode``).  The bound keeps the
    decode's arrays small.
    At (11,1,2,8; m=2), whose code is located by its syndrome table, a
    process's first sweep raised its peak RSS (ru_maxrss) by 0.62 MB
    with one chunk per set (100 words), 0.75 MB with 2^10 or 2^11 words,
    1.5 MB with 2^12 and 2.5 MB with one chunk per file index (5,500
    words); 2^12 words took about 280 minor page faults per sweep and
    5,500 about 770, against none for 2^11.  In 60 alternating rounds
    in one process, twice, a sweep took 5.6-6.1 ms (medians) with 2^11
    words, 6.7-7.8 with 2^10 and 6.5-7.0 with 2^12; 2^11 was the faster
    in 114 of 120 rounds against 2^10 and 109 of 120 against 2^12
    (2-CPU x86-64 host).

    Randomized scope samples `trials` >= 1 cases as batches of clients.
    Trial i draws from its stream, forked from the sweep's as "trial-i":
    the file index (``randrange(m)``), the blinding (from its own fork
    "query", as ``gen_queries`` draws it) and the byzantine set
    (``sample``).  The trials are taken max(1, SWEEP_CHUNK_WORDS //
    (m * delta * s)) at a time, so a chunk's (B, k, m, delta, s) queries
    hold at most SWEEP_CHUNK_WORDS * k entries, as many as an exhaustive
    chunk's words, whatever the number of trials.  Per chunk, the loop
    forks each trial's "query" stream, and one ``draw_blinding`` call
    draws every blinding of the chunk in one ``randrange_rows`` pass;
    each fork is a stream of its own, so drawing them after the trial
    streams' samples changes no value.  Then one
    ``queries_from_blinding`` evaluates every blinding at its trial's
    file index, one ``collect_answers`` gives all the honest answers,
    and each trial's stream draws its wrong values
    (``randrange_excluding``, one per byzantine server, in id order).
    Every case is decoded in one ``retrieve_many`` call.  At (17,1,2,8;
    m=2), 20 trials in one chunk, the batched draw took a sweep from
    1.20 to 0.99 ms (x0.83, faster in 149 of 150 interleaved rounds).
    One trial is a batch of one: at (13,1,2,9; m=1024) a one-trial sweep
    took 603 us against 561 us for the same case through the unbatched
    query map and answers (medians of 400 interleaved rounds, unbatched
    faster in 349).  At (17,1,2,8; m=2), 85 clients a chunk, 2,000
    trials swept in 65 ms against 69 ms as one batch (medians of 21
    interleaved rounds, chunks faster in 17), at a tenth of the traced
    peak memory (1.5 against 14.3 MB).

    Both scopes run ``check_query_size`` before the database check, and
    count the cases that miss their planted file with ``np.flatnonzero``
    and report the first SWEEP_REPORTED_FAILURES in enumeration order;
    none is silently swallowed.
    """
    base_stream = SeededStream(seed, "sweep")
    if scope == "randomized":
        trials = check_sweep_trials(trials)
    elif scope == "exhaustive":
        check_exhaustive_sweep(params)
    check_query_size(params)
    pir.check_dimensions(params, db)
    failures: list = []
    cases = failed = 0
    k, b, q = params.k, params.b, params.q
    if scope == "exhaustive":
        # with b = 0 there is one empty byzantine set and one empty injection
        grid = np.array(list(itertools.product(range(q - 1), repeat=b)), dtype=np.int64)
        grid = grid.reshape((q - 1) ** b, b)
        sets = np.array(list(itertools.combinations(range(1, k + 1), b)), dtype=np.int64)
        sets = sets.reshape(math.comb(k, b), b)
        per_chunk = max(1, SWEEP_CHUNK_WORDS // len(grid))
        # (servers, flat word positions, grid values) of each chunk of sets;
        # none depends on the file index
        chunks = []
        for chunk in (sets[start : start + per_chunk] for start in range(0, len(sets), per_chunk)):
            servers = np.repeat(chunk, len(grid), axis=0)
            at = servers - 1 + np.arange(0, len(servers) * k, k)[:, None]
            chunks.append((servers, at, np.tile(grid, (len(chunk), 1))))
        for iota in range(1, params.m + 1):
            queries = gen_queries(params, iota, base_stream.fork(f"iota-{iota}"))
            honest = np.array(collect_answers(params, queries, db, "trace").values, dtype=np.int64)
            for servers, at, values in chunks:
                words = np.tile(honest, (len(servers), 1))
                # grid value g maps to g + (g >= honest answer), which keeps its order
                words.put(at, values + (values >= honest.take(servers - 1)))
                cases += len(words)
                failed += _check_cases(params, db, iota, servers, words, failures)
    elif scope == "randomized":
        per_chunk = max(1, SWEEP_CHUNK_WORDS // (params.m * params.delta * params.s))
        iotas, columns, words = [], [], []
        for start in range(0, trials, per_chunk):
            streams, forks, samples = [], [], []
            for trial in range(start, min(trials, start + per_chunk)):
                stream = base_stream.fork(f"trial-{trial}")
                iotas.append(stream.randrange(params.m) + 1)
                forks.append(stream.fork("query"))
                samples.append(stream.sample(k, b))
                streams.append(stream)
            # each fork is its own stream, so drawing them after the samples changes no value
            queries = queries_from_blinding(params, iotas[start:], pir.draw_blinding(params, forks))
            honest = collect_answers(params, queries, db, "trace").values
            injected = [
                [stream.randrange_excluding(q, answers[j]) for j in sample]
                for stream, answers, sample in zip(streams, honest, samples)
            ]
            chunk_columns = np.array(samples, dtype=np.int64).reshape(len(samples), b)  # 0-based
            chunk_words = np.array(honest, dtype=np.int64)
            injected = np.array(injected, dtype=np.int64).reshape(chunk_columns.shape)
            np.put_along_axis(chunk_words, chunk_columns, injected, axis=1)
            columns.append(chunk_columns)
            words.append(chunk_words)
        cases = trials
        columns, words = np.concatenate(columns), np.concatenate(words)
        failed = _check_cases(params, db, np.array(iotas, dtype=np.int64), columns + 1, words, failures)
    else:
        raise ValueError(f"unknown sweep scope {scope!r}")
    return SweepReport(
        params=_params_summary(params),
        seed=base_stream.seed,
        scope=scope,
        cases_total=cases,
        cases_failed=failed,
        failures=tuple(failures),
    )


# --- comparison table -----------------------------------------------------------


@dataclass(frozen=True)
class SchemeColumn:
    scheme: str
    file_size_base_symbols: int
    file_size_bits: float
    field: str
    download_cost_base_symbols: int
    download_cost_bits: float
    download_rate: Fraction
    capacity: Fraction
    byzantine_resistance: int
    live: dict | None  # measured columns for the two trace-based schemes


def _cell(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class ComparisonTable:
    k: int
    t: int
    b: int
    r: int
    l: int
    q: int
    columns: tuple  # four SchemeColumn entries

    # (label, SchemeColumn field) of each text row, which is a CSV column
    ROWS = (
        ("File size", "file_size_bits"),
        ("Field", "field"),
        ("Download cost", "download_cost_bits"),
        ("Download rate", "download_rate"),
        ("Capacity", "capacity"),
        ("Byzantine-resistance", "byzantine_resistance"),
    )

    def rows(self) -> list:
        return [[label] + [_cell(getattr(c, name)) for c in self.columns] for label, name in self.ROWS]

    def to_text(self) -> str:
        header = [""] + [c.scheme for c in self.columns]
        rows = [header] + self.rows()
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """One line per scheme: the text table transposed, under the field names."""
        header = ["scheme"] + [name for _, name in self.ROWS]
        schemes = [c.scheme for c in self.columns]
        lines = [header] + list(zip(schemes, *(row[1:] for row in self.rows())))
        return "".join(",".join(line) + "\n" for line in lines)

    to_json_dict = json_dict


def _field_cell(q: int, s_num: int, s_den: int) -> str:
    if s_num % s_den == 0:
        s = s_num // s_den
        return f"GF({q})" if s == 1 else f"GF({q}^{s})"
    return f"GF({q}^({Fraction(s_num, s_den)}))"


def _live_measurement(k: int, t: int, b: int, r: int, l: int) -> dict | None:
    try:
        params = pir.setup(k, t, b, r, m=2)
    except InvalidParameters:
        return None
    db = pir.random_database(params, SeededStream(DEFAULT_SEED, "table-db"))
    report = run_session(params, db, 1, mode="trace", seed=DEFAULT_SEED)
    if not report.ok:
        raise AssertionError("live table measurement failed an honest session")
    return {
        "download_cost_base_symbols": l * report.downloaded_base_symbols,
        "download_rate": report.measured_rate,
        "matches_formula": (
            report.measured_rate == Fraction(k - 2 * b - t, k)
            and report.downloaded_base_symbols == k
        ),
    }


def _column(scheme, q, file_syms, field, download_syms, rate, b, live) -> SchemeColumn:
    """A column from its sizes in base symbols, also given in bits; its rate is its capacity."""
    log_q = math.log2(q)
    return SchemeColumn(
        scheme=scheme,
        file_size_base_symbols=file_syms,
        file_size_bits=file_syms * log_q,
        field=field,
        download_cost_base_symbols=download_syms,
        download_cost_bits=download_syms * log_q,
        download_rate=rate,
        capacity=rate,
        byzantine_resistance=b,
        live=live,
    )


def _trace_column(scheme, k, t, b, r, l, q) -> SchemeColumn:
    """The trace scheme tolerating b byzantine servers: l(k-2b-t) base
    symbols of file over F_{q^((k-2b-t)/(r-2b-t))}, for l from each server.
    Its live measurement, where setup admits the scheme, must agree."""
    live = _live_measurement(k, t, b, r, l)
    if live is not None and not live["matches_formula"]:
        raise AssertionError(f"live measurement diverges from formulas for {scheme}")
    rem = k - 2 * b - t
    return _column(scheme, q, l * rem, _field_cell(q, rem, r - 2 * b - t), l * k, Fraction(rem, k), b, live)


def _staircase_column(scheme, k, t, b, r, l, q) -> SchemeColumn:
    """The base-field staircase scheme tolerating b byzantine servers:
    l(r-2b-t)(k-2b-t) base symbols of file, for l(r-2b-t) from each server."""
    rem, delta = k - 2 * b - t, r - 2 * b - t
    return _column(scheme, q, l * delta * rem, f"GF({q})", l * k * delta, Fraction(rem, k), b, None)


def scheme_comparison(k: int, t: int, b: int, r: int, l: int = 1, q: int | None = None) -> ComparisonTable:
    """Four-scheme parameter comparison at one (k, t, b, r, l) tuple.

    The first pair are the trace-compressed schemes over the extension
    field (byzantine-free and byzantine-resistant); the second pair are
    the base-field staircase analogues, whose formulas are computed only.
    The trace-based columns carry live measurements whenever the scheme
    is instantiable at these exact parameters, and those must equal the
    formula columns.  A given `q` must pass ``pir.check_q`` against
    ``pir.min_q``, the minimum setup applies; the default is the first
    prime from that minimum, the q setup picks where it admits the tuple.
    """
    k, t, b, r = (pir.check_int(value, name) for value, name in zip((k, t, b, r), "ktbr"))
    l = pir.check_int(l, "l", 1, constraint="l >= 1")
    if t < 1 or b < 0 or r - 2 * b <= t or k < r:
        raise InvalidParameters(
            "t < r-2b <= k-2b",
            f"(k={k}, t={t}, b={b}, r={r}) violates t < r-2b and r <= k",
        )
    q_min = pir.min_q(k, t, b, r)
    q = next_prime(q_min) if q is None else pir.check_q(q, q_min)
    columns = (
        _trace_column("Pi1", k, t, 0, r, l, q),
        _trace_column("Pi2", k, t, b, r, l, q),
        _staircase_column("A1", k, t, 0, r, l, q),
        _staircase_column("A2", k, t, b, r, l, q),
    )
    return ComparisonTable(k=k, t=t, b=b, r=r, l=l, q=q, columns=columns)
