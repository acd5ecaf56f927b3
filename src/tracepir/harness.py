"""Simulated deployment: server nodes, adversaries, audits, and reports.

Servers are in-process state machines behind a request/response surface,
so a networked transport could be layered on without touching scheme
logic.  A byzantine server is an honest one whose answer an adversary
replaces, so its error is added to the honest answer word.  All
randomness flows through seeded streams and every report records its
seed, making sessions, sweeps, and audits reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import pir
from .gf import next_prime
from .linalg import solve_stacked
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
        retrieved = None
        if self.retrieved_file is not None:
            retrieved = [
                format_element(x) if format_element else list(x) for x in self.retrieved_file
            ]
        return {
            "params": self.params,
            "seed": self.seed,
            "iota": self.iota,
            "mode": self.mode,
            "ok": self.ok,
            "retrieved_file": retrieved,
            "ground_truth_match": self.ground_truth_match,
            "identified_error_positions": list(self.identified_error_positions),
            "byzantine_set": list(self.byzantine_set),
            "strategy": self.strategy,
            "downloaded_base_symbols": self.downloaded_base_symbols,
            "file_base_symbols": self.file_base_symbols,
            "downloaded_bits": self.downloaded_bits,
            "file_bits": self.file_bits,
            "measured_rate": str(self.measured_rate),
            "capacity_finite_m": str(self.capacity_finite_m),
            "capacity_asymptotic": str(self.capacity_asymptotic),
            "capacity_achieving": self.capacity_achieving,
            "error": self.error,
        }


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
    A decode failure is reported as a failed session, never raised; an
    adversary that ``check_adversary`` rejects raises InvalidParameters,
    and an unknown mode ValueError, both before any query is drawn.
    """
    pir.check_dimensions(params, db)
    adversary = adversary or AdversaryModel()
    byz = tuple(sorted(adversary.byzantine_set))
    if any(not 1 <= j <= params.k for j in byz):
        raise IndexError("byzantine server id outside [1, k]")
    check_adversary(params, byz, adversary.strategy, adversary.offset)
    if mode == "trace":
        ids = tuple(range(1, params.k + 1))
    elif mode == "full":
        ids = tuple(range(1, params.r + 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    stream = SeededStream(seed, "session")
    queries = gen_queries(params, iota, stream.fork("query"))
    values = list(ServerNode(server_id=ids, db=db).respond(params, queries[: len(ids)], mode))
    for j in byz:
        if j <= len(ids):
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
    truth = db.row(iota)
    match = retrieval is not None and retrieval.symbols == truth
    log_q = math.log2(params.q)
    if mode == "trace":
        downloaded = params.k  # one base-field symbol per server
    else:
        downloaded = len(ids) * params.s
    file_syms = params.file_base_symbols
    measured = Fraction(file_syms, downloaded)
    asymptotic = capacity(params.t, params.b, params.k)
    return SessionReport(
        params=_params_summary(params),
        seed=seed,
        iota=iota,
        mode=mode,
        ok=match and error is None,
        retrieved_file=retrieval.symbols if retrieval else None,
        ground_truth_match=match,
        identified_error_positions=retrieval.error_servers if retrieval else (),
        byzantine_set=byz,
        strategy=adversary.strategy if byz else "honest",
        downloaded_base_symbols=downloaded,
        file_base_symbols=file_syms,
        downloaded_bits=downloaded * log_q,
        file_bits=file_syms * log_q,
        measured_rate=measured,
        capacity_finite_m=capacity(params.t, params.b, params.k, params.m),
        capacity_asymptotic=asymptotic,
        capacity_achieving=measured == asymptotic,
        error=error,
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
        return {
            "params": self.params,
            "seed": None,
            "mode": self.mode,
            "subsets": [list(s) for s in self.subsets],
            "verdict": self.verdict,
            "max_tv_distance": None if self.max_tv_distance is None else str(self.max_tv_distance),
            "cases_total": self.cases_total,
            "cases_failed": self.cases_failed,
            "failures": list(self.failures),
        }


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
    Memory per iota is O((C(k, t) + k*s) * m * delta * draws) ints: the
    batched queries, the keys, and histograms no longer than the keys
    they count, which are kept for the pair comparisons.  Transfer mode
    checks instead that each t-subset's blinding-to-query map is a
    bijection (which forces uniformity), in one stacked elimination of
    its (t*s) x (t*s) expansion over F_q; the map is F_q-linear, so that
    is exact.  A `t_subset` must be a nonempty set of ids in [1, k] (else
    InvalidParameters("subset")), and `mode` "exhaustive" or
    "transfer-matrix" (else ValueError, before anything else).  The
    transfer-matrix mode also refuses a subset of fewer than t servers
    as InvalidParameters("subset"): its map is not square, and whether it
    is onto needs a rank, which the elimination kernel does not give;
    the exhaustive mode audits such a subset.
    """
    if mode not in ("exhaustive", "transfer-matrix"):
        raise ValueError(f"unknown audit mode {mode!r}")
    summary = _params_summary(params)
    if t_subset is not None:
        subset = tuple(sorted(t_subset))
        if not subset or len(set(subset)) != len(subset) or not 1 <= subset[0] <= subset[-1] <= params.k:
            raise InvalidParameters(
                "subset", f"{list(subset)} is not a nonempty set of server ids in [1, {params.k}]"
            )
        if mode == "transfer-matrix" and len(subset) < params.t:
            raise InvalidParameters(
                "subset",
                f"{list(subset)} has fewer than t={params.t} servers; the transfer-matrix "
                "audit needs a t-subset (use the exhaustive mode)",
            )
        subsets = (subset,)
        if len(subset) > params.t:
            return PrivacyAuditReport(
                params=summary,
                mode=mode,
                subsets=subsets,
                verdict="beyond threshold, privacy not claimed",
                max_tv_distance=None,
                cases_total=0,
                cases_failed=0,
                failures=(),
            )
    else:
        subsets = tuple(itertools.combinations(range(1, params.k + 1), params.t))
    if mode == "transfer-matrix":
        curve = pir._query_tables(params)[0]
        # row h*s + a of subset u maps blinding coefficient a of term h to its
        # servers' query coefficients
        size = params.t * params.s
        matrices = curve[np.array(subsets) - 1].transpose(0, 2, 1, 3).reshape(len(subsets), size, -1)
        _, invertible = solve_stacked(params.q, matrices, np.zeros((len(subsets), size, 0), dtype=np.int64))
        failures = [
            {"subset": list(subsets[u]), "reason": "transfer matrix singular"}
            for u in np.flatnonzero(~invertible).tolist()
        ]
        return PrivacyAuditReport(
            params=summary,
            mode=mode,
            subsets=subsets,
            verdict="pass" if not failures else "fail",
            max_tv_distance=None,
            cases_total=len(subsets),
            cases_failed=len(failures),
            failures=tuple(failures),
        )
    q, s, t, m, delta = params.q, params.s, params.t, params.m, params.delta
    size = params.ext.size  # field elements, and keys of one server's query entry
    draws = size**t
    if draws > EXHAUSTIVE_AUDIT_LIMIT:
        raise EnumerationTooLarge(
            f"{draws} blinding draws per entry exceed {EXHAUSTIVE_AUDIT_LIMIT}; "
            "use the transfer-matrix mode"
        )
    # draw n is the base-q digits of n: t elements of s coefficients each
    digits = pir._base_q_digits(q, t * s)
    blinding = np.broadcast_to(digits.reshape(draws, t, 1, 1, s), (draws, t, m, delta, s))
    radix = q ** np.arange(s, dtype=np.int64)  # an element as one int: its base-q digits
    servers = np.array(subsets, dtype=np.int64) - 1  # (subsets, width)
    width = servers.shape[1]
    keyspace = size**width  # keys of one subset's query tuple at one entry
    # each (subset, entry) slot counts its keys in its own range of one bincount
    offsets = np.arange(len(subsets) * m * delta, dtype=np.int64).reshape(len(subsets), m, delta)
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
    return PrivacyAuditReport(
        params=summary,
        mode=mode,
        subsets=subsets,
        verdict="pass" if max_tv == 0 else "fail",
        max_tv_distance=max_tv,
        cases_total=diffs.size,
        cases_failed=len(failures),
        failures=tuple(failures),
    )


# --- byzantine sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    params: dict
    seed: int
    scope: str
    cases_total: int
    cases_failed: int
    failures: tuple

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "seed": self.seed,
            "scope": self.scope,
            "cases_total": self.cases_total,
            "cases_failed": self.cases_failed,
            "failures": list(self.failures),
        }


SWEEP_REPORTED_FAILURES = 20  # counterexamples a sweep report lists
SWEEP_CHUNK_WORDS = 2**11  # tampered words an exhaustive sweep decodes per call (at least one set); bounds randomized chunks too


def _check_cases(params, db, iotas, byzantine, words, failures) -> int:
    """Decode the tampered words in one call and count the cases that miss their planted file.

    Row w of the (W, k) array `words` is the answer word for file index
    iotas[w] with wrong values at the servers byzantine[w], a row of the
    (W, b) array of server ids.  The missed cases are appended to
    `failures`, in row order, until it holds SWEEP_REPORTED_FAILURES.
    """
    files, _, failed = pir.retrieve_many(params, words)
    missed = np.flatnonzero(failed | (files != db.array[iotas - 1]).any(axis=(1, 2)))
    for w in missed[: SWEEP_REPORTED_FAILURES - len(failures)].tolist():
        failures.append({
            "iota": iotas[w].item(),
            "byzantine_set": byzantine[w].tolist(),
            "injected": words[w, byzantine[w] - 1].tolist(),
        })
    return len(missed)


def check_sweep_trials(trials: int) -> None:
    """Reject a randomized sweep of no cases; ``byzantine_sweep`` and the CLI share it."""
    if trials < 1:
        raise InvalidParameters("randomized", f"{trials} cases, need at least 1")


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
    at the set's columns.  Each chunk is decoded in one ``retrieve_many``
    call, so its dirty words find their error locators together (see
    ``rscodes.grs_decode``).  The bound keeps the decode's arrays small:
    at (11,1,2,8; m=2) a sweep raised a process's peak RSS by 4.7 MB with
    one chunk per file index (5,500 words), 1.5 MB with 2^11 words and
    0.6 MB with 2^10, against 0.25 MB with one chunk per set (ru_maxrss),
    while 2^10 words swept about 15% slower than 2^11 (32 against 27 ms).

    Randomized scope samples `trials` >= 1 cases as batches of clients.
    Trial i draws from its stream, forked from the sweep's as "trial-i":
    the file index (``randrange(m)``), the blinding (from its own fork
    "query", as ``gen_queries`` draws it) and the byzantine set
    (``sample``).  The trials are taken max(1, SWEEP_CHUNK_WORDS //
    (m * delta * s)) at a time, so a chunk's (B, k, m, delta, s) queries
    hold at most SWEEP_CHUNK_WORDS * k entries, as many as an exhaustive
    chunk's words, whatever the number of trials.  Per chunk, one
    ``queries_from_blinding`` evaluates every blinding at its trial's
    file index, one ``collect_answers`` gives all the honest answers,
    and then each trial's stream draws its wrong values
    (``randrange_excluding``, one per byzantine server, in id order).
    Every case is decoded in one ``retrieve_many`` call.  One trial is
    a batch of one: against the unbatched query map it measured about
    25 us more per sweep at (13,1,2,9; m=1024) (stacking, the indexed
    indicator and the batched answer shape), inside the run-to-run
    spread of a 2.5 ms sweep.  At (17,1,2,8; m=2), 85 clients a chunk,
    2,000 trials swept in about 180 ms against 170 ms as one batch,
    at a third of the traced peak memory (4.7 against 14.5 MB).

    Both scopes count the cases that miss their planted file with
    ``np.flatnonzero`` and report the first SWEEP_REPORTED_FAILURES in
    enumeration order; none is silently swallowed.
    """
    if scope == "randomized":
        check_sweep_trials(trials)
    elif scope == "exhaustive":
        check_exhaustive_sweep(params)
    pir.check_dimensions(params, db)
    base_stream = SeededStream(seed, "sweep")
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
        for iota in range(1, params.m + 1):
            queries = gen_queries(params, iota, base_stream.fork(f"iota-{iota}"))
            honest = np.array(collect_answers(params, queries, db, "trace").values, dtype=np.int64)
            for start in range(0, len(sets), per_chunk):
                chunk = sets[start : start + per_chunk]
                servers = np.repeat(chunk, len(grid), axis=0)
                values = np.tile(grid, (len(chunk), 1))
                words = np.tile(honest, (len(servers), 1))
                # grid value g maps to g + (g >= honest answer), which keeps its order
                np.put_along_axis(words, servers - 1, values + (values >= honest[servers - 1]), axis=1)
                cases += len(words)
                failed += _check_cases(
                    params, db, np.full(len(words), iota), servers, words, failures
                )
    elif scope == "randomized":
        per_chunk = max(1, SWEEP_CHUNK_WORDS // (params.m * params.delta * params.s))
        iotas, columns, words = [], [], []
        for start in range(0, trials, per_chunk):
            streams, blindings, samples = [], [], []
            for trial in range(start, min(trials, start + per_chunk)):
                stream = base_stream.fork(f"trial-{trial}")
                iotas.append(stream.randrange(params.m) + 1)
                blindings.append(pir.draw_blinding(params, stream.fork("query")))
                samples.append(stream.sample(k, b))
                streams.append(stream)
            queries = queries_from_blinding(params, iotas[start:], np.stack(blindings))
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
        seed=seed,
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

    def to_json_dict(self) -> dict:
        live = None
        if self.live is not None:
            live = {
                "download_cost_base_symbols": self.live["download_cost_base_symbols"],
                "download_rate": str(self.live["download_rate"]),
                "matches_formula": self.live["matches_formula"],
            }
        return {
            "scheme": self.scheme,
            "file_size_base_symbols": self.file_size_base_symbols,
            "file_size_bits": self.file_size_bits,
            "field": self.field,
            "download_cost_base_symbols": self.download_cost_base_symbols,
            "download_cost_bits": self.download_cost_bits,
            "download_rate": str(self.download_rate),
            "capacity": str(self.capacity),
            "byzantine_resistance": self.byzantine_resistance,
            "live": live,
        }


@dataclass(frozen=True)
class ComparisonTable:
    k: int
    t: int
    b: int
    r: int
    l: int
    q: int
    columns: tuple  # four SchemeColumn entries

    ROW_LABELS = (
        "File size",
        "Field",
        "Download cost",
        "Download rate",
        "Capacity",
        "Byzantine-resistance",
    )

    def rows(self) -> list:
        cells = {
            "File size": [f"{c.file_size_bits:.3f}" for c in self.columns],
            "Field": [c.field for c in self.columns],
            "Download cost": [f"{c.download_cost_bits:.3f}" for c in self.columns],
            "Download rate": [str(c.download_rate) for c in self.columns],
            "Capacity": [str(c.capacity) for c in self.columns],
            "Byzantine-resistance": [str(c.byzantine_resistance) for c in self.columns],
        }
        return [[label] + cells[label] for label in self.ROW_LABELS]

    def to_text(self) -> str:
        header = [""] + [c.scheme for c in self.columns]
        rows = [header] + self.rows()
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["scheme,file_size_bits,field,download_cost_bits,download_rate,capacity,byzantine_resistance"]
        for c in self.columns:
            lines.append(
                f"{c.scheme},{c.file_size_bits:.3f},{c.field},{c.download_cost_bits:.3f},"
                f"{c.download_rate},{c.capacity},{c.byzantine_resistance}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "b": self.b,
            "r": self.r,
            "l": self.l,
            "q": self.q,
            "columns": [c.to_json_dict() for c in self.columns],
        }


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


def scheme_comparison(k: int, t: int, b: int, r: int, l: int = 1, q: int | None = None) -> ComparisonTable:
    """Four-scheme parameter comparison at one (k, t, b, r, l) tuple.

    The first pair are the trace-compressed schemes over the extension
    field (byzantine-free and byzantine-resistant); the second pair are
    the base-field staircase analogues, whose formulas are computed only.
    The trace-based columns carry live measurements whenever the scheme
    is instantiable at these exact parameters, and those must equal the
    formula columns.
    """
    if l < 1:
        raise InvalidParameters("l >= 1", f"repetition count l={l} must be at least 1")
    if t < 1 or b < 0 or r - 2 * b <= t or k < r:
        raise InvalidParameters(
            "t < r-2b <= k-2b",
            f"(k={k}, t={t}, b={b}, r={r}) violates t < r-2b and r <= k",
        )
    if q is None:
        try:
            q = pir.setup(k, t, b, r).q
        except InvalidParameters:
            q = next_prime(k)
    log_q = math.log2(q)
    pi1_syms = l * (k - t)
    pi2_syms = l * (k - 2 * b - t)
    a1_syms = l * (r - t) * (k - t)
    a2_syms = l * (r - 2 * b - t) * (k - 2 * b - t)
    rate1 = Fraction(k - t, k)
    rate2 = Fraction(k - 2 * b - t, k)
    columns = (
        SchemeColumn(
            scheme="Pi1",
            file_size_base_symbols=pi1_syms,
            file_size_bits=pi1_syms * log_q,
            field=_field_cell(q, k - t, r - t),
            download_cost_base_symbols=l * k,
            download_cost_bits=l * k * log_q,
            download_rate=rate1,
            capacity=rate1,
            byzantine_resistance=0,
            live=_live_measurement(k, t, 0, r, l),
        ),
        SchemeColumn(
            scheme="Pi2",
            file_size_base_symbols=pi2_syms,
            file_size_bits=pi2_syms * log_q,
            field=_field_cell(q, k - 2 * b - t, r - 2 * b - t),
            download_cost_base_symbols=l * k,
            download_cost_bits=l * k * log_q,
            download_rate=rate2,
            capacity=rate2,
            byzantine_resistance=b,
            live=_live_measurement(k, t, b, r, l),
        ),
        SchemeColumn(
            scheme="A1",
            file_size_base_symbols=a1_syms,
            file_size_bits=a1_syms * log_q,
            field=f"GF({q})",
            download_cost_base_symbols=l * k * (r - t),
            download_cost_bits=l * k * (r - t) * log_q,
            download_rate=rate1,
            capacity=rate1,
            byzantine_resistance=0,
            live=None,
        ),
        SchemeColumn(
            scheme="A2",
            file_size_base_symbols=a2_syms,
            file_size_bits=a2_syms * log_q,
            field=f"GF({q})",
            download_cost_base_symbols=l * k * (r - 2 * b - t),
            download_cost_bits=l * k * (r - 2 * b - t) * log_q,
            download_rate=rate2,
            capacity=rate2,
            byzantine_resistance=b,
            live=None,
        ),
    )
    for column in columns[:2]:
        if column.live is not None and not column.live["matches_formula"]:
            raise AssertionError(f"live measurement diverges from formulas for {column.scheme}")
    return ComparisonTable(k=k, t=t, b=b, r=r, l=l, q=q, columns=columns)
