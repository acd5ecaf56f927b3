"""Simulated deployment: server nodes, adversaries, audits, and reports.

Servers are in-process state machines behind a request/response surface,
so a networked transport could be layered on without touching scheme
logic.  All randomness flows through seeded streams and every report
records its seed, making sessions, sweeps, and audits reproducible
byte for byte.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import pir
from .gf import next_prime
from .linalg import is_invertible
from .pir import (
    AnswerSet,
    ByzantineBudgetExceeded,
    Database,
    InvalidParameters,
    SchemeParams,
    capacity,
    collect_answers,
    gen_queries,
    lagrange_basis_values,
    queries_from_blinding,
    retrieve_from_k,
    retrieve_from_r,
    server_answer,
)
from .rand import SeededStream
from .rscodes import EnumerationTooLarge

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
        fake = pir.inner_product(params, query_j, query_j)
        if mode == "trace":
            return ext.trace(ext.mul(params.v[j - 1], fake))
        return fake


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
    """One replicated server; a node with an adversary corrupts its own answers."""

    server_id: int
    db: Database
    adversary: AdversaryModel | None = None

    def respond(self, params: SchemeParams, query_j, mode: str, stream=None):
        honest = server_answer(params, self.server_id, query_j, self.db, mode)
        if self.adversary is None:
            return honest
        return self.adversary.corrupt(params, self.server_id, query_j, honest, mode, stream)


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

    Trace mode involves all k servers; full mode the first r.  A decode
    failure is reported as a failed session, never raised; an adversary
    that ``check_adversary`` rejects raises InvalidParameters.
    """
    pir.check_dimensions(params, db)
    adversary = adversary or AdversaryModel()
    byz = tuple(sorted(adversary.byzantine_set))
    if any(not 1 <= j <= params.k for j in byz):
        raise IndexError("byzantine server id outside [1, k]")
    check_adversary(params, byz, adversary.strategy, adversary.offset)
    stream = SeededStream(seed, "session")
    queries = gen_queries(params, iota, stream.fork("query"))
    if mode == "trace":
        ids = tuple(range(1, params.k + 1))
    elif mode == "full":
        ids = tuple(range(1, params.r + 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    nodes = [
        ServerNode(server_id=j, db=db, adversary=adversary if j in byz else None)
        for j in ids
    ]
    values = tuple(
        node.respond(params, queries.per_server[node.server_id - 1], mode,
                     stream.fork(f"server-{node.server_id}"))
        for node in nodes
    )
    answers = AnswerSet(mode=mode, server_ids=ids, values=values)
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


def _tv_distance(counts_a: dict, counts_b: dict, total: int) -> Fraction:
    keys = set(counts_a) | set(counts_b)
    diff = sum(abs(counts_a.get(key, 0) - counts_b.get(key, 0)) for key in keys)
    return Fraction(diff, 2 * total)


def privacy_audit(params: SchemeParams, t_subset=None, mode: str = "exhaustive") -> PrivacyAuditReport:
    """Exact audit of query privacy against t colluding servers.

    Exhaustive mode enumerates every blinding draw per database entry and
    compares the resulting query distributions across requested file
    indices; a distance of exactly zero certifies privacy.  Transfer
    mode checks instead that the blinding-to-query evaluation matrix is
    invertible for every t-subset (a bijection forces uniformity).  A
    `t_subset` must be a nonempty set of ids in [1, k] (else
    InvalidParameters("subset")).
    """
    summary = _params_summary(params)
    if t_subset is not None:
        subset = tuple(sorted(t_subset))
        if not subset or len(set(subset)) != len(subset) or not 1 <= subset[0] <= subset[-1] <= params.k:
            raise InvalidParameters(
                "subset", f"{list(subset)} is not a nonempty set of server ids in [1, {params.k}]"
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
        table = lagrange_basis_values(params)
        failures = []
        for subset in subsets:
            matrix = [list(table[j - 1][1]) for j in subset]
            if not is_invertible(params.ext, matrix):
                failures.append({"subset": list(subset), "reason": "transfer matrix singular"})
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
    if mode != "exhaustive":
        raise ValueError(f"unknown audit mode {mode!r}")
    ext = params.ext
    space = list(ext.elements())
    draws = len(space) ** params.t
    if draws > EXHAUSTIVE_AUDIT_LIMIT:
        raise EnumerationTooLarge(
            f"{draws} blinding draws per entry exceed {EXHAUSTIVE_AUDIT_LIMIT}; "
            "use the transfer-matrix mode"
        )
    radix = [params.q**d for d in range(params.s)]  # an element as one int: its base-q digits
    codes = []  # codes[iota - 1][n][j - 1, i, l]: server j's query entry (i, l) under draw n
    for iota in range(1, params.m + 1):
        per_draw = []
        for draw in itertools.product(space, repeat=params.t):
            # every blinding entry takes the same draw, so one call covers every entry
            blinding = [[[d] * params.delta] * params.m for d in draw]
            per_server = queries_from_blinding(params, iota, blinding).per_server
            per_draw.append(per_server @ radix)
        codes.append(per_draw)
    max_tv = Fraction(0)
    cases = 0
    failures = []
    for subset in subsets:
        for i in range(params.m):
            for l in range(params.delta):
                per_iota = [
                    Counter(tuple(c[j - 1, i, l] for j in subset) for c in codes[a])
                    for a in range(params.m)
                ]
                for a, c in itertools.combinations(range(params.m), 2):
                    tv = _tv_distance(per_iota[a], per_iota[c], draws)
                    cases += 1
                    if tv > 0:
                        failures.append(
                            {
                                "subset": list(subset),
                                "entry": [i + 1, l + 1],
                                "iota_pair": [a + 1, c + 1],
                                "tv_distance": str(tv),
                            }
                        )
                    if tv > max_tv:
                        max_tv = tv
    return PrivacyAuditReport(
        params=summary,
        mode=mode,
        subsets=subsets,
        verdict="pass" if max_tv == 0 else "fail",
        max_tv_distance=max_tv,
        cases_total=cases,
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


def _sweep_case(params, db, iota, answers, byz_ids, injected, failures):
    """Inject the given wrong trace values and check exact recovery."""
    values = list(answers.values)
    for j, wrong in zip(byz_ids, injected):
        values[j - 1] = wrong
    tampered = AnswerSet(mode="trace", server_ids=answers.server_ids, values=tuple(values))
    try:
        got = retrieve_from_k(params, tampered)
        ok = got.symbols == db.row(iota)
    except ByzantineBudgetExceeded:
        ok = False
    if not ok:
        failures.append(
            {
                "iota": iota,
                "byzantine_set": list(byz_ids),
                "injected": list(injected),
            }
        )
    return ok


def check_sweep_trials(trials: int) -> None:
    """Reject a randomized sweep of no cases; ``byzantine_sweep`` and the CLI share it."""
    if trials < 1:
        raise InvalidParameters("randomized", f"{trials} cases, need at least 1")


def byzantine_sweep(
    params: SchemeParams,
    db: Database,
    scope: str = "exhaustive",
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> SweepReport:
    """Assert universal recovery under every tolerated corruption pattern.

    Exhaustive scope iterates file index x byzantine set (size b) x all
    wrong base-field values; randomized scope samples `trials` >= 1 cases.
    Counterexamples are reported, never silently swallowed.
    """
    if scope == "randomized":
        check_sweep_trials(trials)
    pir.check_dimensions(params, db)
    base_stream = SeededStream(seed, "sweep")
    failures: list = []
    cases = 0
    if scope == "exhaustive":
        total = (
            math.comb(params.k, params.b)
            * (params.q - 1) ** params.b
            * params.m
        )
        if total > EXHAUSTIVE_SWEEP_LIMIT:
            raise EnumerationTooLarge(
                f"{total} exhaustive cases exceed {EXHAUSTIVE_SWEEP_LIMIT}; "
                "use the randomized scope"
            )
        for iota in range(1, params.m + 1):
            queries = gen_queries(params, iota, base_stream.fork(f"iota-{iota}"))
            answers = collect_answers(params, queries, db, "trace")
            if params.b == 0:
                cases += 1
                _sweep_case(params, db, iota, answers, (), (), failures)
                continue
            for byz_ids in itertools.combinations(range(1, params.k + 1), params.b):
                honest = [answers.values[j - 1] for j in byz_ids]
                wrong_ranges = [
                    [v for v in range(params.q) if v != h] for h in honest
                ]
                for injected in itertools.product(*wrong_ranges):
                    cases += 1
                    _sweep_case(params, db, iota, answers, byz_ids, injected, failures)
    elif scope == "randomized":
        for trial in range(trials):
            stream = base_stream.fork(f"trial-{trial}")
            iota = stream.randrange(params.m) + 1
            queries = gen_queries(params, iota, stream.fork("query"))
            answers = collect_answers(params, queries, db, "trace")
            byz_ids = tuple(j + 1 for j in stream.sample(params.k, params.b))
            injected = tuple(
                stream.randrange_excluding(params.q, answers.values[j - 1]) for j in byz_ids
            )
            cases += 1
            _sweep_case(params, db, iota, answers, byz_ids, injected, failures)
    else:
        raise ValueError(f"unknown sweep scope {scope!r}")
    return SweepReport(
        params=_params_summary(params),
        seed=seed,
        scope=scope,
        cases_total=cases,
        cases_failed=len(failures),
        failures=tuple(failures[:20]),
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


def comparison_table(params_list, l: int = 1) -> list:
    """scheme_comparison over a list of (k, t, b, r) tuples."""
    return [scheme_comparison(k, t, b, r, l=l) for (k, t, b, r) in params_list]
