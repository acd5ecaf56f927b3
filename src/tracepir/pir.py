"""Query generation, server answers, and error-corrected retrieval.

Parameters (k servers, t-collusion, b byzantine, retrieval threshold r)
fix a sub-packetization delta = r - 2b - t and an extension degree
s = (k - 2b - t) / delta.  Files are rows of a m x delta array over
F_{q^s}.  A query hides the wanted row index inside evaluations of a
random degree-(t + delta - 1) curve; each server returns the Frobenius
inner product of its evaluation with the database, either as a full
extension symbol or compressed to one base-field symbol through the
trace map.  Both retrieval modes decode the answer word (r full symbols
or k traces) and rebuild the file as one product of the corrected word
with a base-field matrix cached per code.

The data plane works on int64 arrays whose last axis holds the s
coefficients of an extension element: a database is one read-only
(m, delta, s) array, the blinding is (t, m, delta, s) and the queries
are (k, m, delta, s).  The query curve is one matrix product of the
(m*delta, t*s) blinding with a (t*s, k*s) table of multiply-by-constant
blocks; an answer is the s x s coefficient-product matrix of query and
database, folded through the modulus.  Every such product goes through
`matmul_mod`, which keeps partial sums below 2^63 and so is exact for
every q <= 2^31.  Scalars (setup constants, answers, retrieved symbols)
stay Python ints and tuples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, polyring
from .gf import (
    MAX_FIELD_SIZE,
    ExtField,
    FieldTower,
    PrimeField,
    dual_basis,
    find_irreducibles,
    irreducible_count,
    minimal_poly,
    next_prime,
)
from .rand import SeededStream
from .rscodes import DecodeFailure, GrsCode, dual_multipliers, grs_decode

INT64_MAX = 2**63 - 1


class InvalidParameters(ValueError):
    """A scheme constraint is violated; `constraint` names the inequality."""

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


class ByzantineBudgetExceeded(RuntimeError):
    """More answers were corrupted than the decoder can tolerate."""


class DatabaseFormatError(ValueError):
    """Database file is malformed; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class SchemeParams:
    """Public scheme constants; immutable and shareable across sessions."""

    k: int
    t: int
    b: int
    r: int
    delta: int
    s: int
    m: int
    q: int
    tower: FieldTower
    omega_alpha: tuple  # delta extension elements
    omega_chi: tuple  # t extension elements
    omega_beta: tuple  # k base-field ints
    min_polys: tuple  # delta monic base-field polynomials (coeff tuples)
    u: tuple  # delta extension elements
    v: tuple  # k extension elements
    theta: tuple  # basis of F_{q^s} over F_q
    eta: tuple  # its trace-orthogonal dual
    recovery_polys: tuple  # [delta][s] base-field coeff tuples, degree < s

    @property
    def base(self) -> PrimeField:
        return self.tower.base

    @property
    def ext(self) -> ExtField:
        return self.tower.ext

    @property
    def file_base_symbols(self) -> int:
        """File size counted in base-field symbols: delta * s = k - 2b - t."""
        return self.delta * self.s

    def __repr__(self):
        return (
            f"SchemeParams(k={self.k}, t={self.t}, b={self.b}, r={self.r}, "
            f"delta={self.delta}, s={self.s}, q={self.q}, m={self.m})"
        )


def _require(condition: bool, constraint: str, message: str):
    if not condition:
        raise InvalidParameters(constraint, message)


def _find_root(ext: ExtField, poly) -> tuple:
    """Lexicographically smallest root in ext of a degree-s irreducible poly.

    The roots of such a polynomial are the s Frobenius conjugates of any
    one of them, so one root found algebraically gives all of them and
    the smallest is returned; the result does not depend on how the first
    root was found.  For the construction modulus that root is xi.  For
    any other polynomial, Cantor-Zassenhaus equal-degree splitting finds
    it: gcd(f, (x + a)^((q^s - 1)/2) - 1) holds the roots r with r + a a
    nonzero square, and the smaller factor is split again until one is
    linear.  The shifts a run over ext in `elements()` order, skipping
    the base field: all roots of f are conjugate, so r + a has the same
    quadratic character for every root when a is in F_q.  The search
    needs odd q, which s >= 2 implies (q >= k >= 3).
    """
    s = ext.s
    if tuple(poly) == ext.modulus:
        root = (0, 1) + (0,) * (s - 2)
    else:
        f = [ext.embed(c) for c in poly]
        half = (ext.size - 1) // 2
        for a in ext.elements():
            if len(f) == 2:
                break
            if not any(a[1:]):
                continue
            power = polyring.poly_powmod(ext, [a, ext.one], half, f)
            g = polyring.poly_gcd(ext, polyring.poly_sub(ext, power, [ext.one]), f)
            if 1 < len(g) < len(f):
                f = min(g, polyring.poly_divmod(ext, f, g)[0], key=len)
        if len(f) != 2:
            raise ArithmeticError(f"{poly} does not split into linear factors in {ext!r}")
        root = ext.neg(f[0])
    conjugates = [root]
    for _ in range(s - 1):
        conjugates.append(ext.frobenius(conjugates[-1]))
    return min(conjugates)


def setup(k: int, t: int, b: int, r: int, q_hint: int | None = None, m: int = 1) -> SchemeParams:
    """Deterministic construction of all public scheme constants.

    The evaluation sets are pairwise disjoint by construction: the beta
    points are the first k base-field elements; for s >= 2 the alpha and
    chi points are the lexicographically smallest roots (`_find_root`) of
    the first delta + t monic irreducible degree-s polynomials in
    lexicographic order (roots of distinct irreducibles can collide
    neither with each other nor with the base field), while for s = 1 the
    three sets tile the first k + t + delta base elements.  Towers above
    2^32 elements are refused (constraint "field-size-guard") before any
    irreducible search; below that, setup is polynomial in s and log q.
    """
    for name, value in (("k", k), ("t", t), ("b", b), ("r", r), ("m", m)):
        if not isinstance(value, int):
            raise InvalidParameters("integer", f"{name} must be an integer")
    _require(t >= 1, "t >= 1", f"collusion bound t={t} must be at least 1")
    _require(b >= 0, "b >= 0", f"byzantine bound b={b} must be nonnegative")
    _require(m >= 1, "m >= 1", f"file count m={m} must be at least 1")
    delta = r - 2 * b - t
    _require(delta >= 1, "t < r-2b", f"need t < r-2b, got t={t}, r-2b={r - 2 * b}")
    rem = k - 2 * b - t
    _require(rem >= 1, "2b+t < k", f"need 2b+t < k, got 2b+t={2 * b + t}, k={k}")
    _require(
        rem % delta == 0,
        "delta | (k-2b-t)",
        f"delta={delta} does not divide k-2b-t={rem}",
    )
    # divisibility with rem >= 1 forces rem >= delta, i.e. r <= k
    assert r <= k
    s = rem // delta
    q_min = k + delta + t if s == 1 else k
    if q_hint is None:
        q = next_prime(q_min)
    else:
        base_probe = PrimeField(q_hint)  # validates primality and size
        _require(
            q_hint >= q_min,
            "k <= q",
            f"q={q_hint} is below the minimum {q_min} for these parameters",
        )
        q = base_probe.q
    _require(
        q**s <= MAX_FIELD_SIZE,
        "field-size-guard",
        f"field size {q}^{s} exceeds 2^32",
    )

    base = PrimeField(q)
    omega_beta = tuple(range(k))
    if s == 1:
        omega_chi_base = tuple(range(k, k + t))
        omega_alpha_base = tuple(range(k + t, k + t + delta))
        min_polys = tuple((-a % q, 1) for a in omega_alpha_base)
        ext = ExtField(base, 1, min_polys[0])
        omega_alpha = tuple((a,) for a in omega_alpha_base)
        omega_chi = tuple((c,) for c in omega_chi_base)
    else:
        available = irreducible_count(q, s)
        _require(
            available >= delta + t,
            "irreducible supply",
            f"only {available} degree-{s} irreducibles over GF({q}); need {delta + t}",
        )
        irreducibles = find_irreducibles(base, s, delta + t)
        min_polys = tuple(irreducibles[:delta])
        ext = ExtField(base, s, irreducibles[0])
        omega_alpha = tuple(_find_root(ext, f) for f in min_polys)
        omega_chi = tuple(_find_root(ext, f) for f in irreducibles[delta:])
    tower = FieldTower(base, ext)

    alphas = omega_alpha
    betas_ext = tuple(ext.embed(x) for x in omega_beta)
    u, v = dual_multipliers(ext, alphas, betas_ext)

    if s >= 2:
        gamma = (0, 1) + (0,) * (s - 2)
    else:
        gamma = ext.one
    theta = tuple(ext.pow(gamma, d) for d in range(s))
    pair = dual_basis(ext, theta)

    recovery_polys = []
    for i, alpha in enumerate(alphas):
        # coordinates of alpha^d in the construction basis are the tuples
        # themselves, so the change-of-basis matrix columns are the powers
        powers = [ext.pow(alpha, d) for d in range(s)]
        matrix = [[powers[col][row] for col in range(s)] for row in range(s)]
        inverse = linalg.invert(base, matrix)
        if inverse is None:
            raise ArithmeticError(f"alpha_{i + 1} does not have degree {s}")
        excl = ext.one
        for l, f in enumerate(min_polys):
            if l != i:
                excl = ext.mul(excl, ext.eval_base_poly(f, alpha))
        target_scale = ext.inv(ext.mul(u[i], excl))
        row_polys = []
        for eta_d in pair.eta:
            target = ext.mul(target_scale, eta_d)
            coeffs = tuple(linalg.mat_vec(base, inverse, list(target)))
            row_polys.append(coeffs)
        recovery_polys.append(tuple(row_polys))

    params = SchemeParams(
        k=k,
        t=t,
        b=b,
        r=r,
        delta=delta,
        s=s,
        m=m,
        q=q,
        tower=tower,
        omega_alpha=omega_alpha,
        omega_chi=omega_chi,
        omega_beta=omega_beta,
        min_polys=min_polys,
        u=u,
        v=v,
        theta=pair.theta,
        eta=pair.eta,
        recovery_polys=tuple(recovery_polys),
    )
    verify_params(params)
    return params


def verify_params(params: SchemeParams):
    """Cross-check every defining identity of the public constants."""
    ext, base = params.ext, params.base
    all_points = list(params.omega_alpha) + list(params.omega_chi) + [
        ext.embed(x) for x in params.omega_beta
    ]
    if len(set(all_points)) != len(all_points):
        raise InvalidParameters("disjoint sets", "evaluation sets intersect")
    if params.delta * params.s != params.k - 2 * params.b - params.t:
        raise InvalidParameters(
            "s*delta = k-2b-t",
            f"s*delta={params.s * params.delta} != k-2b-t={params.k - 2 * params.b - params.t}",
        )
    seen = set()
    for i, (alpha, f) in enumerate(zip(params.omega_alpha, params.min_polys)):
        if polyring.degree(list(f)) != params.s or f[-1] != 1:
            raise InvalidParameters("minimal polys", f"min_poly {i + 1} is not monic degree s")
        if f in seen:
            raise InvalidParameters("minimal polys", "minimal polynomials are not distinct")
        seen.add(f)
        if ext.eval_base_poly(f, alpha) != ext.zero:
            raise InvalidParameters("minimal polys", f"alpha_{i + 1} is not a root of min_poly {i + 1}")
        if tuple(minimal_poly(ext, alpha)) != tuple(f):
            raise InvalidParameters("minimal polys", f"min_poly {i + 1} is not minimal for alpha_{i + 1}")
    for i in range(params.s):
        for j in range(params.s):
            expected = base.one if i == j else base.zero
            if ext.trace(ext.mul(params.theta[i], params.eta[j])) != expected:
                raise InvalidParameters("dual basis", "trace-orthogonality fails")
    for i, alpha in enumerate(params.omega_alpha):
        excl = ext.one
        for l, f in enumerate(params.min_polys):
            if l != i:
                excl = ext.mul(excl, ext.eval_base_poly(f, alpha))
        for d, h in enumerate(params.recovery_polys[i]):
            if polyring.degree(list(h)) >= params.s:
                raise InvalidParameters("recovery polys", "degree of h exceeds s-1")
            lhs = ext.mul(ext.eval_base_poly(h, alpha), ext.mul(params.u[i], excl))
            if lhs != params.eta[d]:
                raise InvalidParameters(
                    "recovery polys",
                    f"h_({i + 1},{d + 1}) fails its defining evaluation constraint",
                )


# --- optimality report ------------------------------------------------------


@dataclass(frozen=True)
class OptimalityReport:
    balanced: bool
    rate_optimal: bool
    file_size_optimal: bool
    divisibility: bool
    size_lower_bound_ok: bool

    def as_dict(self) -> dict:
        return {
            "balanced": self.balanced,
            "rate_optimal": self.rate_optimal,
            "file_size_optimal": self.file_size_optimal,
            "divisibility": self.divisibility,
            "size_lower_bound_ok": self.size_lower_bound_ok,
        }

    @property
    def all_ok(self) -> bool:
        return all(self.as_dict().values())


def validate_optimality(params, delta: int | None = None, s: int | None = None) -> OptimalityReport:
    """File-size optimality flags for scheme parameters.

    `params` is a SchemeParams or a (k, t, b, r) tuple; `delta` and `s`
    override the derived sub-packetization for what-if reports.
    """
    if isinstance(params, SchemeParams):
        k, t, b, r = params.k, params.t, params.b, params.r
        delta = params.delta if delta is None else delta
        s = params.s if s is None else s
    else:
        k, t, b, r = params
    rate_delta = r - 2 * b - t
    rem = k - 2 * b - t
    divisibility = rate_delta >= 1 and rem % rate_delta == 0
    if delta is None:
        delta = rate_delta
    if s is None:
        s = rem // rate_delta if divisibility else 0
    balanced = rate_delta >= 1 and rem >= 1
    rate_optimal = delta == rate_delta
    size_lower_bound_ok = s * delta >= rem
    file_size_optimal = s * delta == rem
    return OptimalityReport(
        balanced=balanced,
        rate_optimal=rate_optimal,
        file_size_optimal=file_size_optimal,
        divisibility=divisibility,
        size_lower_bound_ok=size_lower_bound_ok,
    )


# --- array arithmetic -------------------------------------------------------


def matmul_mod(a, b, q: int) -> np.ndarray:
    """a @ b mod q for int64 arrays with entries in [0, q), computed exactly.

    The inner dimension is split into chunks short enough that no partial
    sum leaves int64; each chunk is reduced before it is added.
    """
    step = INT64_MAX // max((q - 1) ** 2, 1)
    inner = a.shape[-1]
    if inner <= step:
        return (a @ b) % q
    out = (a[..., :step] @ b[:step]) % q
    for start in range(step, inner, step):
        out += (a[..., start : start + step] @ b[start : start + step]) % q
        out %= q
    return out


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _field_array(params: SchemeParams, values, shape: tuple, what: str) -> np.ndarray:
    """values as an int64 array of the given shape with entries in [0, q)."""
    try:
        array = np.asarray(values, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):
        raise ValueError(f"{what} is not a regular array of field elements") from None
    if array.shape != shape:
        raise ValueError(f"{what} has shape {array.shape}, expected {shape}")
    if array.size and (array.min() < 0 or array.max() >= params.q):
        raise ValueError(f"{what} has entries outside [0, {params.q})")
    return array


# --- database ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Database:
    """m x delta extension-field symbols as a read-only int64 (m, delta, s) array.

    Construction copies any rectangular nested sequence of ints and raises
    ValueError for ragged input, non-integers or values outside int64.
    """

    array: np.ndarray

    def __post_init__(self):
        try:
            array = np.array(self.array)
        except (ValueError, TypeError):
            raise ValueError("database is not a rectangular array") from None
        kind = array.dtype.kind
        if kind not in "iu" or (kind == "u" and array.size and array.max() > INT64_MAX):
            raise ValueError("database entries are not int64 integers")
        object.__setattr__(self, "array", _frozen(array.astype(np.int64, copy=False)))

    def __eq__(self, other):
        return isinstance(other, Database) and np.array_equal(self.array, other.array)

    @functools.cached_property
    def bounds(self) -> tuple:
        """(min, max) of the non-empty `array`, scanned once."""
        return int(self.array.min()), int(self.array.max())

    def row(self, iota: int) -> tuple:
        """File iota (1-based), as a delta-tuple of element tuples."""
        if not 1 <= iota <= len(self.array):
            raise IndexError(f"file index {iota} outside [1, {len(self.array)}]")
        return tuple(map(tuple, self.array[iota - 1].tolist()))


def check_dimensions(params: SchemeParams, db: Database):
    """Raise ValueError unless db holds m x delta elements of the scheme's field.

    The range check reads the database's cached bounds, so validating the
    same read-only database again costs no scan.
    """
    shape = (params.m, params.delta, params.s)
    if db.array.shape != shape:
        raise ValueError(f"database has shape {db.array.shape}, expected {shape}")
    low, high = db.bounds
    if low < 0 or high >= params.q:
        raise ValueError(f"database has entries outside [0, {params.q})")


def random_database(params: SchemeParams, randomness) -> Database:
    stream = _as_stream(randomness, "db")
    draws = stream.randrange_array(params.q, params.m * params.delta * params.s)
    return Database(draws.reshape(params.m, params.delta, params.s))


def format_database(params: SchemeParams, db: Database) -> str:
    ext = params.ext
    return "\n".join(
        ",".join(ext.format_element(x) for x in row) for row in db.array.tolist()
    ) + "\n"


def parse_database(params: SchemeParams, text: str) -> Database:
    ext = params.ext
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        symbols = line.split(",")
        if len(symbols) != params.delta:
            raise DatabaseFormatError(
                f"expected {params.delta} symbols, found {len(symbols)}", lineno
            )
        try:
            rows.append(tuple(ext.parse_element(sym.strip()) for sym in symbols))
        except ValueError as exc:
            raise DatabaseFormatError(str(exc), lineno) from None
    if len(rows) != params.m:
        raise DatabaseFormatError(
            f"expected {params.m} files, found {len(rows)}", len(rows) + 1
        )
    return Database(rows)


def load_database(params: SchemeParams, path) -> Database:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatabaseFormatError(f"byte {data[exc.start]:#04x} is not ASCII", line) from None
    return parse_database(params, text)


def save_database(params: SchemeParams, db: Database, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_database(params, db))


# --- queries ----------------------------------------------------------------


@dataclass(frozen=True)
class QuerySet:
    """Per-server curve evaluations plus the client-side secrets."""

    per_server: np.ndarray  # (k, m, delta, s); entry j - 1 goes to server j
    blinding: np.ndarray  # (t, m, delta, s) random arrays (never sent to servers)
    iota: int  # requested file (1-based; never sent to servers)


def _lagrange_values(field, nodes, points) -> tuple:
    """The Lagrange basis on `nodes`, evaluated at each of `points`.

    Entry [p][n] is l_n(points[p]) = w_n prod_{l != n}(points[p] - nodes[l]),
    where w_n = 1 / prod_{l != n}(nodes[n] - nodes[l]) are the weights that
    ``dual_multipliers`` gives for the nodes alone.  A point may be a node.
    """
    _, weights = dual_multipliers(field, (), nodes)
    out = []
    for point in points:
        diffs = [field.sub(point, node) for node in nodes]
        out.append(tuple(
            functools.reduce(field.mul, diffs[:n] + diffs[n + 1 :], w) for n, w in enumerate(weights)
        ))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def lagrange_basis_values(params: SchemeParams) -> tuple:
    """Per-server values of the curve's basis polynomials.

    Entry j holds (alpha_vals, chi_vals) at beta_j: alpha_vals[n] is 1 at
    alpha_n and 0 at every other alpha and every chi; chi_vals[h] is the
    matching basis value for the h-th blinding array.
    """
    ext = params.ext
    nodes = params.omega_alpha + params.omega_chi
    betas = [ext.embed(beta) for beta in params.omega_beta]
    return tuple(
        (values[: params.delta], values[params.delta :])
        for values in _lagrange_values(ext, nodes, betas)
    )


@functools.lru_cache(maxsize=None)
def lagrange_basis_polys(params: SchemeParams) -> tuple:
    """Coefficient form of the curve's basis polynomials (alphas, chis)."""
    ext = params.ext
    alphas, chis = params.omega_alpha, params.omega_chi
    alpha_polys = []
    for n, alpha_n in enumerate(alphas):
        roots = [a for l, a in enumerate(alphas) if l != n] + list(chis)
        poly = polyring.from_roots(ext, roots)
        denom = ext.inv(polyring.poly_eval(ext, poly, alpha_n))
        alpha_polys.append(tuple(polyring.poly_scale(ext, denom, poly)))
    chi_polys = []
    for h, chi_h in enumerate(chis):
        roots = list(alphas) + [c for l, c in enumerate(chis) if l != h]
        poly = polyring.from_roots(ext, roots)
        denom = ext.inv(polyring.poly_eval(ext, poly, chi_h))
        chi_polys.append(tuple(polyring.poly_scale(ext, denom, poly)))
    return tuple(alpha_polys), tuple(chi_polys)


def _as_stream(randomness, default_label: str) -> SeededStream:
    if isinstance(randomness, SeededStream):
        return randomness
    return SeededStream(int(randomness), default_label)


@functools.lru_cache(maxsize=None)
def _units(ext: ExtField) -> tuple:
    """xi^0, ..., xi^(s-1): the coordinate basis of the extension."""
    return tuple(tuple(int(a == d) for d in range(ext.s)) for a in range(ext.s))


@functools.lru_cache(maxsize=None)
def _query_tables(params: SchemeParams) -> tuple:
    """(curve, indicator): the query map as read-only int64 arrays.

    curve is (t*s, k*s); its (h, j) block is the s x s matrix whose row a
    is chi_vals[h] * xi^a at beta_j, so a row of blinding coefficients
    times it gives every server's blinding term.  indicator is
    (k, delta, s): alpha_vals at each beta_j, added at the requested row.
    """
    ext = params.ext
    table = lagrange_basis_values(params)
    curve = np.array(
        [
            [[ext.mul(chi_vals[h], unit) for _, chi_vals in table] for unit in _units(ext)]
            for h in range(params.t)
        ],
        dtype=np.int64,
    )
    indicator = np.array([alpha_vals for alpha_vals, _ in table], dtype=np.int64)
    return _frozen(curve.reshape(params.t * params.s, -1)), _frozen(indicator)


def queries_from_blinding(params: SchemeParams, iota: int, blinding) -> QuerySet:
    """Evaluate the indicator-plus-blinding curve at every server point."""
    if not 1 <= iota <= params.m:
        raise IndexError(f"file index {iota} outside [1, {params.m}]")
    k, t, m, delta, s = params.k, params.t, params.m, params.delta, params.s
    blinding = _field_array(params, blinding, (t, m, delta, s), "blinding")
    curve, indicator = _query_tables(params)
    rows = blinding.transpose(1, 2, 0, 3).reshape(m * delta, t * s)
    per_server = matmul_mod(rows, curve, params.q).reshape(m, delta, k, s)
    per_server = np.ascontiguousarray(per_server.transpose(2, 0, 1, 3))
    per_server[:, iota - 1] = (per_server[:, iota - 1] + indicator) % params.q
    return QuerySet(per_server=per_server, blinding=blinding, iota=iota)


def gen_queries(params: SchemeParams, iota: int, randomness) -> QuerySet:
    """Sample the t blinding arrays and evaluate the query curve."""
    stream = _as_stream(randomness, "query")
    shape = (params.t, params.m, params.delta, params.s)
    blinding = stream.randrange_array(params.q, math.prod(shape)).reshape(shape)
    return queries_from_blinding(params, iota, blinding)


# --- answers ----------------------------------------------------------------


@dataclass(frozen=True)
class AnswerSet:
    """Responses from a set of servers, in `server_ids` order (1-based)."""

    mode: str  # "trace" (base-field ints) or "full" (extension tuples)
    server_ids: tuple
    values: tuple


@functools.lru_cache(maxsize=None)
def _trace_forms(params: SchemeParams) -> np.ndarray:
    """(k, s) read-only array whose row j - 1 holds Tr(v_j * xi^d) for each d.

    Tr(v_j * a) is then the dot product of a's coefficients with row j - 1.
    """
    ext = params.ext
    forms = [[ext.trace(ext.mul(v, unit)) for unit in _units(ext)] for v in params.v]
    return _frozen(np.array(forms, dtype=np.int64))


def inner_product(params: SchemeParams, x, y) -> tuple:
    """Sum of x * y over all entries of two (..., s) arrays of one shape.

    G = x^T y, with x and y flattened to (n, s), holds in G[a, b] the
    coefficient of xi^a * xi^b.  Row a of G is the element sum_b G[a, b]
    xi^b, so the dot product of the rows with xi^0..xi^(s-1) folds G
    through the modulus.
    """
    s = params.s
    g = matmul_mod(np.reshape(x, (-1, s)).T, np.reshape(y, (-1, s)), params.q)
    return params.ext.dot([tuple(row) for row in g.tolist()], _units(params.ext))


def server_answer(params: SchemeParams, j: int, query_j, db: Database, mode: str = "trace"):
    """Answer of server j: the Frobenius inner product of query and database.

    Full mode returns the extension symbol phi(beta_j); trace mode returns
    Tr(v_j * phi(beta_j)), a single base-field symbol.
    """
    if not 1 <= j <= params.k:
        raise IndexError(f"server id {j} outside [1, {params.k}]")
    check_dimensions(params, db)
    query = _field_array(params, query_j, db.array.shape, "query array")
    answer = inner_product(params, query, db.array)
    if mode == "full":
        return answer
    if mode == "trace":
        return int(matmul_mod(np.array(answer), _trace_forms(params)[j - 1], params.q))
    raise ValueError(f"unknown answer mode {mode!r}")


def collect_answers(
    params: SchemeParams, queries: QuerySet, db: Database, mode: str = "trace", server_ids=None
) -> AnswerSet:
    """Honest answers from the given servers (defaults to all k)."""
    if server_ids is None:
        server_ids = tuple(range(1, params.k + 1))
    values = tuple(
        server_answer(params, j, queries.per_server[j - 1], db, mode) for j in server_ids
    )
    return AnswerSet(mode=mode, server_ids=tuple(server_ids), values=values)


# --- retrieval --------------------------------------------------------------


@dataclass(frozen=True)
class Retrieval:
    """Recovered file plus the servers whose answers were corrected."""

    symbols: tuple  # delta extension elements
    error_servers: tuple  # 1-based ids


@functools.lru_cache(maxsize=None)
def _trace_code_tables(params: SchemeParams) -> tuple:
    """Constants of the base-field decoding step, built once per params.

    Returns (code, recon).  Answer j is w_j g(beta_j) / P[j] for a
    polynomial g of degree below k - 2b, where w are the dual multipliers
    of the beta points and P[j] = prod_l f_l(beta_j); every P[j] is
    nonzero because the evaluation sets are disjoint.  code is therefore
    the GRS code on the beta points with multipliers w_j / P[j], and its
    cached check rows are P[j] beta_j^e for e < 2b.  recon is
    the read-only (k, delta * s) matrix that maps its corrected word c to
    the file: coordinate (i, :) of the file is -sum_d total_(i,d) theta_d,
    with total_(i,d) = sum_j h_(i,d)(beta_j) P_excl[i][j] c_j, where
    P_excl[i][j] leaves factor i out of the product P[j].
    """
    base = params.base
    evals = [
        [polyring.poly_eval(base, list(f), beta) for beta in params.omega_beta]
        for f in params.min_polys
    ]
    P = []
    for j in range(params.k):
        prod = base.one
        for i in range(params.delta):
            prod = base.mul(prod, evals[i][j])
        if prod == base.zero:
            raise ArithmeticError("minimal polynomial vanishes at a beta point")
        P.append(prod)
    weights = []  # [j][i][d]: h_(i,d)(beta_j) * P_excl[i][j]
    for j, beta in enumerate(params.omega_beta):
        per_symbol = []
        for i in range(params.delta):
            excl = base.mul(P[j], base.inv(evals[i][j]))
            per_symbol.append([
                base.mul(polyring.poly_eval(base, list(h), beta), excl)
                for h in params.recovery_polys[i]
            ])
        weights.append(per_symbol)
    theta = np.array(params.theta, dtype=np.int64)
    recon = -matmul_mod(np.array(weights, dtype=np.int64), theta, params.q) % params.q
    _, w = dual_multipliers(base, (), params.omega_beta)
    code = GrsCode(
        field=base,
        points=params.omega_beta,
        multipliers=tuple(base.mul(w_j, base.inv(p_j)) for w_j, p_j in zip(w, P)),
        dim=params.k - 2 * params.b,
    )
    return code, _frozen(recon.reshape(params.k, -1))


@functools.lru_cache(maxsize=256)
def _full_code_tables(params: SchemeParams, ids: tuple) -> tuple:
    """(code, recon) for full answers from the servers `ids`; C(k, r) id sets can occur.

    The answers are phi(beta_j) for a phi of degree below dim = r - 2b:
    code has unit multipliers on those points, and the file symbol
    phi(alpha_i) is sum_j l_j(alpha_i) c_j over the Lagrange basis on the
    first dim points.  recon is the (r * s, delta * s) base-field matrix
    whose s x s block (j, i) multiplies by l_j(alpha_i); rows from dim on
    are zero.
    """
    ext = params.ext
    dim = params.r - 2 * params.b
    points = tuple(ext.embed(params.omega_beta[j - 1]) for j in ids)
    code = GrsCode(field=ext, points=points, multipliers=(ext.one,) * params.r, dim=dim)
    recon = np.zeros((params.r, params.s, params.delta, params.s), dtype=np.int64)
    for i, values in enumerate(_lagrange_values(ext, points[:dim], params.omega_alpha)):
        for j, value in enumerate(values):
            recon[j, :, i] = [ext.mul(value, unit) for unit in _units(ext)]
    return code, _frozen(recon.reshape(params.r * params.s, -1))


def _retrieve(params: SchemeParams, code: GrsCode, recon: np.ndarray, answers: AnswerSet) -> Retrieval:
    """Decode the answer word, then rebuild the file as one product with recon."""
    try:
        result = grs_decode(code, answers.values)
    except DecodeFailure as exc:
        raise ByzantineBudgetExceeded(str(exc)) from exc
    corrected = np.array(result.corrected_word, dtype=np.int64).reshape(-1)
    symbols = matmul_mod(corrected, recon, params.q).reshape(params.delta, params.s)
    return Retrieval(
        symbols=tuple(map(tuple, symbols.tolist())),
        error_servers=tuple(answers.server_ids[p] for p in result.error_positions),
    )


def retrieve_from_r(params: SchemeParams, answers: AnswerSet) -> Retrieval:
    """Decode full-mode answers from exactly r servers, tolerating b errors."""
    if answers.mode != "full":
        raise ValueError("retrieve_from_r needs full-mode answers")
    ids = tuple(answers.server_ids)
    if len(ids) != params.r or len(set(ids)) != len(ids):
        raise ValueError(f"need answers from exactly {params.r} distinct servers")
    if any(not 1 <= j <= params.k for j in ids):
        raise IndexError("server id outside [1, k]")
    return _retrieve(params, *_full_code_tables(params, ids), answers)


def retrieve_from_k(params: SchemeParams, answers: AnswerSet) -> Retrieval:
    """Reconstruct the file from all k trace answers, tolerating b errors.

    The k answers form a word of a base-field GRS code of dimension
    k - 2b on the beta points.  Its 2b parity checks are the power sums
    of the beta points weighted by P[j] = prod_l f_l(beta_j), the checks
    of ``parity_check_words``.  Honest answers have a zero syndrome and
    are used as they are; otherwise the syndrome decoder locates and
    corrects up to b wrong answers.  One precomputed base-field matrix
    then rebuilds every file symbol from the corrected word; it combines
    the traces, the recovery polynomials and the dual basis.
    """
    if answers.mode != "trace":
        raise ValueError("retrieve_from_k needs trace-mode answers")
    if answers.server_ids != tuple(range(1, params.k + 1)):
        raise ValueError("trace retrieval needs answers from all k servers in order")
    return _retrieve(params, *_trace_code_tables(params), answers)


# --- capacity ---------------------------------------------------------------


def capacity(t: int, b: int, k: int, m: int | None = None) -> Fraction:
    """Download capacity; finite-file version when m is given, else the limit.

    C_m = ((k-2b)/k) * (1 - t/(k-2b)) / (1 - (t/(k-2b))^m) and
    C = (k-2b-t)/k.  Exact rational arithmetic throughout.
    """
    if 2 * b + t >= k:
        raise InvalidParameters("2b+t < k", f"need 2b+t < k, got 2b+t={2 * b + t}, k={k}")
    if m is None:
        return Fraction(k - 2 * b, k) * (1 - Fraction(t, k - 2 * b))
    if m < 1:
        raise InvalidParameters("m >= 1", f"file count m={m} must be at least 1")
    ratio = Fraction(t, k - 2 * b)
    return Fraction(k - 2 * b, k) * (1 - ratio) / (1 - ratio**m)


# --- dual-code words (identities used by the audits) -------------------------


def rs_codeword(params: SchemeParams, phi_coeffs) -> tuple:
    """(phi(alpha_1..delta), phi(beta_1..k)) for a degree < r-2b polynomial."""
    ext = params.ext
    if polyring.degree(list(phi_coeffs)) >= params.r - 2 * params.b:
        raise ValueError("phi degree too high for the answer code")
    word = [polyring.poly_eval(ext, phi_coeffs, alpha) for alpha in params.omega_alpha]
    word += [
        polyring.poly_eval(ext, phi_coeffs, ext.embed(beta)) for beta in params.omega_beta
    ]
    return tuple(word)


def _dual_word(params: SchemeParams, h_base_coeffs) -> tuple:
    """(u_i h(alpha_i), ..., v_j h(beta_j), ...) for a base-field h."""
    ext = params.ext
    word = []
    for i, alpha in enumerate(params.omega_alpha):
        word.append(ext.mul(params.u[i], ext.eval_base_poly(h_base_coeffs, alpha)))
    for j, beta in enumerate(params.omega_beta):
        hval = polyring.poly_eval(params.base, list(h_base_coeffs), beta)
        word.append(ext.scalar_mul(hval, params.v[j]))
    return tuple(word)


def recovery_dual_words(params: SchemeParams) -> list:
    """The delta*s dual-code words built from the recovery polynomials.

    Word (i, d) uses h_{i,d} * prod_{l != i} f_l; each is orthogonal to
    every answer codeword, which is what makes reconstruction exact.
    """
    base = params.base
    words = []
    for i in range(params.delta):
        excl = [base.one]
        for l, f in enumerate(params.min_polys):
            if l != i:
                excl = polyring.poly_mul(base, excl, list(f))
        for d in range(params.s):
            h = polyring.poly_mul(base, list(params.recovery_polys[i][d]), excl)
            words.append(((i + 1, d + 1), _dual_word(params, h)))
    return words


def parity_check_words(params: SchemeParams) -> list:
    """The 2b check words xi^e * prod_l f_l (e < 2b); they vanish at every
    alpha, which restricts the trace answers to a decodable code.  On the
    trace answers they are the checks P[j] beta_j^e from which
    ``retrieve_from_k`` computes its syndromes."""
    base = params.base
    full = [base.one]
    for f in params.min_polys:
        full = polyring.poly_mul(base, full, list(f))
    words = []
    for e in range(2 * params.b):
        h = [base.zero] * e + full
        words.append((e, _dual_word(params, h)))
    return words


# --- serialization ----------------------------------------------------------


def params_to_json_dict(params: SchemeParams) -> dict:
    ext, base = params.ext, params.base
    return {
        "k": params.k,
        "t": params.t,
        "b": params.b,
        "r": params.r,
        "delta": params.delta,
        "s": params.s,
        "m": params.m,
        "q": params.q,
        "field": params.tower.describe(),
        "omega_alpha": [ext.format_element(x) for x in params.omega_alpha],
        "omega_chi": [ext.format_element(x) for x in params.omega_chi],
        "omega_beta": list(params.omega_beta),
        "min_polys": [list(f) for f in params.min_polys],
        "u": [ext.format_element(x) for x in params.u],
        "v": [ext.format_element(x) for x in params.v],
        "theta": [ext.format_element(x) for x in params.theta],
        "eta": [ext.format_element(x) for x in params.eta],
        "recovery_polys": [[list(h) for h in row] for row in params.recovery_polys],
    }


def params_from_json_dict(data: dict) -> SchemeParams:
    tower = FieldTower.from_description(data["field"])
    ext = tower.ext
    params = SchemeParams(
        k=int(data["k"]),
        t=int(data["t"]),
        b=int(data["b"]),
        r=int(data["r"]),
        delta=int(data["delta"]),
        s=int(data["s"]),
        m=int(data["m"]),
        q=int(data["q"]),
        tower=tower,
        omega_alpha=tuple(ext.parse_element(x) for x in data["omega_alpha"]),
        omega_chi=tuple(ext.parse_element(x) for x in data["omega_chi"]),
        omega_beta=tuple(int(x) for x in data["omega_beta"]),
        min_polys=tuple(tuple(int(c) for c in f) for f in data["min_polys"]),
        u=tuple(ext.parse_element(x) for x in data["u"]),
        v=tuple(ext.parse_element(x) for x in data["v"]),
        theta=tuple(ext.parse_element(x) for x in data["theta"]),
        eta=tuple(ext.parse_element(x) for x in data["eta"]),
        recovery_polys=tuple(
            tuple(tuple(int(c) for c in h) for h in row) for row in data["recovery_polys"]
        ),
    )
    verify_params(params)
    return params
