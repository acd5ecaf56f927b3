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
are one (k, m, delta, s) array, server-major, whose row j - 1 goes to
server j.  That array is the only form queries take, and nothing else
of the client's travels with it: the file index and the blinding stay
with whoever drew them.  The query curve's blinding terms are an
F_q-linear map of the (m*delta, t*s) blinding rows: their product with
a (k, t*s, s) stack of multiply-by-constant blocks.  A row takes only
q^(t*s) values, so where the (k, q^(t*s), s) result over all of them
has at most 2^20 entries (8 MB, `QUERY_TABLE_ENTRIES`), that one
product is computed once, over its whole domain, and cached with the
stack: each row is packed into its base-q code and its k terms are read
from the table with one `np.take`.  The table is a memo of the product,
not a second formula; above the budget the product runs on every call.
Both give the queries already in that layout.  The blinding may carry a
leading batch axis of B draws, which both keep in front of the queries:
the exhaustive privacy audit evaluates every draw at one file index,
and the randomized byzantine sweep runs B clients, each draw at its own
index.  `gen_queries` is the batch of one.  An answer is the s x s
coefficient-product matrix of database and query, folded through the
modulus; the answers of a batch of servers, for one client or for B,
come from one `ExtField.dot` over the stacked queries, and trace mode
compresses them all in one more array product.  Every such product
goes through `linalg.matmul_mod`, which keeps partial sums below 2^63
and so is exact for every q <= 2^31.  Trace retrieval decodes a (W, k)
batch of answer words in one call (`retrieve_many`).  Scalars (setup
constants, single answers, retrieved symbols) stay Python ints and
tuples.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, polyring
from .gf import (
    MAX_FIELD_SIZE,
    MAX_PRIME,
    ExtField,
    FieldTower,
    PrimeField,
    dual_basis,
    find_irreducibles,
    irreducible_count,
    is_prime,
    minimal_poly,
    next_prime,
)
from .linalg import InvalidParameters, check_int, check_server_ids, matmul_mod
from .rand import SeededStream, randrange_rows
from .rscodes import DecodedBatch, DecodeFailure, GrsCode, dual_multipliers, grs_decode


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

    @functools.cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, field.name) for field in dataclasses.fields(self)))

    def __hash__(self):
        # every cached table is keyed on params: hash the nested tuples once
        return self._hash

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


def _trace_poly(ext: ExtField, frobenius_x, j: int) -> list:
    """T_j(x) = sum_(i < s) (xi^j)^(q^i) * frobenius_x[i](x), over ext.

    frobenius_x[i] is x^(q^i) modulo a degree-s poly with base-field
    coefficients, for i < s (`polyring.frobenius_powers`).  At every
    root r of poly, T_j(r) = sum_i (xi^j r)^(q^i) = Tr(xi^j r), so T_j
    mod any factor of poly takes base-field values on that factor's
    roots.  It costs s^2 products of a base-field scalar and an element.
    """
    form, conjugate = [ext.zero] * ext.s, tuple(int(d == j) for d in range(ext.s))
    for h in frobenius_x:
        for d, c in enumerate(h):
            form[d] = ext.add(form[d], ext.scalar_mul(c, conjugate))
        conjugate = ext.frobenius(conjugate)
    return polyring.normalize(ext, form)


def _find_root(ext: ExtField, poly) -> tuple:
    """Lexicographically smallest root in ext of a degree-s irreducible poly.

    The roots of such a polynomial are the s Frobenius conjugates of any
    one of them, so one root found algebraically gives all of them and
    the smallest is returned; the result does not depend on how the first
    root was found.  For the construction modulus that root is xi.  For
    any other polynomial, Berlekamp's trace algorithm splits it
    ("Factoring Polynomials over Large Finite Fields", 1970).  The trace
    form T_j (`_trace_poly`) is Tr(xi^j r) in F_q at every root r.  For
    j = 1, ..., s - 1 and, per j, shifts c = 0, ..., q - 1, the factor f
    left splits into gcd(f, (T_j + c)^((q - 1)/2) - 1), the roots r with
    T_j(r) + c a nonzero square, and its cofactor; the smaller one is
    kept, until f is linear.  An attempt is one power by (q - 1)/2
    modulo f.  Once T_j mod f is constant, T_j takes one value on every
    root left and the next j is taken.  A shift that failed on f fails
    on each of its factors too (their roots share its verdict), so c
    runs on after a split instead of restarting.  The search needs odd
    q, which s >= 2 implies (q >= k >= 3).

    It terminates with f linear after at most (s - 1) * q attempts.
    Conjugate roots share Tr(r), and the trace form is nondegenerate:
    if Tr(xi^j u) = Tr(xi^j v) for every j < s, then u = v.  So any two
    roots left are separated by some T_j with j >= 1.  For values u != v
    in F_q, some c in [0, q) puts exactly one of u + c and v + c among
    the (q - 1)/2 nonzero squares S: otherwise S + (u - v) = S, and as
    u - v generates F_q, S would be empty or all of F_q.  So by the end
    of pass j no two roots of f differ in T_j, and after pass s - 1 one
    root is left; the ArithmeticError below is a guard.  The x^(q^i) mod
    poly come once per poly from `polyring.frobenius_powers` and stay
    valid modulo every factor of poly; each form is built only when the
    ones before it stop separating.
    """
    s, q = ext.s, ext.q
    if tuple(poly) == ext.modulus:
        root = (0, 1) + (0,) * (s - 2)
    else:
        f = [ext.embed(c) for c in poly]
        frobenius_x = polyring.frobenius_powers(ext.base, list(poly), s - 1)
        for j in range(1, s):
            if len(f) == 2:
                break
            reduced = polyring.poly_mod(ext, _trace_poly(ext, frobenius_x, j), f)
            for c in range(q):
                if len(reduced) < 2:  # constant: T_j no longer separates the roots of f
                    break
                shifted = [ext.add(reduced[0], ext.embed(c)), *reduced[1:]]
                power = polyring.poly_powmod(ext, shifted, (q - 1) // 2, f)
                g = polyring.poly_gcd(ext, polyring.poly_sub(ext, power, [ext.one]), f)
                if 1 < len(g) < len(f):
                    f = min(g, polyring.poly_divmod(ext, f, g)[0], key=len)
                    reduced = polyring.poly_mod(ext, reduced, f)
        if len(f) != 2:
            raise ArithmeticError(f"{poly} does not split into linear factors in {ext!r}")
        root = ext.neg(f[0])
    conjugates = [root]
    for _ in range(s - 1):
        conjugates.append(ext.frobenius(conjugates[-1]))
    return min(conjugates)


def min_q(k: int, t: int, b: int, r: int) -> int:
    """The smallest q ``setup`` admits for (k, t, b, r).

    The k beta points are distinct elements of F_q; when s = 1, that is
    r = k, the t chi and delta alpha points are further base-field
    elements beside them.
    """
    delta = r - 2 * b - t
    return k + delta + t if r == k else k


def check_q(q, q_minimum: int) -> int:
    """`q` as an int; refuse, as InvalidParameters("q"), a q that is not a prime
    below 2^31, and, as InvalidParameters("k <= q"), one below q_minimum
    (`min_q`); ``setup`` and ``harness.scheme_comparison`` share it."""
    q = check_int(q, "q", constraint="q")
    _require(q <= MAX_PRIME and is_prime(q), "q", f"q={q} is not a prime below 2^31")
    _require(q >= q_minimum, "k <= q", f"q={q} is below the minimum {q_minimum} for these parameters")
    return q


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

    Its cost, for s >= 2, is mostly in F_{q^s}[x]: each irreducibility
    test (`rabin_irreducible`) takes one x^q mod f by square-and-multiply
    and then one F_q matrix-vector product per Frobenius power, and each
    splitting attempt in `_find_root` takes one power by (q - 1)/2 of a
    shifted trace form modulo the factor left.  At (17,1,2,8), cProfile
    of 100 setups puts half of setup in root finding, and 11-14% each in
    `verify_params`, `dual_multipliers` and the irreducible search.
    """
    k, t = check_int(k, "k"), check_int(t, "t", 1, constraint="t >= 1")
    b, r = check_int(b, "b", 0, constraint="b >= 0"), check_int(r, "r")
    m = check_int(m, "m", 1, constraint="m >= 1")
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
    q_min = min_q(k, t, b, r)
    q = next_prime(q_min) if q_hint is None else check_q(q_hint, q_min)
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

    # change of basis to powers of alpha_i, all delta systems in one solve:
    # coordinates of alpha_i^d in the construction basis are the tuples
    # themselves, so column d of system i holds alpha_i^d, and column d of
    # its right-hand side eta_d / (u_i prod_{l != i} f_l(alpha_i))
    powers, targets = [], []
    for i, alpha in enumerate(alphas):
        excl = ext.one
        for l, f in enumerate(min_polys):
            if l != i:
                excl = ext.mul(excl, ext.eval_base_poly(f, alpha))
        target_scale = ext.inv(ext.mul(u[i], excl))
        powers.append([ext.pow(alpha, d) for d in range(s)])
        targets.append([ext.mul(target_scale, eta_d) for eta_d in pair.eta])
    coeffs, invertible = linalg.solve_stacked(
        q, np.array(powers, dtype=np.int64).swapaxes(1, 2), np.array(targets, dtype=np.int64).swapaxes(1, 2)
    )
    if not invertible.all():
        raise ArithmeticError(f"alpha_{invertible.argmin() + 1} does not have degree {s}")
    # row d of recovery_polys[i] is column d of solution i
    recovery_polys = tuple(tuple(map(tuple, system)) for system in coeffs.swapaxes(1, 2).tolist())

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
        recovery_polys=recovery_polys,
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

    as_dict = dataclasses.asdict

    @property
    def all_ok(self) -> bool:
        return all(self.as_dict().values())


def validate_optimality(params, delta: int | None = None, s: int | None = None) -> OptimalityReport:
    """File-size optimality flags for scheme parameters.

    `params` is a SchemeParams or a (k, t, b, r) tuple of integers; `delta`
    and `s`, integers, override the derived sub-packetization for what-if
    reports.
    """
    if isinstance(params, SchemeParams):
        delta = params.delta if delta is None else delta
        s = params.s if s is None else s
        params = params.k, params.t, params.b, params.r
    k, t, b, r = (check_int(value, name) for value, name in zip(params, "ktbr", strict=True))
    rate_delta = r - 2 * b - t
    rem = k - 2 * b - t
    divisibility = rate_delta >= 1 and rem % rate_delta == 0
    delta = rate_delta if delta is None else check_int(delta, "delta")
    s = (rem // rate_delta if divisibility else 0) if s is None else check_int(s, "s")
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _field_array(params: SchemeParams, values, shape: tuple, what: str, batch: bool = False) -> np.ndarray:
    """values as an int64 array of the given shape with entries in [0, q).

    With `batch`, the array may also carry one leading axis of any length.
    """
    array = linalg.field_array(values, params.q, what)
    if array.shape != shape and not (batch and array.shape[1:] == shape):
        expected = f"{shape} or (B,) + {shape}" if batch else f"{shape}"
        raise ValueError(f"{what} has shape {array.shape}, expected {expected}")
    return array


# --- database ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Database:
    """m x delta extension-field symbols as a read-only int64 (m, delta, s) array.

    Construction copies any rectangular nested sequence of ints and raises
    ValueError for ragged input, non-integers or values outside int64
    (`linalg.integer_array`).
    """

    array: np.ndarray

    def __post_init__(self):
        array = np.array(linalg.integer_array(self.array, "database"))
        object.__setattr__(self, "array", _frozen(array))

    def __eq__(self, other):
        return isinstance(other, Database) and np.array_equal(self.array, other.array)

    @functools.cached_property
    def bounds(self) -> tuple:
        """(min, max) of the non-empty `array`, scanned once."""
        return int(self.array.min()), int(self.array.max())

    def row(self, iota: int) -> tuple:
        """File iota (1-based), as a delta-tuple of element tuples."""
        iota = check_int(iota, "file index", 1, len(self.array), None)
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


# --- queries ----------------------------------------------------------------


def _lagrange_values(field, nodes, points) -> tuple:
    """The Lagrange basis on `nodes`, evaluated at each of `points`.

    Entry [p][n] is l_n(points[p]) = w_n prod_{l != n}(points[p] - nodes[l]),
    where w_n = 1 / prod_{l != n}(nodes[n] - nodes[l]) are the weights that
    ``dual_multipliers`` gives for the nodes alone.  A point may be a node.
    The products over l != n are a prefix product over l < n times a
    suffix product over l > n, so a point costs about four extension
    products per node, not one per other node.
    """
    _, weights = dual_multipliers(field, (), nodes)
    out = []
    for point in points:
        diffs = [field.sub(point, node) for node in nodes]
        suffix = [field.one]  # prod_{l > n} diffs[l], built from the last node back
        for diff in reversed(diffs[1:]):
            suffix.append(field.mul(diff, suffix[-1]))
        prefix, values = field.one, []
        for diff, w, after in zip(diffs, weights, reversed(suffix)):
            values.append(field.mul(field.mul(w, prefix), after))
            prefix = field.mul(prefix, diff)
        out.append(tuple(values))
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


def _as_stream(randomness, default_label: str) -> SeededStream:
    return randomness if isinstance(randomness, SeededStream) else SeededStream(randomness, default_label)


@functools.lru_cache(maxsize=None)
def _units(ext: ExtField) -> tuple:
    """xi^0, ..., xi^(s-1): the coordinate basis of the extension."""
    return tuple(tuple(int(a == d) for d in range(ext.s)) for a in range(ext.s))


QUERY_TABLE_ENTRIES = 2**20  # int64 entries of the query map's lookup table: 8 MB


def _base_q_digits(q: int, width: int) -> np.ndarray:
    """Row c holds the `width` base-q digits of c, least significant first, for every c < q^width."""
    return np.arange(q**width, dtype=np.int64)[:, None] // q ** np.arange(width, dtype=np.int64) % q


@functools.lru_cache(maxsize=None)
def _query_tables(params: SchemeParams) -> tuple:
    """(curve, indicator, table): the query map as read-only int64 arrays.

    curve is (k, t*s, s): row h*s + a of curve[j - 1] holds chi_vals[h] *
    xi^a at beta_j, so the (m*delta, t*s) blinding rows times curve[j - 1]
    give server j's blinding terms, and one broadcast product gives every
    server's, already server-major.  indicator is (k, delta, s):
    alpha_vals at each beta_j, added at the requested row.

    A blinding row takes only q^(t*s) values, and the map is F_q-linear,
    so table memoizes that one product over its whole domain: table[j, c]
    = digits(c) @ curve[j] mod q, for each c < q^(t*s) written in base q
    least significant digit first (digit h*s + a is coefficient a of term
    h), computed by the same `matmul_mod` from the same curve.  It is not
    a second formula, and lives in the same cache entry as the curve, so
    whatever the curve holds reaches the lookup too.  table is
    (k, q^(t*s), s) when that has at most QUERY_TABLE_ENTRIES entries, and
    None above it, where the product runs on every call.
    """
    ext, q, width = params.ext, params.q, params.t * params.s
    basis = lagrange_basis_values(params)
    curve = np.array(
        [
            [ext.mul(chi_vals[h], unit) for h in range(params.t) for unit in _units(ext)]
            for _, chi_vals in basis
        ],
        dtype=np.int64,
    )
    indicator = np.array([alpha_vals for alpha_vals, _ in basis], dtype=np.int64)
    table = None
    if params.k * q**width * params.s <= QUERY_TABLE_ENTRIES:
        table = _frozen(matmul_mod(_base_q_digits(q, width), curve, q))
    return _frozen(curve), _frozen(indicator), table


def queries_from_blinding(params: SchemeParams, iota, blinding) -> np.ndarray:
    """Evaluate the indicator-plus-blinding curve at every server point.

    Returns the (k, m, delta, s) int64 queries, server-major: row j - 1
    goes to server j, and it is all that server ever sees.  The blinding
    terms are the (m*delta, t*s) blinding rows times the (k, t*s, s)
    curve stack.  Within the table budget (`_query_tables`) each row is
    packed into its base-q code and the terms are read from the table;
    above it they are one product with the stack.  Either way they come
    out in that layout, in new memory, so no query shares memory with
    the blinding or the table.  A (B, t, m, delta, s) blinding is a batch
    of B draws, which gives (B, k, m, delta, s) queries, draw-major, by
    the same product, or by the same read followed by one transpose copy
    (none for B = 1).  With one file index every draw asks for that file
    (the privacy audit); with a length-B sequence of them, as B clients
    ask, draw n's indicator goes to row iota[n] of its own queries.  Each
    index is a file index in [1, m] (`check_int`).
    """
    k, t, m, delta, s, q = params.k, params.t, params.m, params.delta, params.s, params.q
    batched_iota = not isinstance(iota, (int, np.integer)) and np.ndim(iota) == 1
    indices = [check_int(i, "file index", 1, m, None) for i in (iota if batched_iota else (iota,))]
    blinding = _field_array(params, blinding, (t, m, delta, s), "blinding", batch=True)
    lead = blinding.shape[:-4]
    if batched_iota and lead != (len(indices),):
        raise ValueError(f"{len(indices)} file indices for a blinding of shape {blinding.shape}")
    curve, indicator, table = _query_tables(params)
    # (..., 1, m*delta, t*s) rows against the (k, t*s, s) stack give (..., k, m*delta, s)
    rows = blinding.swapaxes(-4, -3).swapaxes(-3, -2).reshape(lead + (1, m * delta, t * s))
    if table is None:
        queries = matmul_mod(rows, curve, q)
    else:
        codes = rows @ q ** np.arange(t * s, dtype=np.int64)  # (..., 1, m*delta)
        queries = np.ascontiguousarray(np.take(table, codes, axis=1).swapaxes(0, -3))
    queries = queries.reshape(lead + (k, m, delta, s))
    if batched_iota:
        draws, asked = np.arange(len(indices)), np.array(indices, dtype=np.intp) - 1
        queries[draws, :, asked] = (queries[draws, :, asked] + indicator) % q
    else:
        queries[..., iota - 1, :, :] = (queries[..., iota - 1, :, :] + indicator) % q
    return queries


def draw_blinding(params: SchemeParams, randomness) -> np.ndarray:
    """The t blinding arrays of one query, as a (t, m, delta, s) int64 array.

    Given a list or tuple of B streams, one a client, the result is their
    (B, t, m, delta, s) blindings: row i is what ``draw_blinding(params,
    streams[i])`` returns, and each stream is left as that call leaves
    it.  The B draws are one ``randrange_rows`` pass, faster than B
    separate draws from about three streams on (see ``tracepir.rand``).
    """
    shape = (params.t, params.m, params.delta, params.s)
    if isinstance(randomness, (list, tuple)):
        draws = randrange_rows(randomness, params.q, math.prod(shape))
        return draws.reshape((len(randomness),) + shape)
    stream = _as_stream(randomness, "query")
    return stream.randrange_array(params.q, math.prod(shape)).reshape(shape)


def gen_queries(params: SchemeParams, iota: int, randomness) -> np.ndarray:
    """Check the file index, then draw the blinding and evaluate the curve: the (k, m, delta, s) queries."""
    iota = check_int(iota, "file index", 1, params.m, None)
    return queries_from_blinding(params, iota, draw_blinding(params, randomness))


# --- answers ----------------------------------------------------------------


@dataclass(frozen=True)
class AnswerSet:
    """Responses from a set of servers, in `server_ids` order (1-based)."""

    mode: str  # "trace" (base-field ints) or "full" (extension tuples)
    server_ids: tuple
    values: tuple


@functools.lru_cache(maxsize=256)
def _trace_forms(params: SchemeParams, ids: tuple) -> np.ndarray:
    """Row n holds Tr(v_j * xi^d) for each d, j = ids[n], as a read-only (len(ids), s) int64 array.

    Tr(v_j * a) is then the dot product of a's coefficients with row n.
    Cached per id tuple, as the answer calls ask for them: picking the
    rows of a (k, s) table on every call cost about 5 us, a sixth of an
    11-server answer (2-CPU Xeon).
    """
    ext = params.ext
    forms = [[ext.trace(ext.mul(params.v[j - 1], unit)) for unit in _units(ext)] for j in ids]
    return _frozen(np.array(forms, dtype=np.int64))


def server_answer(params: SchemeParams, j, query_j, db: Database, mode: str = "trace"):
    """Answer of server j: the Frobenius inner product of query and database.

    Full mode returns the extension symbol phi(beta_j); trace mode returns
    Tr(v_j * phi(beta_j)), a single base-field symbol.

    j may also be a tuple of server ids, with query_j their stacked
    (len(j), m, delta, s) queries; the answers then come back as a tuple
    in that order, and a single server is the batch of one.  Stacked
    (B, len(j), m, delta, s) queries are B clients asking the same
    servers, and give B such tuples, in client order; an empty tuple of
    ids raises ValueError before any work.  With the database
    flattened to (N, s) and the queries to (B * len(j), N, s), one
    `ExtField.dot` gives every answer element as an int64 row.  Trace
    mode folds them all in one array product with the cached forms of
    Tr(v_j * .): coefficients times form, summed over the s coefficients,
    mod q.  That is exact in int64: each product is below q^2, and
    q^s <= 2^32 with q < 2^31 gives s * (q - 1)^2 < 2^63.  One `tolist`
    then gives the answers as Python ints, or tuples of them in full mode.
    """
    single = not isinstance(j, tuple)
    ids = check_server_ids((j,) if single else j, params.k)
    if not ids:
        raise ValueError("an empty tuple of server ids asks no server")
    if mode not in ("trace", "full"):
        raise ValueError(f"unknown answer mode {mode!r}")
    check_dimensions(params, db)
    shape = db.array.shape if single else (len(ids),) + db.array.shape
    queries = _field_array(params, query_j, shape, "query array", batch=not single)
    x = db.array.reshape(-1, params.s)
    # (B, n, s): client, server, coefficient
    answers = params.ext.dot(x, queries.reshape(-1, len(x), params.s)).reshape(-1, len(ids), params.s)
    if mode == "trace":
        answers = ((answers * _trace_forms(params, ids)).sum(axis=-1) % params.q).tolist()
    else:
        answers = [list(map(tuple, client)) for client in answers.tolist()]
    if single:
        return answers[0][0]
    if queries.ndim == len(shape):
        return tuple(answers[0])
    return tuple(map(tuple, answers))


def collect_answers(
    params: SchemeParams, queries: np.ndarray, db: Database, mode: str = "trace", server_ids=None
) -> AnswerSet:
    """Honest answers from the given servers (defaults to all k), from one Gram product.

    `queries` is the (k, m, delta, s) array of ``gen_queries``, or the
    (B, k, m, delta, s) batch of ``queries_from_blinding``, whose
    `values` then hold one tuple of answers per draw.  The servers'
    rows are taken along the server axis: an in-order prefix (1, ...,
    n), such as all k servers or a full-mode session's first r, as a
    view, uncopied; any other ids as a copy of their rows, in the order
    given.
    """
    server_ids = tuple(range(1, params.k + 1)) if server_ids is None else check_server_ids(server_ids, params.k)
    n = len(server_ids)
    if server_ids == tuple(range(1, n + 1)):
        asked = queries[..., :n, :, :, :]
    else:
        asked = np.take(queries, [j - 1 for j in server_ids], axis=-4)
    values = server_answer(params, server_ids, asked, db, mode)
    return AnswerSet(mode=mode, server_ids=server_ids, values=values)


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
    cached check rows are P[j] beta_j^e for e < 2b.  The file of a
    codeword c is c times a (k, delta * s) matrix: coordinate (i, :) of
    the file is -sum_d total_(i,d) theta_d, with
    total_(i,d) = sum_j h_(i,d)(beta_j) P_excl[i][j] c_j, where
    P_excl[i][j] leaves factor i out of the product P[j].  A codeword is
    its first dim symbols times ``code.interpolation`` times
    ``code.generator``, so recon is the read-only (dim, delta * s) matrix
    interpolation @ generator @ that one, and the first dim symbols of c
    times recon give the file: at k = 11 and b = 2, 7 of the 11 rows.  A
    zero word, as a failed decode leaves, gives the zero file either way.
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
    reencode = matmul_mod(code.interpolation, code.generator, params.q)
    return code, _frozen(matmul_mod(reencode, recon.reshape(params.k, -1), params.q))


@functools.lru_cache(maxsize=256)
def _full_code_tables(params: SchemeParams, ids: tuple) -> tuple:
    """(code, recon) for full answers from the servers `ids`; C(k, r) id sets can occur.

    The answers are phi(beta_j) for a phi over F_{q^s} of degree below
    dim = r - 2b.  The beta points lie in F_q, so coefficient plane p of
    the answers is phi_p(beta_j), with phi_p the polynomial of the p-th
    coordinates of phi's coefficients: code is the base-field GRS code
    on those points with unit multipliers, and each plane is one of its
    words.  The file symbol phi(alpha_i) is sum_j l_j(alpha_i) c_j over
    the Lagrange basis on the first dim points; recon is the
    (r * s, delta * s) base-field matrix whose s x s block (j, i)
    multiplies by l_j(alpha_i), and its rows from dim on are zero.
    """
    base, ext = params.base, params.ext
    dim = params.r - 2 * params.b
    points = tuple(params.omega_beta[j - 1] for j in ids)
    code = GrsCode(field=base, points=points, multipliers=(base.one,) * params.r, dim=dim)
    recon = np.zeros((params.r, params.s, params.delta, params.s), dtype=np.int64)
    nodes = tuple(ext.embed(x) for x in points[:dim])
    for i, values in enumerate(_lagrange_values(ext, nodes, params.omega_alpha)):
        for j, value in enumerate(values):
            recon[j, :, i] = [ext.mul(value, unit) for unit in _units(ext)]
    return code, _frozen(recon.reshape(params.r * params.s, -1))


def retrieve_from_r(params: SchemeParams, answers: AnswerSet) -> Retrieval:
    """Decode full-mode answers from exactly r servers, tolerating b errors.

    The r answers form an (r, s) array whose column p is coefficient
    plane p, a word of the base-field code of ``_full_code_tables``.
    The s planes are decoded as one (s, r) batch.  The word fails if a
    plane fails or if the union of the planes' error positions has more
    than b of them; otherwise the corrected planes form the codeword,
    the union gives the servers whose answers were wrong, and one
    product with the cached rebuild matrix gives the file.

    The verdicts are those of bounded-distance decoding in the code over
    F_{q^s}, whose codewords are the words whose every plane is a
    base-field codeword (MacWilliams and Sloane, ch. 10):
    - If a codeword c lies within distance b of the word and differs from
      it on E, every plane lies within b of c's plane and differs from
      it only inside E, so every plane decodes to c's plane and the
      union is exactly E.
    - So if some plane fails, or the union has more than b positions,
      no codeword lies within distance b.
    - If every plane decodes and the union has at most b positions, the
      rebuilt word is a codeword within distance b of the word, and so
      it is the unique one.
    """
    if answers.mode != "full":
        raise ValueError("retrieve_from_r needs full-mode answers")
    ids = check_server_ids(answers.server_ids, params.k)
    if len(ids) != params.r or len(set(ids)) != len(ids):
        raise ValueError(f"need answers from exactly {params.r} distinct servers")
    word = _field_array(params, answers.values, (params.r, params.s), "full answers")
    code, recon = _full_code_tables(params, ids)
    planes = grs_decode(code, word.T)
    wrong = planes.errors.any(axis=0)
    if planes.failed.any() or wrong.sum() > params.b:
        failure = DecodeFailure.beyond(params.b)
        raise ByzantineBudgetExceeded(str(failure)) from failure
    corrected = planes.corrected.T.reshape(-1)
    symbols = matmul_mod(corrected, recon, params.q).reshape(params.delta, params.s)
    return Retrieval(
        symbols=tuple(map(tuple, symbols.tolist())),
        error_servers=tuple(j for j, bad in zip(ids, wrong.tolist()) if bad),
    )


def retrieve_many(params: SchemeParams, words) -> tuple:
    """Reconstruct W files from W words of k trace answers, in one decode.

    Row w of `words` holds the k trace answers of one retrieval, server
    j's in column j - 1; each row is a word of a base-field GRS code of
    dimension k - 2b on the beta points, whose 2b parity checks are the
    power sums of the beta points weighted by P[j] = prod_l f_l(beta_j),
    the checks of ``parity_check_words``.  The whole (W, k) array is
    decoded by one ``grs_decode`` call (see there): honest rows have a
    zero syndrome and are used as they are, and up to b wrong answers
    per row are located and corrected.  One product of the corrected
    words' first k - 2b symbols with a precomputed base-field matrix,
    which combines the re-encode, the traces, the recovery polynomials
    and the dual basis (``_trace_code_tables``), then rebuilds every
    file.

    Returns (files, errors, failed): the (W, delta, s) int64 files, the
    (W, k) bool mask of the answers that were corrected, and the (W,)
    bool mask of the rows that no codeword lies within distance b of
    (they have more than b wrong answers), whose files are zero and whose
    error rows are empty.
    """
    code, recon = _trace_code_tables(params)
    result = grs_decode(code, words)  # checks the entries too
    if not isinstance(result, DecodedBatch):
        raise ValueError(f"answer words form one word, expected a (W, {params.k}) array")
    files = matmul_mod(result.corrected[:, : code.dim], recon, params.q).reshape(-1, params.delta, params.s)
    return files, result.errors, result.failed


def retrieve_from_k(params: SchemeParams, answers: AnswerSet) -> Retrieval:
    """Reconstruct the file from all k trace answers, tolerating b errors.

    The batch of one of ``retrieve_many``.  A word that no codeword lies
    within distance b of raises ByzantineBudgetExceeded.
    """
    if answers.mode != "trace":
        raise ValueError("retrieve_from_k needs trace-mode answers")
    if answers.server_ids != tuple(range(1, params.k + 1)):
        raise ValueError("trace retrieval needs answers from all k servers in order")
    files, errors, failed = retrieve_many(params, [answers.values])
    if failed[0]:
        failure = DecodeFailure.beyond(params.b)
        raise ByzantineBudgetExceeded(str(failure)) from failure
    # the ids are 1, ..., k: server j's answer is column j - 1
    wrong = tuple((np.flatnonzero(errors[0]) + 1).tolist()) if np.count_nonzero(errors) else ()
    return Retrieval(symbols=tuple(map(tuple, files[0].tolist())), error_servers=wrong)


# --- capacity ---------------------------------------------------------------


def capacity(t: int, b: int, k: int, m: int | None = None) -> Fraction:
    """Download capacity; finite-file version when m is given, else the limit.

    C_m = ((k-2b)/k) * (1 - t/(k-2b)) / (1 - (t/(k-2b))^m) and
    C = (k-2b-t)/k.  Exact rational arithmetic throughout.  Cached behind
    the argument check (m = True would hit m = 1): every session asks for
    both figures of its scheme, and the exact power (t/(k-2b))^m costs
    time that grows with m; a call that raises caches nothing.
    """
    m = None if m is None else check_int(m, "m", 1, constraint="m >= 1")
    return _capacity(check_int(t, "t"), check_int(b, "b"), check_int(k, "k"), m)


@functools.lru_cache(maxsize=256)
def _capacity(t: int, b: int, k: int, m: int | None) -> Fraction:
    if 2 * b + t >= k:
        raise InvalidParameters("2b+t < k", f"need 2b+t < k, got 2b+t={2 * b + t}, k={k}")
    if m is None:
        return Fraction(k - 2 * b, k) * (1 - Fraction(t, k - 2 * b))
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


# the params JSON holds the SchemeParams fields in order: the tower as its
# description under "field", these tuples of extension elements as their
# strings, and every other field, an int or nested tuples of ints, as ints
# in nested lists
_ELEMENT_TUPLES = frozenset(("omega_alpha", "omega_chi", "u", "v", "theta", "eta"))


def _int_tree(value):
    """An int, or nested tuples of ints, as ints in nested lists; setup's fields are Python ints."""
    return [_int_tree(x) for x in value] if isinstance(value, tuple) else value


def params_to_json_dict(params: SchemeParams) -> dict:
    ext = params.ext
    data = {}
    for field in dataclasses.fields(SchemeParams):
        value = getattr(params, field.name)
        if field.name == "tower":
            data["field"] = value.describe()
        elif field.name in _ELEMENT_TUPLES:
            data[field.name] = [ext.format_element(x) for x in value]
        else:
            data[field.name] = _int_tree(value)
    return data
