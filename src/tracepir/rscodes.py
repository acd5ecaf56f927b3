"""Reed-Solomon / Generalized Reed-Solomon machinery.

A GRS code is the set of words (m_1 h(x_1), ..., m_n h(x_n)) for message
polynomials h of degree below the dimension.  Decoding is errors-only
Berlekamp-Welch: one linear solve of N(x_i) = r_i E(x_i), with r_i the
received symbol over its multiplier, for a monic error locator E of
degree tau = floor((n - dim) / 2) and a masked message N, then one
division N / E.  ``oracle_decode`` is the brute-force counterpart used
to cross-check the decoder; it enumerates every codeword, so it is
guarded by an enumeration bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, polyring

ORACLE_MAX_CODEWORDS = 2**20
ORACLE_MAX_FIELD = 4096


class DecodeFailure(Exception):
    """No codeword lies within the decoding radius of the received word."""


class EnumerationTooLarge(ValueError):
    """Brute-force enumeration would exceed the configured guard."""


@dataclass(frozen=True)
class GrsCode:
    """Code description: evaluation points, column multipliers, dimension."""

    field: object
    points: tuple
    multipliers: tuple
    dim: int

    def __post_init__(self):
        n = len(self.points)
        if len(self.multipliers) != n:
            raise ValueError("points and multipliers must have equal length")
        if not 1 <= self.dim <= n:
            raise ValueError(f"dimension {self.dim} outside [1, {n}]")
        if n > self.field.size:
            raise ValueError("more evaluation points than field elements")
        if len(set(self.points)) != n:
            raise ValueError("evaluation points must be pairwise distinct")
        if any(m == self.field.zero for m in self.multipliers):
            raise ValueError("column multipliers must be nonzero")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def radius(self) -> int:
        """Unique-decoding radius floor((n - dim) / 2)."""
        return (self.n - self.dim) // 2


@dataclass(frozen=True)
class DecodeResult:
    message_poly: tuple
    error_positions: tuple
    corrected_word: tuple


def lagrange_interpolate(field, points):
    """Unique polynomial of degree < n through n points with distinct x."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation points")
    result = []
    for i, (xi, yi) in enumerate(points):
        basis = [field.one]
        denom = field.one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = polyring.poly_mul(field, basis, [field.neg(xj), field.one])
            denom = field.mul(denom, field.sub(xi, xj))
        term = polyring.poly_scale(field, field.mul(yi, field.inv(denom)), basis)
        result = polyring.poly_add(field, result, term)
    return result


def grs_encode(code: GrsCode, message_poly):
    if polyring.degree(list(message_poly)) >= code.dim:
        raise ValueError(
            f"message degree {polyring.degree(list(message_poly))} too high for dimension {code.dim}"
        )
    F = code.field
    return tuple(
        F.mul(m, polyring.poly_eval(F, message_poly, x))
        for x, m in zip(code.points, code.multipliers)
    )


def grs_decode(code: GrsCode, received) -> DecodeResult:
    """Bounded-distance decode up to radius tau = floor((n - dim)/2).

    One Berlekamp-Welch solve at locator degree tau suffices.  Its
    unknowns are the dim + tau coefficients of N and the tau low
    coefficients of the monic E; position i contributes
    sum_d N_d x_i^d - r_i sum_{d<tau} E_d x_i^d = r_i x_i^tau, where r_i
    is the received symbol divided by its multiplier.  If a codeword with
    message f differs from the word in e <= tau positions, whose monic
    locator is L, then (E, N) = (L x^(tau - e), L f) solves the system,
    and every solution (E', N') has N' = E' f: N' E - N E' has degree
    below dim + 2 tau <= n and vanishes at all n points.  So when the
    solve or the division fails, no codeword lies within tau, and
    DecodeFailure is raised.  An exact quotient has degree below dim,
    because N has degree below dim + tau, and it agrees with the word
    wherever E is nonzero, that is at all but at most tau points; the
    distance check therefore cannot fail and stays only as a guard.
    """
    received = tuple(received)
    if len(received) != code.n:
        raise ValueError(f"received word has length {len(received)}, expected {code.n}")
    F = code.field
    kappa, tau = code.dim, code.radius
    rows = []
    rhs = []
    for x, y, m in zip(code.points, received, code.multipliers):
        r = F.mul(y, F.inv(m))
        powers = [F.one]
        for _ in range(kappa + tau - 1):
            powers.append(F.mul(powers[-1], x))
        rows.append(powers + [F.neg(F.mul(r, powers[d])) for d in range(tau)])
        rhs.append(F.mul(r, powers[tau]))  # tau < kappa + tau since dim >= 1
    solution = linalg.solve(F, rows, rhs)
    if solution is not None:
        n_coeffs = polyring.normalize(F, solution[: kappa + tau])
        e_coeffs = list(solution[kappa + tau :]) + [F.one]
        message, remainder = polyring.poly_divmod(F, n_coeffs, e_coeffs)
        if not remainder:
            corrected = grs_encode(code, message)
            positions = tuple(i for i, (a, b) in enumerate(zip(corrected, received)) if a != b)
            if len(positions) <= tau:
                return DecodeResult(
                    message_poly=tuple(message),
                    error_positions=positions,
                    corrected_word=corrected,
                )
    raise DecodeFailure(
        f"no codeword within distance {tau} of the received word"
    )


@dataclass
class _OracleTable:
    """Vectorized codeword table for one code (element-index space).

    `buckets[p][v]` lists the rows whose position-p symbol has index v.
    A word within distance tau of the received word must agree with it
    on at least one of the first tau + 1 positions (at most tau can
    differ), so scanning those buckets loses no candidates.
    """

    elements: list
    index: dict
    codewords: np.ndarray  # shape (size^dim, n), dtype uint16
    messages: np.ndarray  # shape (size^dim, dim)
    buckets: list  # [tau + 1][field size] -> (row ids, contiguous subtable)

    @classmethod
    def build(cls, code: GrsCode) -> "_OracleTable":
        F = code.field
        size = F.size
        total = size**code.dim
        if total > ORACLE_MAX_CODEWORDS:
            raise EnumerationTooLarge(
                f"{total} codewords exceed the enumeration guard {ORACLE_MAX_CODEWORDS}"
            )
        if size > ORACLE_MAX_FIELD:
            raise EnumerationTooLarge(f"field size {size} too large to tabulate")
        elements = list(F.elements())
        index = {e: i for i, e in enumerate(elements)}
        add_t = np.empty((size, size), dtype=np.uint16)
        mul_t = np.empty((size, size), dtype=np.uint16)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                add_t[i, j] = index[F.add(a, b)]
                mul_t[i, j] = index[F.mul(a, b)]
        ids = np.arange(total, dtype=np.int64)
        digits = []
        for _ in range(code.dim):
            digits.append((ids % size).astype(np.uint16))
            ids //= size
        # digits[d] is the coefficient of x^d across all messages
        codewords = np.empty((total, code.n), dtype=np.uint16)
        for col, (x, m) in enumerate(zip(code.points, code.multipliers)):
            xi = index[x]
            acc = digits[code.dim - 1]
            for d in range(code.dim - 2, -1, -1):
                acc = add_t[mul_t[acc, xi], digits[d]]
            codewords[:, col] = mul_t[acc, index[m]]
        messages = np.stack(digits, axis=1)
        buckets = []
        for p in range(code.radius + 1):
            per_value = []
            for v in range(size):
                rows = np.flatnonzero(codewords[:, p] == v)
                per_value.append((rows, np.ascontiguousarray(codewords[rows])))
            buckets.append(per_value)
        return cls(
            elements=elements,
            index=index,
            codewords=codewords,
            messages=messages,
            buckets=buckets,
        )


_oracle_cache: dict = {}


def _oracle_table(code: GrsCode) -> _OracleTable:
    table = _oracle_cache.get(code)
    if table is None:
        table = _OracleTable.build(code)
        _oracle_cache[code] = table
    return table


def oracle_decode(code: GrsCode, received, full_scan: bool = False) -> DecodeResult:
    """Exhaustive-enumeration decoder used as the verification oracle.

    Returns the unique codeword within the radius of the received word;
    raises DecodeFailure when none qualifies.  Only feasible for small
    codes (the full codeword table is cached per code).  By default the
    scan is narrowed by the lossless bucket filter described on
    _OracleTable; `full_scan=True` forces the plain linear scan.
    """
    received = tuple(received)
    if len(received) != code.n:
        raise ValueError(f"received word has length {len(received)}, expected {code.n}")
    table = _oracle_table(code)
    rec = np.array([table.index[v] for v in received], dtype=np.uint16)
    hit_rows: set = set()
    if full_scan:
        distances = np.count_nonzero(table.codewords != rec, axis=1)
        hit_rows.update(np.flatnonzero(distances <= code.radius).tolist())
    else:
        for p in range(code.radius + 1):
            rows, subtable = table.buckets[p][int(rec[p])]
            distances = np.count_nonzero(subtable != rec, axis=1)
            hit_rows.update(rows[distances <= code.radius].tolist())
    if not hit_rows:
        raise DecodeFailure(
            f"no codeword within distance {code.radius} of the received word"
        )
    # bounded-distance uniqueness: two hits would contradict the minimum distance
    assert len(hit_rows) == 1, "two codewords inside the unique-decoding radius"
    hit = hit_rows.pop()
    F = code.field
    word = tuple(table.elements[i] for i in table.codewords[hit])
    message = polyring.normalize(F, [table.elements[i] for i in table.messages[hit]])
    positions = tuple(i for i, (a, b) in enumerate(zip(word, received)) if a != b)
    return DecodeResult(
        message_poly=tuple(message),
        error_positions=positions,
        corrected_word=word,
    )


def dual_multipliers(field, alphas, betas):
    """Column multipliers of the dual evaluation code on alphas + betas.

    u_i pairs with the alpha positions and v_j with the beta positions:
    u_i is the inverse of prod_{l != i}(a_i - a_l) * prod_j(a_i - b_j);
    v_j is the inverse of prod_l(b_j - a_l) * prod_{l != j}(b_j - b_l).
    """
    combined = list(alphas) + list(betas)
    if len(set(combined)) != len(combined):
        raise ValueError("evaluation points must be pairwise distinct")
    u = []
    for i, a in enumerate(alphas):
        prod = field.one
        for l, other in enumerate(alphas):
            if l != i:
                prod = field.mul(prod, field.sub(a, other))
        for b in betas:
            prod = field.mul(prod, field.sub(a, b))
        u.append(field.inv(prod))
    v = []
    for j, b in enumerate(betas):
        prod = field.one
        for a in alphas:
            prod = field.mul(prod, field.sub(b, a))
        for l, other in enumerate(betas):
            if l != j:
                prod = field.mul(prod, field.sub(b, other))
        v.append(field.inv(prod))
    return tuple(u), tuple(v)
