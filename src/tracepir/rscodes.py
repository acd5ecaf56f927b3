"""Reed-Solomon / Generalized Reed-Solomon machinery.

A GRS code is the set of words (m_1 h(x_1), ..., m_n h(x_n)) for message
polynomials h of degree below the dimension.  Decoding is errors-only and
syndrome first.  The n - dim check rows y_i x_i^e, with y_i the inverse
of m_i prod_{l != i}(x_i - x_l), give the syndromes of the received
word; a zero syndrome means the word is a codeword and is returned as it
is.  Otherwise Berlekamp-Massey finds the shortest linear recurrence of
the syndromes, the reversal of its connection polynomial is the error
locator, a Chien search finds its roots among the code points, and one
linear solve on dim unlocated positions gives the message, which is
re-encoded.  ``oracle_decode`` is the brute-force counterpart used to
cross-check the decoder; it enumerates every codeword, so it is guarded
by an enumeration bound.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def check_rows(self) -> tuple:
        """The n - dim parity checks: row e is (y_i x_i^e)_i.

        y_i = 1 / (m_i prod_{l != i}(x_i - x_l)).  For every h of degree
        below dim and e < n - dim, sum_i y_i m_i h(x_i) x_i^e is the
        coefficient of x^(n-1) in the interpolant of h x^e, which is 0.
        """
        F = self.field
        _, v = dual_multipliers(F, (), self.points)
        row = [F.mul(v_i, F.inv(m)) for v_i, m in zip(v, self.multipliers)]
        rows = []
        for _ in range(self.n - self.dim):
            rows.append(tuple(row))
            row = [F.mul(c, x) for c, x in zip(row, self.points)]
        return tuple(rows)


@dataclass(frozen=True)
class DecodeResult:
    """A codeword of ``code`` and the positions where the received word differs."""

    code: GrsCode
    error_positions: tuple
    corrected_word: tuple

    @functools.cached_property
    def message_poly(self) -> tuple:
        """The message of the corrected word, solved on demand from its first dim positions."""
        return _message(self.code, self.corrected_word, range(self.code.dim))


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


def _message(code: GrsCode, word, positions) -> tuple:
    """The h of degree below dim with m_i h(x_i) = word_i at dim positions.

    One Vandermonde solve; the positions are distinct points, so its
    solution is unique.
    """
    F = code.field
    rows, rhs = [], []
    for i in positions:
        power, row = F.one, []
        for _ in range(code.dim):
            row.append(power)
            power = F.mul(power, code.points[i])
        rows.append(row)
        rhs.append(F.mul(word[i], F.inv(code.multipliers[i])))
    return tuple(polyring.normalize(F, linalg.solve(F, rows, rhs)))


def _berlekamp_massey(F, seq) -> tuple:
    """Shortest linear recurrence of seq, as (C, L).

    C[0] = 1, C has degree at most L, and sum_{l <= L} C[l] seq[j - l] = 0
    for every L <= j < len(seq) (Massey 1969).
    """
    conn, prev = [F.one], [F.one]
    length, shift, prev_disc = 0, 1, F.one
    for j, s in enumerate(seq):
        disc = s
        for l in range(1, min(length, len(conn) - 1) + 1):
            disc = F.add(disc, F.mul(conn[l], seq[j - l]))
        if disc == F.zero:
            shift += 1
            continue
        scale = F.mul(disc, F.inv(prev_disc))
        updated = conn + [F.zero] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            updated[i + shift] = F.sub(updated[i + shift], F.mul(scale, c))
        if 2 * length <= j:
            length, prev, prev_disc, shift = j + 1 - length, conn, disc, 1
        else:
            shift += 1
        conn = updated
    return conn, length


def grs_decode(code: GrsCode, received) -> DecodeResult:
    """Bounded-distance decode up to radius tau = floor((n - dim)/2).

    The syndromes are S_e = sum_i y_i r_i x_i^e for e < n - dim (the
    rows of ``code.check_rows``).  A zero syndrome means the word is a
    codeword: it is returned with no error positions, and nothing is
    solved, divided or re-encoded.

    Otherwise write the word as c + err for a codeword c and an error
    err supported on E.  The syndromes depend on err alone:
    S_e = sum_(i in E) Y_i x_i^e with Y_i = y_i err_i nonzero, a
    sequence of linear complexity exactly |E|.  If |E| <= tau, its
    n - dim >= 2|E| terms determine the shortest recurrence uniquely, so
    Berlekamp-Massey returns length L = |E| and the connection
    polynomial C = prod_(i in E, x_i != 0)(1 - x_i z).  The locator is
    the reversal z^L C(1/z) = prod_(i in E)(z - x_i); C itself would
    lose the root of a point x_i = 0.  A Chien search over the n points
    then finds exactly E, the first dim points outside E are clean, one
    solve gives the message of c, and re-encoding gives c.

    So a codeword within tau forces L <= tau and exactly L located
    roots; when either fails, no codeword lies within tau and
    DecodeFailure is raised.  When both hold, the syndromes are those of
    an error on the located positions (its values solve the first L
    syndromes, and the recurrence extends them to the rest), so a
    codeword lies within L <= tau, the clean positions give its message,
    and the re-encoded word is that codeword; the distance check cannot
    fail and stays only as a guard.  Every verdict is therefore the
    bounded-distance decoder's (``oracle_decode``), failures included.
    """
    received = tuple(received)
    if len(received) != code.n:
        raise ValueError(f"received word has length {len(received)}, expected {code.n}")
    F = code.field
    syndromes = [F.dot(row, received) for row in code.check_rows]
    if all(s == F.zero for s in syndromes):
        return DecodeResult(code=code, error_positions=(), corrected_word=received)
    tau = code.radius
    conn, length = _berlekamp_massey(F, syndromes)
    if length <= tau:
        locator = (conn + [F.zero] * length)[length::-1]
        located = [i for i, x in enumerate(code.points)
                   if polyring.poly_eval(F, locator, x) == F.zero]
        if len(located) == length:
            clean = [i for i in range(code.n) if i not in located][: code.dim]
            corrected = grs_encode(code, _message(code, received, clean))
            positions = tuple(i for i, (a, b) in enumerate(zip(corrected, received)) if a != b)
            if len(positions) <= tau:
                return DecodeResult(code=code, error_positions=positions, corrected_word=corrected)
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
    buckets: list  # [tau + 1][field size] -> (row ids, their codewords as (n, rows))

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
        buckets = []
        for p in range(code.radius + 1):
            per_value = []
            for v in range(size):
                rows = np.flatnonzero(codewords[:, p] == v)
                per_value.append((rows, np.ascontiguousarray(codewords[rows].T)))
            buckets.append(per_value)
        return cls(
            elements=elements,
            index=index,
            codewords=codewords,
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
            rows, columns = table.buckets[p][int(rec[p])]
            distances = np.count_nonzero(columns != rec[:, None], axis=0)
            hit_rows.update(rows[distances <= code.radius].tolist())
    if not hit_rows:
        raise DecodeFailure(
            f"no codeword within distance {code.radius} of the received word"
        )
    # bounded-distance uniqueness: two hits would contradict the minimum distance
    assert len(hit_rows) == 1, "two codewords inside the unique-decoding radius"
    hit = hit_rows.pop()
    word = tuple(table.elements[i] for i in table.codewords[hit])
    positions = tuple(i for i, (a, b) in enumerate(zip(word, received)) if a != b)
    return DecodeResult(code=code, error_positions=positions, corrected_word=word)


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
