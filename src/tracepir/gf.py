"""Two-level finite-field tower F_q < F_{q^s} with exact arithmetic.

Fields act as arithmetic contexts rather than element wrappers: a
PrimeField element is a plain int in [0, q) and an ExtField element is a
length-s tuple of ints (index d = coefficient of xi^d with respect to the
construction modulus).  Their arithmetic is `kernels`: plain Python on
single elements, and int64 matrix products for `ExtField.dot` over whole
stacks of elements.  Both classes also give the two row operations of
`linalg`'s list elimination, `scale_row` and `sub_row_multiple`: over
F_q a list comprehension on ints with one `% q` per entry, over F_{q^s}
the element arithmetic entry by entry.

Bulk data (databases, blinding arrays, queries in `pir`) is stored
instead as int64 numpy arrays whose last axis holds the s coefficients of
an extension element, index d for xi^d as in the tuples.  Sums of
products over them go through `linalg.matmul_mod`: with entries in [0, q)
one product is at most (q-1)^2, so a chunk of (2^63 - 1) // (q-1)^2 terms
is summed before each reduction mod q.  That is exact for every
q <= MAX_PRIME; at q near 2^31 a chunk is two terms.

Also provides the trace map, deterministic irreducible-polynomial search,
minimal polynomials, and trace-orthogonal dual bases.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import kernels, linalg, polyring

MAX_FIELD_SIZE = 2**32  # larger towers are out of scope
MAX_PRIME = 2**31  # keeps intermediate products inside int64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class SingularBasisError(ValueError):
    """Proposed basis is linearly dependent over the base field."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


class PrimeField:
    """The base field F_q for prime q; elements are ints in [0, q)."""

    def __init__(self, q: int):
        q = linalg.check_int(q, "modulus", 2, constraint="q")
        if q > MAX_PRIME:
            raise ValueError(f"modulus {q} exceeds the 2^31 safety bound")
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.q = q
        self.size = q
        self.zero = 0
        self.one = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        return kernels.mod_inv(a, self.q)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.q)

    def scale_row(self, c: int, row) -> list:
        """c times every entry of row: one product and one % q per entry."""
        q = self.q
        return [c * x % q for x in row]

    def sub_row_multiple(self, row, f: int, pivot) -> list:
        """row - f * pivot, entry by entry: one % q per entry."""
        q = self.q
        return [(x - f * p) % q for x, p in zip(row, pivot)]

    def elements(self):
        return range(self.q)

    def validate(self, a) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise FieldMismatchError(f"{a!r} is not a canonical element of {self}")
        return a

    def format_element(self, a: int) -> str:
        return str(a)

    def parse_element(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"bad field element {text!r}") from None
        return self.validate(value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"


class ExtField:
    """Extension F_{q^s} = F_q[xi]/(modulus); elements are length-s tuples.

    The modulus must be monic, of degree exactly s, and irreducible over
    the base field (verified at construction).  When s = 1 the arithmetic
    coincides with the base field on 1-tuples.
    """

    def __init__(self, base: PrimeField, s: int, modulus):
        if s < 1:
            raise ValueError("extension degree must be >= 1")
        if base.q**s > MAX_FIELD_SIZE:
            raise ValueError(f"field size {base.q}^{s} exceeds 2^32")
        mod = tuple(int(c) % base.q for c in modulus)
        if len(mod) != s + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree exactly s")
        if not rabin_irreducible(base, list(mod)):
            raise ValueError("modulus is not irreducible over the base field")
        self.base = base
        self.q = base.q
        self.s = s
        self.modulus = mod
        self.size = base.q**s
        # xi^s == red as an element: the reduction vector used by kernels
        self._red = tuple(-c % base.q for c in mod[:s])
        self.zero = (0,) * s
        self.one = (1,) + (0,) * (s - 1)

    def embed(self, c: int) -> tuple:
        """Lift a base-field element into the extension."""
        return (c % self.q,) + (0,) * (self.s - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b, strict=True))

    def sub(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b, strict=True))

    def neg(self, a: tuple) -> tuple:
        q = self.q
        return tuple(-x % q for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return kernels.ext_mul(a, b, self._red, self.q)

    def inv(self, a: tuple) -> tuple:
        return kernels.ext_inv(a, self._red, self.q)

    def pow(self, a: tuple, e: int) -> tuple:
        return kernels.ext_pow(a, e, self._red, self.q)

    def scale_row(self, c: tuple, row) -> list:
        """c times every entry of row."""
        return [self.mul(c, x) for x in row]

    def sub_row_multiple(self, row, f: tuple, pivot) -> list:
        """row - f * pivot, entry by entry."""
        return [self.sub(x, self.mul(f, p)) for x, p in zip(row, pivot)]

    def scalar_mul(self, c: int, a: tuple) -> tuple:
        q = self.q
        return tuple(c * x % q for x in a)

    def dot(self, xs, ys):
        """Sum of pairwise products (the Frobenius inner product, flattened).

        Sequences of element tuples give one tuple; (..., n, s) int64
        stacks broadcast and give an (..., s) array (`kernels.ext_dot`).
        """
        return kernels.ext_dot(xs, ys, self._red, self.q)

    def frobenius(self, a: tuple) -> tuple:
        """a^q, as a linear map: the F_q-linear sum of a_d * (xi^d)^q.

        In characteristic q, (sum_d a_d xi^d)^q = sum_d a_d (xi^d)^q, so
        the Frobenius is the s x s matrix `_frobenius_rows` over F_q and
        costs s^2 products instead of a square-and-multiply in F_{q^s}.
        """
        q = self.q
        acc = [0] * self.s
        for c, row in zip(a, self._frobenius_rows, strict=True):
            for d, x in enumerate(row):
                acc[d] += c * x
        return tuple(c % q for c in acc)

    @functools.cached_property
    def _frobenius_rows(self) -> tuple:
        """(xi^d)^q = (xi^q)^d for d < s (row 0 is 1, also when s = 1)."""
        xq = self.pow(tuple(int(d == 1) for d in range(self.s)), self.q)
        return tuple(self.pow(xq, d) for d in range(self.s))

    def trace(self, a: tuple) -> int:
        """Tr(a) = sum of a^{q^i} for i < s; always a base-field element.

        The trace is F_q-linear, so it is the dot product of a's
        coefficients with (Tr(xi^0), ..., Tr(xi^(s-1))).
        """
        return sum(c * t for c, t in zip(a, self._trace_form, strict=True)) % self.q

    @functools.cached_property
    def _trace_form(self) -> tuple:
        """Tr(xi^d) for d < s, each summed over the s Frobenius powers."""
        form = []
        for d in range(self.s):
            acc = power = tuple(int(i == d) for i in range(self.s))
            for _ in range(self.s - 1):
                power = self.frobenius(power)
                acc = self.add(acc, power)
            if any(acc[1:]):
                raise ArithmeticError(
                    f"trace of xi^{d} left the base field; construction modulus is broken"
                )
            form.append(acc[0])
        return tuple(form)

    def eval_base_poly(self, coeffs, x: tuple) -> tuple:
        """Evaluate a base-field polynomial at an extension point."""
        return polyring.poly_eval(self, [self.embed(c) for c in coeffs], x)

    def elements(self):
        """All elements in lexicographic coefficient order (c_0 major)."""
        return itertools.product(range(self.q), repeat=self.s)

    def validate(self, a) -> tuple:
        if (
            not isinstance(a, tuple)
            or len(a) != self.s
            or any(not isinstance(c, int) or not 0 <= c < self.q for c in a)
        ):
            raise FieldMismatchError(f"{a!r} is not a canonical element of {self}")
        return a

    def format_element(self, a: tuple) -> str:
        return ":".join(str(c) for c in a)

    def parse_element(self, text: str) -> tuple:
        parts = text.split(":")
        try:
            value = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad field element {text!r}") from None
        return self.validate(value)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.q == self.q
            and other.s == self.s
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.q, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"GF({self.q})[xi]/(deg 1)"
        return f"GF({self.q}^{self.s})"


@dataclass(frozen=True)
class DualBasisPair:
    """Bases {theta_d} and {eta_d} with Tr(theta_i * eta_j) = delta_ij."""

    theta: tuple
    eta: tuple


class FieldTower:
    """A base field and one extension of it."""

    def __init__(self, base: PrimeField, ext: ExtField):
        if ext.base != base:
            raise FieldMismatchError("extension is not built on the given base field")
        self.base = base
        self.ext = ext
        self.q = base.q
        self.s = ext.s

    def describe(self) -> str:
        mod = ":".join(str(c) for c in self.ext.modulus)
        return f"q={self.q};s={self.s};mod={mod}"

    def __eq__(self, other):
        return isinstance(other, FieldTower) and other.ext == self.ext

    def __hash__(self):
        return hash(("FieldTower", self.ext))

    def __repr__(self):
        return f"FieldTower({self.describe()})"


def _squarefree_prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _mobius(n: int) -> int:
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    if n > 1:
        sign = -sign
    return sign


def irreducible_count(q: int, s: int) -> int:
    """Number of monic irreducible degree-s polynomials over F_q (Moebius)."""
    total = 0
    for d in range(1, s + 1):
        if s % d == 0:
            total += _mobius(s // d) * q**d
    return total // s


def rabin_irreducible(base: PrimeField, poly) -> bool:
    """Deterministic irreducibility test for a monic polynomial over F_q.

    Checks xi^{q^s} == xi mod f together with gcd(xi^{q^{s/p}} - xi, f) = 1
    for every prime p dividing s (Rabin, 1980).  The powers xi^{q^i} come
    from `polyring.frobenius_powers`: one square-and-multiply for xi^q,
    then one F_q matrix-vector product per further power.
    """
    poly = polyring.normalize(base, list(poly))
    s = polyring.degree(poly)
    if s < 1:
        return False
    if s == 1:
        return True
    xi = [0, 1]
    powers = polyring.frobenius_powers(base, poly, s)
    for p in _squarefree_prime_divisors(s):
        h = polyring.poly_sub(base, powers[s // p], xi)
        if polyring.degree(polyring.poly_gcd(base, h, poly)) != 0:
            return False
    return polyring.poly_sub(base, powers[s], xi) == []


def find_irreducibles(base: PrimeField, s: int, count: int) -> list:
    """First `count` monic irreducible degree-s polynomials over F_q.

    Scanned in lexicographic order of the coefficient vector
    (c_0, ..., c_{s-1}), c_0 major; deterministic, so every derived
    artifact is reproducible without seeds.  For s >= 2 the scan starts
    at c_0 = 1: x divides every polynomial with c_0 = 0, so skipping
    them leaves the list unchanged and saves q^(s-1) Rabin tests.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    available = irreducible_count(base.q, s)
    if count > available:
        raise ValueError(
            f"only {available} monic irreducible polynomials of degree {s} "
            f"exist over GF({base.q}), {count} requested"
        )
    candidates = (
        (c0, *tail, 1)
        for c0 in range(1 if s >= 2 else 0, base.q)
        for tail in itertools.product(range(base.q), repeat=s - 1)
    )
    irreducible = (poly for poly in candidates if rabin_irreducible(base, poly))
    return list(itertools.islice(irreducible, count))


def minimal_poly(ext: ExtField, alpha: tuple) -> tuple:
    """Monic lowest-degree base-field polynomial vanishing at alpha.

    Computed as the product of (xi - c) over the distinct Frobenius
    conjugates c of alpha; the degree always divides s.
    """
    conjugates = [alpha]
    current = ext.frobenius(alpha)
    while current != alpha:
        conjugates.append(current)
        current = ext.frobenius(current)
    product = polyring.from_roots(ext, conjugates)
    coeffs = []
    for c in product:
        if any(c[1:]):
            raise ArithmeticError("conjugate product has non-base coefficients")
        coeffs.append(c[0])
    return tuple(coeffs)


def dual_basis(ext: ExtField, theta) -> DualBasisPair:
    """Trace-orthogonal dual of a basis of F_{q^s} over F_q.

    Inverts the Gram matrix G_ij = Tr(theta_i * theta_j), by solving it
    against the identity, and forms eta_j = sum_i (G^{-1})_ij theta_i,
    which gives Tr(theta_i * eta_j) = delta_ij.
    """
    import numpy as np

    theta = tuple(theta)
    if len(theta) != ext.s:
        raise SingularBasisError(f"need exactly {ext.s} basis elements")
    gram = [[ext.trace(ext.mul(ti, tj)) for tj in theta] for ti in theta]
    inverses, invertible = linalg.solve_stacked(
        ext.q, np.array([gram], dtype=np.int64), np.eye(ext.s, dtype=np.int64)[None]
    )
    if not invertible[0]:
        raise SingularBasisError("basis is linearly dependent (singular trace Gram matrix)")
    inverse = inverses[0].tolist()
    eta = []
    for j in range(ext.s):
        acc = ext.zero
        for i in range(ext.s):
            acc = ext.add(acc, ext.scalar_mul(inverse[i][j], theta[i]))
        eta.append(acc)
    return DualBasisPair(theta=theta, eta=tuple(eta))
