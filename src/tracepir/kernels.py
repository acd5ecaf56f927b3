"""Arithmetic kernel for F_q and F_{q^s}.

Extension field elements are tuples of ints in [0, q), index d holding
the coefficient of xi^d.  ``red`` is the reduction vector of the monic
construction modulus: the length-s tuple with xi^s == red (as an
element).  Single elements (`ext_mul`, `ext_pow`, `ext_inv`) are
multiplied in plain Python.  `ext_dot`, the sum of products over whole
stacks of elements, is two int64 matrix products through
`linalg.matmul_mod`; it imports numpy where it is used.  `gf` calls these
functions by module attribute, so rebinding one here reaches every
caller; `ext_pow` multiplies through the private `_mul`, so such a
rebound `ext_mul` sees only calls from outside the kernel.  `ext_pow`
is reached only through `ExtField.pow` (setup's theta and alpha powers
among others); `ExtField.frobenius` is a linear map whose matrix
`ext_pow` builds once per field, and it calls no kernel itself.
"""

import functools

from . import linalg


def backend() -> str:
    """Name of the kernel implementation: always "pure" (there is one)."""
    return "pure"


def mod_inv(a: int, q: int) -> int:
    """Inverse of a modulo the prime q."""
    if a % q == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, -1, q)


def _reduce(prod: list, red: tuple, q: int) -> tuple:
    # prod has length 2s-1; fold degrees >= s down using xi^s == red.
    s = len(red)
    for d in range(2 * s - 2, s - 1, -1):
        c = prod[d] % q
        if c:
            base = d - s
            for j, rj in enumerate(red):
                if rj:
                    prod[base + j] = (prod[base + j] + c * rj) % q
    return tuple(c % q for c in prod[:s])


def _mul(a: tuple, b: tuple, red: tuple, q: int) -> tuple:
    s = len(red)
    if s == 1:
        return ((a[0] * b[0]) % q,)
    prod = [0] * (2 * s - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return _reduce(prod, red, q)


def ext_mul(a: tuple, b: tuple, red: tuple, q: int) -> tuple:
    s = len(red)
    if len(a) != s or len(b) != s:
        raise ValueError("element length does not match field degree")
    return _mul(a, b, red, q)


def ext_pow(a: tuple, e: int, red: tuple, q: int) -> tuple:
    if e < 0:
        raise ValueError("negative exponent")
    s = len(red)
    if len(a) != s:
        raise ValueError("element length does not match field degree")
    out = (1,) + (0,) * (s - 1)
    base = tuple(c % q for c in a)
    while e:
        if e & 1:
            out = _mul(out, base, red, q)
        base = _mul(base, base, red, q)
        e >>= 1
    return out


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def ext_inv(a: tuple, red: tuple, q: int) -> tuple:
    """Inverse of a modulo f = xi^s - sum_j red_j xi^j, by extended Euclid.

    Polynomials are coefficient lists over F_q, lowest degree first.  Each
    remainder r_i satisfies r_i == u_i * a (mod f); when a remainder is a
    nonzero constant c, u_i / c is the inverse.  A remainder of zero means
    gcd(a, f) is not constant, which an irreducible f rules out for a != 0.
    """
    s = len(red)
    if len(a) != s:
        raise ValueError("element length does not match field degree")
    r0, r1 = [-c % q for c in red] + [1], _trim([c % q for c in a])
    u0, u1 = [], [1]
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    while len(r1) > 1:
        # r0 = quot * r1 + rem, by long division
        top = len(r1) - 1
        lead_inv = pow(r1[top], -1, q)
        rem = list(r0)
        quot = [0] * (len(r0) - top)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + top] * lead_inv % q
            quot[i] = c
            if c:
                for j in range(top):
                    rem[i + j] = (rem[i + j] - c * r1[j]) % q
        # u_next = u0 - quot * u1
        u_next = [0] * (len(quot) + len(u1) - 1)
        for i, ci in enumerate(quot):
            if ci:
                for j, uj in enumerate(u1):
                    u_next[i + j] -= ci * uj
        for i, ui in enumerate(u0):
            u_next[i] += ui
        r0, r1 = r1, _trim(rem[:top])
        u0, u1 = u1, [c % q for c in u_next]
        if not r1:
            raise ZeroDivisionError(f"{a} is not a unit modulo the construction modulus")
    scale = pow(r1[0], -1, q)
    return tuple(c * scale % q for c in u1) + (0,) * (s - len(u1))


def ext_dot(xs, ys, red: tuple, q: int):
    """Sum over n of xs[n] * ys[n], as two modular int64 matrix products.

    xs and ys are (..., n, s) stacks of elements with entries in [0, q)
    whose leading axes broadcast.  One product xs^T ys gives the s x s
    coefficient products, entry (i, j) the coefficient of xi^i * xi^j,
    and one product with `_fold_table` reduces them through the modulus.
    Lists of tuples, or two 2-D operands, give one element tuple; a stack
    gives an (..., s) int64 array.  `linalg.matmul_mod` sums in chunks
    short enough for int64, so the result is exact for every q < 2^31.
    """
    import numpy as np

    s = len(red)
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    if xs.shape == (0,):  # an empty list
        xs = xs.reshape(0, s)
    if ys.shape == (0,):
        ys = ys.reshape(0, s)
    if xs.shape[-1] != s or ys.shape[-1] != s:
        raise ValueError("element length does not match field degree")
    products = linalg.matmul_mod(xs.swapaxes(-1, -2), ys, q)
    out = linalg.matmul_mod(products.reshape(*products.shape[:-2], s * s), _fold_table(red, q), q)
    return tuple(out.tolist()) if out.ndim == 1 else out


@functools.lru_cache(maxsize=None)
def _fold_table(red: tuple, q: int):
    """Read-only (s*s, s) int64 array: row i*s + j holds xi^(i+j) reduced."""
    import numpy as np

    s = len(red)
    units = [tuple(int(a == d) for d in range(s)) for a in range(s)]
    table = np.array([_mul(a, b, red, q) for a in units for b in units], dtype=np.int64)
    table.flags.writeable = False
    return table
