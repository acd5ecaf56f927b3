"""Dense polynomial helpers over any field context.

A polynomial is a plain Python list of field elements, lowest degree
first, normalized so the last entry is nonzero; the zero polynomial is
the empty list.  Every function takes the field context as its first
argument, so the same code serves base-field polynomials (int
coefficients) and extension-field polynomials (tuple coefficients).
"""


def normalize(field, coeffs):
    out = list(coeffs)
    while out and out[-1] == field.zero:
        out.pop()
    return out


def degree(coeffs) -> int:
    """Degree of a normalized polynomial; -1 for the zero polynomial."""
    return len(coeffs) - 1


def poly_sub(field, a, b):
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = field.sub(out[i], c)
    return normalize(field, out)


def poly_scale(field, c, a):
    if c == field.zero:
        return []
    return normalize(field, [field.mul(c, x) for x in a])


def poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return normalize(field, out)


def poly_eval(field, coeffs, x):
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [field.zero] * max(len(a) - len(b) + 1, 0)
    top = len(b) - 1
    monic_divisor = b[top] == field.one
    inv_lead = field.one if monic_divisor else field.inv(b[top])
    for i in range(len(rem) - len(b), -1, -1):
        factor = rem[i + top] if monic_divisor else field.mul(rem[i + top], inv_lead)
        if factor == field.zero:
            continue
        quo[i] = factor
        rem[i + top] = field.zero  # factor * b[top] cancels it exactly
        for j in range(top):
            rem[i + j] = field.sub(rem[i + j], field.mul(factor, b[j]))
    return normalize(field, quo), normalize(field, rem)


def poly_mod(field, a, b):
    return poly_divmod(field, a, b)[1]


def monic(field, a):
    if not a:
        return []
    if a[-1] == field.one:
        return list(a)
    return poly_scale(field, field.inv(a[-1]), a)


def poly_gcd(field, a, b):
    a, b = normalize(field, a), normalize(field, b)
    while b:
        a, b = b, poly_mod(field, a, b)
    return monic(field, a)


def poly_powmod(field, base, e: int, mod):
    """base^e reduced modulo mod, square-and-multiply.

    The first set bit takes the square as it is and the top bit squares
    no further, so e costs bit_length - 1 squarings and popcount - 1
    multiplications.
    """
    if e < 0:
        raise ValueError("negative exponent")
    result = None
    base = poly_mod(field, base, mod)
    while e:
        if e & 1:
            result = base if result is None else poly_mod(field, poly_mul(field, result, base), mod)
        e >>= 1
        if e:
            base = poly_mod(field, poly_mul(field, base, base), mod)
    return [field.one] if result is None else result


def frobenius_powers(field, f, count: int):
    """x^(q^i) mod f for i = 0..count, for f over the prime field F_q.

    The q-power map is F_q-linear: h^q = sum_d h_d x^(q*d) because every
    h_d in F_q satisfies h_d^q = h_d.  So x^q mod f (square-and-multiply)
    and its first deg f powers are the rows of the map's matrix, and each
    further power costs one matrix-vector product over F_q, in place of
    about 2*log2(q) polynomial products (von zur Gathen and Shoup,
    "Computing Frobenius Maps and Factoring Polynomials", 1992).
    """
    n = degree(f)
    if n < 1:
        raise ValueError("modulus must have degree >= 1")
    q = field.q
    xq = poly_powmod(field, [0, 1], q, f)
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(poly_mod(field, poly_mul(field, rows[-1], xq), f))
    powers = [poly_mod(field, [0, 1], f)]
    for _ in range(count):
        acc = [0] * n
        for c, row in zip(powers[-1], rows):
            for d, x in enumerate(row):
                acc[d] += c * x
        powers.append(normalize(field, [c % q for c in acc]))
    return powers


def from_roots(field, roots):
    """Monic polynomial with exactly the given roots (with multiplicity)."""
    out = [field.one]
    for r in roots:
        out = poly_mul(field, out, [field.neg(r), field.one])
    return out
