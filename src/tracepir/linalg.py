"""Exact linear algebra over a field context, and exact int64 matrix products mod q.

Matrices for elimination are lists of row lists.  Used for the message
solve in the decoder, trace-Gram inversion, and coordinate changes
between power bases; sizes stay small so there is no pivoting strategy
beyond "first nonzero".  Over a prime field the right-hand side may hold
int64 arrays instead of ints: the field operations act elementwise, so
one elimination solves the system for every column of the arrays at once.

`matmul_mod` is the one modular product of int64 arrays that every
layer shares (the query curve, the answers, syndromes, the Chien search
and the file rebuild).
"""

INT64_MAX = 2**63 - 1


def matmul_mod(a, b, q: int):
    """a @ b mod q for int64 arrays with entries in [0, q), computed exactly.

    Stacked operands broadcast as in ``a @ b``; the inner axis is a's last
    and b's only (1-D b) or second-to-last.  It is split into chunks short
    enough that no partial sum leaves int64; each chunk is reduced before
    it is added.  That is exact for every q <= 2^31, where a chunk is two
    terms.  The result is reduced in place.
    """
    step = INT64_MAX // max((q - 1) ** 2, 1)
    inner = a.shape[-1]
    if inner <= step:
        out = a @ b
        out %= q
        return out

    def part(start):
        rows = slice(start, start + step)
        return a[..., rows] @ (b[rows] if b.ndim == 1 else b[..., rows, :])

    out = part(0)
    out %= q
    for start in range(step, inner, step):
        chunk = part(start)
        chunk %= q
        out += chunk
        out %= q
    return out


def _eliminate(field, aug, ncols: int) -> list:
    """Gauss-Jordan on the first ncols columns of aug, in place.

    Each pivot row is scaled to 1 and its column cleared in every other
    row; a column that is zero in every row not yet holding a pivot is
    skipped.  Returns the pivot columns: row r holds the pivot of column
    pivots[r].

    A row not yet holding a pivot is zero left of the current column:
    each earlier column was either cleared in it or skipped, and the
    pivot rows subtracted from it since were zero there too.  So the new
    pivot row is zero there, and the other rows are updated only from
    the pivot column on.
    """
    m = len(aug)
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, m):
            if aug[i][col] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = field.inv(aug[row][col])
        aug[row] = [field.mul(inv, c) for c in aug[row]]
        tail = aug[row][col:]
        for i in range(m):
            if i != row and aug[i][col] != field.zero:
                f = aug[i][col]
                aug[i][col:] = [field.sub(c, field.mul(f, p)) for c, p in zip(aug[i][col:], tail)]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def solve(field, rows, rhs):
    """One solution of rows * x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.  A right-hand side of
    int64 arrays (prime field only) needs a square invertible system.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(rows[0]) if m else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = _eliminate(field, aug, ncols)
    if any(aug[i][ncols] != field.zero for i in range(len(pivots), m)):
        return None
    x = [field.zero] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return x


def invert(field, rows):
    """Matrix inverse, or None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    if len(_eliminate(field, aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def is_invertible(field, rows) -> bool:
    return invert(field, rows) is not None


def mat_vec(field, rows, vec):
    out = []
    for row in rows:
        acc = field.zero
        for c, v in zip(row, vec):
            acc = field.add(acc, field.mul(c, v))
        out.append(acc)
    return out
