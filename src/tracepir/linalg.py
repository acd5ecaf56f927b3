"""Exact Gaussian elimination over a field context.

Matrices are lists of row lists.  Used for the error-locator solve in the
decoder, trace-Gram inversion, and coordinate changes between power
bases; sizes stay small so there is no pivoting strategy beyond "first
nonzero".
"""


def _eliminate(field, aug, ncols: int) -> list:
    """Gauss-Jordan on the first ncols columns of aug, in place.

    Each pivot row is scaled to 1 and its column cleared in every other
    row; a column that is zero in every row not yet holding a pivot is
    skipped.  Returns the pivot columns: row r holds the pivot of column
    pivots[r].
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
        for i in range(m):
            if i != row and aug[i][col] != field.zero:
                f = aug[i][col]
                aug[i] = [field.sub(c, field.mul(f, p)) for c, p in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def solve(field, rows, rhs):
    """One solution of rows * x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
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
