"""Exact linear algebra over a field context, and exact int64 matrix products mod q.

`_forward` is the one elimination kernel: a stack of int64 matrices over
a prime field, forward-eliminated at once as array operations.  At each
column every system takes a pivot row and replaces each row r by
p * r - r_c * pivot row mod q (fraction-free, after Bareiss, Math. Comp.
1968); the pivot row clears itself, so there is no row swap, and its
copy from before the update goes to an upper-echelon stack.  The update
is exact for q < 2^31: both products lie in [0, (q-1)^2], so their
difference fits int64, and it is reduced before the next column.
`rank_stacked` is that pass alone, for any (G, n, c) stack; the
transfer-matrix audit is one call of it.  `solve_stacked` adds one
vectorised Fermat inverse of the diagonal and back substitution; setup,
`gf.dual_basis`, the decoder's batch error-value step (tau x tau
systems) and a code's cached `interpolation` inverse run on it.  Against
the row-swapping Gauss-Jordan solve it replaced (in-process,
interleaved, p25 of 3,000 rounds on one CPU of a 2-CPU x86-64 host): 17
stacked 4 x 4 invertibility tests took 58 us against 88 us, the
transfer-matrix audit of (17,1,2,8) 89 us against 121 us, 20 stacked
2 x 2 solves over GF(17) 58 us against 68 us, and one 13 x 13 solve
225 us against 259 us.

The list form, `solve` on row lists over either field class, serves the
decoder's lone dirty word (an L x L error-value system, L <= tau) and
`rscodes._message` (`message_poly`, dim x dim, also over F_{q^s} codes).
It eliminates to echelon form by the field's row operations,
`scale_row` and `sub_row_multiple`, one call per row (plain int list
comprehensions, one `% q` per entry, over a prime field), and back
substitutes: one 2 x 2 system over GF(11) took 6 us there against 34 us
in the kernel, one 7 x 7 system 40 us against 91 us, and one 13 x 13
system over GF(17) 144 us against 175 us (best of 21 x 1000 calls).

`matmul_mod` is the one modular product of int64 arrays that every
layer shares (the query curve, the answers, syndromes, the Chien search
and the file rebuild), and `integer_array`, with `field_array` adding
the range, is the one check that turns caller input into int64
operands.  `check_int` is its scalar half, the one rule for an integer
argument, a server id or a seed in every module, and `check_server_ids`
applies it to a tuple of server ids.

`reduce_mod` is the one in-place reduction mod q of every int64 layer:
the products, the elimination, the decoder's recurrence and its
corrections.  numpy's ``%`` costs one hardware division per int64
entry, while ``//`` by a scalar is one multiply and one shift, so an
array of REDUCE_DIVIDE_MIN entries or more is reduced as a -= q (a // q),
one slab of about REDUCE_SLAB entries at a time, and a smaller one by
``%=``, whose single call wins there.  In place of int64 entries mod 11
(best of 7 x 2,000 calls, one CPU of a 2-CPU x86-64 host), ``%=``
against the division form took 0.9 against 1.7 us at 64 entries, 2.4
against 2.3 us at 512, 4.1 against 2.9 us at 1,024 and 89 against 29 us
at 22,000.
"""

import numpy as np

INT64_MAX = 2**63 - 1
REDUCE_DIVIDE_MIN = 512  # entries from which `reduce_mod` divides; measured crossover
REDUCE_SLAB = 4096  # entries `reduce_mod` divides per slab of leading rows


class InvalidParameters(ValueError):
    """A scheme constraint is violated; `constraint` names the inequality."""

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


def check_int(value, name: str, low=None, high=None, constraint: str | None = "integer") -> int:
    """`value` as a Python int, by the one rule for an integer argument.

    An integer argument, a server id or a seed, is a Python int or a
    numpy integer, never a bool (True == 1 would run as 1 and be reported
    as true) nor a float, even a whole one, within [low, high] (a missing
    bound is open).  It is returned as an int, so no numpy scalar reaches
    a report or a cache key.  A refusal names the argument and its range:
    InvalidParameters(constraint), or IndexError where `constraint` is
    None (a file index or a server id).  Every public entry point calls
    it before any draw, allocation or database read.
    """
    if (isinstance(value, int) and not isinstance(value, bool)) or isinstance(value, np.integer):
        if (low is None or low <= value) and (high is None or value <= high):
            return int(value)
    bounds = f" in [{low}, {high}]" if high is not None else "" if low is None else f" >= {low}"
    message = f"{name} {value!r} is not an integer{bounds}"
    raise IndexError(message) if constraint is None else InvalidParameters(constraint, message)


def check_server_ids(ids, k: int, constraint: str | None = None) -> tuple:
    """`ids` as a tuple of Python ints in [1, k], each by ``check_int``'s rule.

    Ids that are all of type int in range, as a session's are, pass in
    one pass; any other id goes through ``check_int``, whose verdict and
    message are the refusal.  Duplicates are the caller's to refuse.
    """
    ids = tuple(ids)
    if all(type(j) is int and 1 <= j <= k for j in ids):
        return ids
    return tuple(check_int(j, "server id", 1, k, constraint) for j in ids)


def integer_array(values, what: str):
    """values as an int64 array of integers; ValueError otherwise.

    The values must form a regular array of integers: a ragged nesting,
    or a float, complex, object or string dtype, is refused rather than
    cast, so 3.5 is not read as 3, and an unsigned entry past int64 is
    refused rather than wrapped.  An empty array passes whatever its
    dtype.  An int64 array comes back as it is, not copied.
    """
    try:
        array = np.asarray(values)
    except (ValueError, TypeError):
        raise ValueError(f"{what}: not a regular array of integers") from None
    kind = array.dtype.kind
    if array.size and kind not in "iu":
        raise ValueError(f"{what}: entries of dtype {array.dtype} are not integers")
    if kind == "u" and array.size and array.max() > INT64_MAX:
        raise ValueError(f"{what}: entries outside int64")
    return array.astype(np.int64, copy=False)


def field_array(values, q: int, what: str):
    """values as an int64 array with entries in [0, q); ValueError otherwise.

    The values must pass `integer_array`.  The shape is the caller's to
    check.
    """
    array = integer_array(values, what)
    # read as unsigned, a negative entry is at least 2^63: one pass checks both ends.
    # The ufunc's own reduce skips the method's dispatch, a third of a small check
    if array.size and np.maximum.reduce(array.view(np.uint64), axis=None) >= q:
        raise ValueError(f"{what}: entries outside [0, {q})")
    return array


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
        return reduce_mod(a @ b, q)

    def part(start):
        rows = slice(start, start + step)
        return a[..., rows] @ (b[rows] if b.ndim == 1 else b[..., rows, :])

    out = reduce_mod(part(0), q)
    for start in range(step, inner, step):
        out += reduce_mod(part(start), q)
        out = reduce_mod(out, q)  # a 1-D a @ 1-D b is a scalar, reduced out of place
    return out


def reduce_mod(a, q: int):
    """a mod q in place for an int64 array a, entries of either sign; returns a.

    Exact for every entry of magnitude below 2^63 - q; every caller stays
    below 2^62.  Below REDUCE_DIVIDE_MIN entries it is ``a %= q``.  From
    there on each slab of leading rows, about REDUCE_SLAB entries, becomes
    a - q (a // q): numpy's floor division rounds toward minus infinity,
    so q (a // q) lies in (a - q, a], which keeps it inside int64, and the
    result lies in [0, q), as ``%`` gives.  A slab along axis 0 is a view
    whatever a's layout, so a transposed or sliced a is reduced in place
    too, and the quotient of one slab reuses the heap memory of the last
    where one temporary of the whole array would be fresh pages.
    """
    if a.size < REDUCE_DIVIDE_MIN or not a.ndim:  # a 0-d array has no rows to slice
        a %= q
        return a
    rows = max(1, REDUCE_SLAB * len(a) // max(a.size, 1))
    for start in range(0, len(a), rows):
        slab = a[start : start + rows]
        quotient = slab // q
        quotient *= q
        slab -= quotient
    return a


def _eliminate(field, aug, ncols: int) -> list:
    """Row echelon form of the first ncols columns of aug, in place.

    Each pivot row is scaled to 1 and its column cleared in the rows
    below it, by the field's row operations (`scale_row`,
    `sub_row_multiple`), one call per row; a column that is zero in
    every row not yet holding a pivot is skipped.  Returns the pivot
    columns: row r holds the pivot of column pivots[r], and the rows from
    len(pivots) on are zero in the first ncols columns.

    A row not yet holding a pivot is zero left of the current column:
    each earlier column was either cleared in it or skipped, and the
    pivot rows subtracted from it since were zero there too.  So the new
    pivot row is zero there, and the rows below are updated only from the
    pivot column on.
    """
    m = len(aug)
    zero, scale_row, sub_row_multiple = field.zero, field.scale_row, field.sub_row_multiple
    pivots = []
    row = 0
    for col in range(ncols):
        for pivot in range(row, m):
            if aug[pivot][col] != zero:
                break
        else:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        tail = scale_row(field.inv(aug[row][col]), aug[row][col:])
        aug[row][col:] = tail
        for other in aug[row + 1 :]:
            if other[col] != zero:
                other[col:] = sub_row_multiple(other[col:], other[col], tail)
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def solve(field, rows, rhs):
    """One solution of rows * x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.  `_eliminate` brings
    the augmented rows to echelon form and back substitution reads x off
    them, last pivot first.  An int64 array `rows` is a stack of square
    systems over a prime field instead, solved by ``solve_stacked``; a
    singular one among them raises ValueError.
    """
    if hasattr(rows, "ndim"):
        solution, invertible = solve_stacked(field.q, rows, rhs)
        if not invertible.all():
            raise ValueError("singular system in the stack")
        return solution
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(rows[0]) if m else 0
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = _eliminate(field, aug, ncols)
    if any(aug[i][ncols] != field.zero for i in range(len(pivots), m)):
        return None
    x = [field.zero] * ncols
    for r in reversed(range(len(pivots))):
        value = aug[r][ncols]
        for col in pivots[r + 1 :]:  # a free variable is zero and drops out
            value = field.sub(value, field.mul(aug[r][col], x[col]))
        x[pivots[r]] = value
    return x


def _forward(q: int, aug, ncols: int):
    """Forward-eliminate the first ncols columns of a (G, n, w) int64 stack, in place.

    Returns the (G, ncols, w) upper-echelon stack of its pivot rows, with
    the pivots on its diagonal: a zero diagonal entry is a column with no
    pivot, so the rank is the count of nonzero ones.  At column c each
    system takes its row with the largest entry there as its pivot row,
    stored as row c as it is before the update, and every row r becomes
    p * r - r_c * pivot row mod q, with p the pivot.  The pivot row
    clears itself, so a used row drops out as zero with no swap, and the
    rows not yet used keep zeros left of c.  A system with no pivot at c
    is zero there and is scaled by 1, so it keeps its rank.
    """
    count, height, width = aug.shape
    every = np.arange(count)
    upper = np.zeros((count, ncols, width), dtype=np.int64)
    for col in range(ncols if height else 0):
        column = aug[:, :, col]
        pivot = column.argmax(axis=1)
        pivot_rows = aug[every, pivot]
        upper[:, col] = pivot_rows
        update = column[:, :, None] * pivot_rows[:, None, :]
        aug *= np.maximum(pivot_rows[:, col], 1)[:, None, None]
        aug -= update
        reduce_mod(aug, q)
    return upper


def rank_stacked(q: int, rows):
    """The (G,) int64 ranks over GF(q) of a (G, n, c) int64 stack with entries in [0, q).

    Any shape: square, tall, wide, singular, and G, n or c zero.  The
    forward pass of `_forward` on a copy, with no inverse taken.
    """
    if rows.ndim != 3:
        raise ValueError(f"a stack of matrices has three axes, not shape {rows.shape}")
    columns = np.arange(rows.shape[2])
    upper = _forward(q, rows.astype(np.int64), len(columns))
    return np.count_nonzero(upper[:, columns, columns], axis=1)


def solve_stacked(q: int, rows, rhs):
    """(X, invertible) for a (G, n, n) stack of systems and a (G, n, W) rhs mod q.

    Entries lie in [0, q).  invertible is a (G,) bool mask, true where
    the system has rank n; there X[g] is the (n, W) int64 solution of
    rows[g] @ X[g] = rhs[g].  Where it is false, X[g] has entries in
    [0, q) and no meaning.  W may be 0, which tests invertibility alone:
    the solve then stops after the forward pass.

    `_forward` eliminates the augmented rows into an upper-echelon stack.
    One vectorised Fermat power d^(q-2) of its diagonal scales each row
    to a unit pivot, and back substitution clears the columns above the
    diagonal, last first, leaving X in place of the right-hand side.
    """
    count, n = rows.shape[:2]
    if rows.shape != (count, n, n) or rhs.ndim != 3 or rhs.shape[:2] != (count, n):
        raise ValueError(f"stacked systems {rows.shape} and right-hand sides {rhs.shape} do not match")
    upper = _forward(q, np.concatenate([rows, rhs], axis=2, dtype=np.int64), n)
    power = upper[:, np.arange(n), np.arange(n)]
    invertible = power.all(axis=1)
    solution = upper[:, :, n:]
    if not rhs.shape[2]:
        return solution, invertible
    inverse = np.ones((count, n), dtype=np.int64)
    exponent = q - 2
    while exponent:
        if exponent & 1:
            inverse *= power
            reduce_mod(inverse, q)
        exponent >>= 1
        if exponent:
            power = power * power % q
    upper *= inverse[:, :, None]
    reduce_mod(upper, q)
    for col in range(n - 1, 0, -1):
        above = solution[:, :col]
        above -= upper[:, :col, col, None] * solution[:, col, None, :]
        reduce_mod(above, q)
    return solution, invertible
