"""Gaussian elimination over prime and extension fields."""

import random

import numpy as np
import pytest

from conftest import build_tower

from tracepir import gf, harness, linalg, pir
from tracepir.gf import PrimeField

F7 = PrimeField(7)
E49 = build_tower(7, 2).ext


def test_solve_known_system():
    # x + 2y = 5, 3x + y = 4 over GF(7) -> x = 2(5-2y) ... solved by hand: y = 4, x = 0
    sol = linalg.solve(F7, [[1, 2], [3, 1]], [5, 4])
    assert sol is not None
    x, y = sol
    assert (x + 2 * y) % 7 == 5 and (3 * x + y) % 7 == 4


def test_solve_inconsistent_returns_none():
    assert linalg.solve(F7, [[1, 1], [2, 2]], [1, 3]) is None


def _times(field, rows, vec):
    """rows * vec over either field class, by the field's own add and mul."""
    out = []
    for row in rows:
        acc = field.zero
        for c, v in zip(row, vec):
            acc = field.add(acc, field.mul(c, v))
        out.append(acc)
    return out


def _is_invertible(field, rows) -> bool:
    """The reference verdict: the list elimination finds a pivot in every column."""
    return len(linalg._eliminate(field, [list(row) for row in rows], len(rows))) == len(rows)


def test_solve_underdetermined_picks_a_solution():
    sol = linalg.solve(F7, [[1, 1]], [3])
    assert sol is not None and sum(sol) % 7 == 3
    # the middle column has no pivot: the pivots of later columns must
    # still land in their own rows
    rows, rhs = [[1, 2, 0], [2, 4, 1]], [3, 5]
    sol = linalg.solve(F7, rows, rhs)
    assert sol is not None and _times(F7, rows, sol) == rhs


def test_extension_field_solve():
    rng = random.Random(2)
    for _ in range(10):
        a = [[tuple(rng.randrange(7) for _ in range(2)) for _ in range(3)] for _ in range(3)]
        x = [tuple(rng.randrange(7) for _ in range(2)) for _ in range(3)]
        b = _times(E49, a, x)
        sol = linalg.solve(E49, a, b)
        assert sol is not None
        assert _times(E49, a, sol) == b


@pytest.mark.parametrize("field", [F7, PrimeField(13), PrimeField(2**31 - 1), E49], ids=["7", "13", "2^31-1", "49"])
def test_row_operations_match_the_entry_arithmetic(field):
    rng = random.Random(repr(field))
    for _ in range(20):
        row, pivot = ([_random_element(field, rng) for _ in range(6)] for _ in range(2))
        c = _random_element(field, rng)
        assert field.scale_row(c, row) == [field.mul(c, x) for x in row]
        assert field.sub_row_multiple(row, c, pivot) == [field.sub(x, field.mul(c, p)) for x, p in zip(row, pivot)]


def _random_element(field, rng):
    if isinstance(field, PrimeField):
        return rng.randrange(field.q)
    return tuple(rng.randrange(field.q) for _ in range(field.s))


def _with_free_columns(q, nrows, ncols, free, rng):
    """A random nrows x ncols system whose columns in `free` are combinations of earlier columns.

    The other columns are independent, so they hold the pivots and the
    columns in `free` are exactly the free variables.  The right-hand
    side is the product with a random vector, so the system is
    consistent.
    """
    field = PrimeField(q)
    bound = [col for col in range(ncols) if col not in free]
    while True:
        columns = {col: [rng.randrange(q) for _ in range(nrows)] for col in bound}
        square = [[columns[col][i] for col in bound] for i in range(len(bound))]
        if _is_invertible(field, square):
            break
    for col in sorted(free):
        earlier = [c for c in bound if c < col]
        weights = [rng.randrange(1, q) for _ in earlier]
        columns[col] = [sum(w * columns[c][i] for w, c in zip(weights, earlier)) % q for i in range(nrows)]
    rows = [[columns[col][i] for col in range(ncols)] for i in range(nrows)]
    return rows, _times(field, rows, [rng.randrange(q) for _ in range(ncols)])


@pytest.mark.parametrize("q", [7, 13, 2**31 - 1])
@pytest.mark.parametrize("shape, free", [((5, 5), {2}), ((5, 5), {0, 4}), ((4, 6), {1, 4}), ((7, 5), {3})],
                         ids=["square", "square-zero-column", "wide", "tall"])
def test_singular_consistent_system_sets_the_free_variables_to_zero(q, shape, free):
    field = PrimeField(q)
    rng = random.Random(q + len(free))
    for _ in range(5):
        rows, rhs = _with_free_columns(q, *shape, free, rng)
        x = linalg.solve(field, rows, rhs)
        assert x is not None and _times(field, rows, x) == rhs
        assert [x[col] for col in sorted(free)] == [0] * len(free)


@pytest.mark.parametrize("q", [7, 13, 2**31 - 1])
@pytest.mark.parametrize("shape", [(5, 5), (7, 5), (4, 6)], ids=["square", "tall", "wide"])
def test_inconsistent_system_returns_none(q, shape):
    # the last row is the sum of the first two, its right-hand side is not
    field = PrimeField(q)
    rng = random.Random(q * 7 + shape[1])
    nrows, ncols = shape
    rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows - 1)]
    rows.append([(a + b) % q for a, b in zip(rows[0], rows[1])])
    rhs = [rng.randrange(q) for _ in range(nrows - 1)]
    rhs.append((rhs[0] + rhs[1] + rng.randrange(1, q)) % q)
    assert linalg.solve(field, rows, rhs) is None


@pytest.mark.parametrize("q", [7, 13, 2**31 - 1])
@pytest.mark.parametrize("shape", [(9, 5), (5, 9), (1, 4), (4, 1)], ids=["tall", "wide", "one-row", "one-column"])
def test_tall_and_wide_consistent_systems_are_solved(q, shape):
    field = PrimeField(q)
    rng = random.Random(q * 3 + shape[0])
    nrows, ncols = shape
    for _ in range(10):
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        rhs = _times(field, rows, [rng.randrange(q) for _ in range(ncols)])
        x = linalg.solve(field, rows, rhs)
        assert x is not None and _times(field, rows, x) == rhs


def _invertible_stack(q, n, count, rng):
    """count random invertible n x n matrices over GF(q), as lists of rows.

    Each has a zero in its top-left corner when n > 1, so the first
    column already needs a row swap.
    """
    field = PrimeField(q)
    stack = []
    while len(stack) < count:
        mat = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if n > 1:
            mat[0][0] = 0
        if _is_invertible(field, mat):
            stack.append(mat)
    return stack


@pytest.mark.parametrize("n", [1, 2, 5, 7, 13])
@pytest.mark.parametrize("q", [2, 7, 13, 2**31 - 1])
def test_stacked_solve_matches_scalar_solve_system_by_system(q, n):
    field = PrimeField(q)
    rng = random.Random(q * 100 + n)
    stack = _invertible_stack(q, n, 6, rng)
    rhs = [[[rng.randrange(q) for _ in range(3)] for _ in range(n)] for _ in stack]
    got = linalg.solve(field, np.array(stack, dtype=np.int64), np.array(rhs, dtype=np.int64))
    assert got.shape == (6, n, 3) and got.dtype == np.int64
    for g, (rows, columns) in enumerate(zip(stack, rhs)):
        for w in range(3):
            alone = linalg.solve(field, rows, [row[w] for row in columns])
            assert got[g, :, w].tolist() == alone


def _singular(n, rng, q):
    """n x n matrices over GF(q) that are singular by construction."""
    mat = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    repeated = [list(row) for row in mat]
    if n > 1:
        repeated[-1] = list(repeated[0])
    else:
        repeated = [[0]]
    zero_column = [list(row) for row in mat]
    for row in zero_column:
        row[n // 2] = 0
    return [repeated, zero_column, [[0] * n for _ in range(n)]]


@pytest.mark.parametrize("n", [1, 2, 5, 13])
@pytest.mark.parametrize("q", [2, 7, 2**31 - 1])
def test_stacked_mask_matches_the_list_elimination(q, n):
    # random systems, with forced singular ones shuffled in: a repeated
    # row, a zero column and the zero matrix
    field = PrimeField(q)
    rng = random.Random(q * 1000 + n)
    stack = [[[rng.randrange(q) for _ in range(n)] for _ in range(n)] for _ in range(12)]
    stack += _singular(n, rng, q) + _invertible_stack(q, n, 2, rng)
    rng.shuffle(stack)
    rhs = [[[rng.randrange(q) for _ in range(2)] for _ in range(n)] for _ in stack]
    got, invertible = linalg.solve_stacked(q, np.array(stack, dtype=np.int64), np.array(rhs, dtype=np.int64))
    assert invertible.dtype == bool and invertible.shape == (len(stack),)
    assert invertible.tolist() == [_is_invertible(field, rows) for rows in stack]
    assert not invertible.all() and invertible.any()
    # every entry stays in [0, q), singular systems included
    assert got.shape == (len(stack), n, 2) and 0 <= got.min() and got.max() < q
    for g in np.flatnonzero(invertible).tolist():
        for w in range(2):
            assert got[g, :, w].tolist() == linalg.solve(field, stack[g], [row[w] for row in rhs[g]])


def test_stacked_solve_with_a_zero_width_rhs_tests_invertibility_alone():
    # the zero-width stack stops after the elimination: its mask must be
    # the one a stack with a right-hand side gets, and the reference's
    for q in (7, 13, 2**31 - 1):
        rng = random.Random(q)
        stack = _invertible_stack(q, 4, 3, rng) + _singular(4, rng, q)
        rows = np.array(stack, dtype=np.int64)
        got, invertible = linalg.solve_stacked(q, rows, np.zeros((len(stack), 4, 0), dtype=np.int64))
        assert got.shape == (6, 4, 0) and got.dtype == np.int64
        assert invertible.tolist() == [True] * 3 + [False] * 3
        assert invertible.tolist() == [_is_invertible(PrimeField(q), m) for m in stack]
        _, with_rhs = linalg.solve_stacked(q, rows, np.ones((len(stack), 4, 1), dtype=np.int64))
        assert invertible.tolist() == with_rhs.tolist()


def test_stacked_solve_against_the_identity_gives_inverses():
    rng = random.Random(5)
    stack = _invertible_stack(7, 4, 5, rng)
    identity = np.broadcast_to(np.eye(4, dtype=np.int64), (5, 4, 4))
    got = linalg.solve(F7, np.array(stack, dtype=np.int64), identity)
    for rows, inverse in zip(stack, got.tolist()):
        product = [[sum(a * b for a, b in zip(row, column)) % 7 for column in zip(*inverse)] for row in rows]
        assert product == np.eye(4, dtype=np.int64).tolist()


def test_stacked_solve_rejects_a_singular_system():
    rng = random.Random(6)
    stack = _invertible_stack(7, 3, 4, rng)
    stack[2] = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]  # row 2 is twice row 1
    rhs = np.ones((4, 3, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="singular system in the stack"):
        linalg.solve(F7, np.array(stack, dtype=np.int64), rhs)


def test_stacked_solve_rejects_mismatched_shapes():
    rows = np.zeros((2, 3, 3), dtype=np.int64)
    for rhs in (np.zeros((2, 4, 1)), np.zeros((1, 3, 1)), np.zeros((2, 3))):
        with pytest.raises(ValueError):
            linalg.solve(F7, rows, rhs.astype(np.int64))
    with pytest.raises(ValueError):
        linalg.solve(F7, np.zeros((2, 3, 4), dtype=np.int64), np.zeros((2, 3, 1), dtype=np.int64))


def _rank(q, rows) -> int:
    """The reference rank: the pivot count of the list elimination."""
    return len(linalg._eliminate(PrimeField(q), [list(row) for row in rows], len(rows[0])))


def _random_stack(q, shape, rng):
    """Random matrices of one shape: full ones, products through a narrower middle (rank-deficient) and the zero matrix."""
    nrows, ncols = shape
    stack = [[[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)] for _ in range(8)]
    for inner in range(1, min(shape)):
        left = [[rng.randrange(q) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randrange(q) for _ in range(ncols)] for _ in range(inner)]
        stack.append([[sum(a * b for a, b in zip(row, column)) % q for column in zip(*right)] for row in left])
    stack.append([[0] * ncols for _ in range(nrows)])
    rng.shuffle(stack)
    return stack


@pytest.mark.parametrize("q", [2, 3, 11, 65521, 2**31 - 1])
@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 6), (7, 3), (3, 7), (5, 2), (2, 5)])
def test_rank_stacked_matches_the_list_elimination(q, shape):
    rng = random.Random(q * 31 + shape[0] * 7 + shape[1])
    stack = _random_stack(q, shape, rng)
    got = linalg.rank_stacked(q, np.array(stack, dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (len(stack),)
    assert got.tolist() == [_rank(q, rows) for rows in stack]
    assert got.min() == 0 and got.max() == min(shape)


def test_rank_stacked_of_empty_stacks_and_zero_columns():
    assert linalg.rank_stacked(7, np.zeros((0, 3, 3), dtype=np.int64)).tolist() == []
    assert linalg.rank_stacked(7, np.zeros((2, 3, 0), dtype=np.int64)).tolist() == [0, 0]
    assert linalg.rank_stacked(7, np.zeros((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]
    # a column with no pivot is scaled by 1, not by its zero entry, and
    # the pivot of a later column still counts
    for rows in ([[0, 1], [0, 0]], [[0, 0], [0, 5]], [[0, 3, 1], [0, 6, 2]]):
        assert linalg.rank_stacked(7, np.array([rows], dtype=np.int64)).tolist() == [1]
    with pytest.raises(ValueError):
        linalg.rank_stacked(7, np.zeros((3, 3), dtype=np.int64))


def test_stacked_solve_near_q_2_to_the_31_matches_python_ints():
    # entries near q - 1 make every product of the forward pass and the
    # back substitution as large as it gets; the reference is Python ints
    q, n = 2**31 - 1, 6
    rng = random.Random(31)
    stack = [[[q - 1 - rng.randrange(4) if rng.random() < 0.7 else rng.randrange(q) for _ in range(n)]
              for _ in range(n)] for _ in range(10)]
    stack += _singular(n, rng, q)
    rhs = [[[q - 1 - rng.randrange(4) for _ in range(3)] for _ in range(n)] for _ in stack]
    rows = np.array(stack, dtype=np.int64)
    got, invertible = linalg.solve_stacked(q, rows, np.array(rhs, dtype=np.int64))
    assert invertible.tolist() == (linalg.rank_stacked(q, rows) == n).tolist()
    assert invertible.tolist() == [_is_invertible(PrimeField(q), m) for m in stack]
    assert invertible[:10].all() and not invertible[10:].any()
    for g in np.flatnonzero(invertible).tolist():
        x = got[g].tolist()
        product = [[sum(a * x[i][w] for i, a in enumerate(row)) % q for w in range(3)] for row in stack[g]]
        assert product == rhs[g]


@pytest.mark.usefixtures("forced_reduction")
class TestStackedKernelOnEachReductionBranch:
    """The stacked rank and solve tests again, with `linalg.reduce_mod`
    forced onto its division form for every array, tiny ones included,
    and onto ``%=`` for every array."""

    test_stacked_solve_matches_scalar_solve_system_by_system = staticmethod(
        test_stacked_solve_matches_scalar_solve_system_by_system
    )
    test_stacked_mask_matches_the_list_elimination = staticmethod(test_stacked_mask_matches_the_list_elimination)
    test_stacked_solve_with_a_zero_width_rhs_tests_invertibility_alone = staticmethod(
        test_stacked_solve_with_a_zero_width_rhs_tests_invertibility_alone
    )
    test_stacked_solve_against_the_identity_gives_inverses = staticmethod(
        test_stacked_solve_against_the_identity_gives_inverses
    )
    test_rank_stacked_matches_the_list_elimination = staticmethod(test_rank_stacked_matches_the_list_elimination)
    test_rank_stacked_of_empty_stacks_and_zero_columns = staticmethod(
        test_rank_stacked_of_empty_stacks_and_zero_columns
    )
    test_stacked_solve_near_q_2_to_the_31_matches_python_ints = staticmethod(
        test_stacked_solve_near_q_2_to_the_31_matches_python_ints
    )


def _laid_out(values, layout):
    """A copy of values in a C-contiguous, a Fortran (a transpose's) or a strided (sliced) layout."""
    if layout == "transposed":
        return np.asfortranarray(values)
    if layout == "sliced":
        padded = np.zeros((2 * values.shape[0], *(d + 2 for d in values.shape[1:])), dtype=np.int64)
        view = padded[(slice(None, None, 2), *(slice(1, d + 1) for d in values.shape[1:]))]
        view[...] = values
        return view
    return values.copy()


@pytest.mark.parametrize("q", [2, 3, 11, 65521, 2**31 - 1])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "sliced"])
@pytest.mark.parametrize("shape", [
    (7, 3),
    (1, linalg.REDUCE_DIVIDE_MIN - 1),
    (linalg.REDUCE_DIVIDE_MIN // 8, 8),
    (linalg.REDUCE_DIVIDE_MIN + 1,),
    (3 * linalg.REDUCE_SLAB // 11 + 5, 11),
    (40, 6, 9),
], ids=["tiny", "below", "at", "above", "slabs", "stack"])
def test_reduce_mod_equals_the_remainder_in_place(q, layout, shape):
    # entries from -(q - 1)^2, as the fraction-free update and the
    # decoder's subtraction leave them, to 2^62; a transposed or sliced
    # array must be reduced in place, not through a copy
    rng = np.random.default_rng([q, len(shape), shape[-1]])
    values = rng.integers(-((q - 1) ** 2), 2**62, size=shape, dtype=np.int64, endpoint=True)
    values.reshape(-1)[:8] = [-((q - 1) ** 2), 2**62, 0, -1, 1, q, -q, q - 1]
    array = _laid_out(values, layout)
    assert linalg.reduce_mod(array, q) is array
    assert array.tolist() == (values % q).tolist()


@pytest.mark.parametrize("scheme", [(7, 1, 1, 5), (10, 2, 1, 7)], ids=["7115", "10217"])
def test_setup_dual_basis_and_transfer_audit_make_no_solve_call(monkeypatch, scheme):
    # linalg.solve is the decoder's name: a benchmark reads its call count
    # per grs_decode as solves per decode
    calls = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    params = pir.setup(*scheme, m=2)  # delta = 2 or 3 systems and a dual basis for s = 2
    assert gf.dual_basis(params.ext, params.theta).eta == params.eta
    assert harness.privacy_audit(params, mode="transfer-matrix").verdict == "pass"
    assert calls == []


@pytest.mark.parametrize("values", [
    [3, 0, 6], (3, 0, 6), [np.int64(3), np.int64(0), np.int64(6)],
    np.array([3, 0, 6], dtype=np.uint8), np.array([3, 0, 6], dtype=np.int64),
], ids=["ints", "tuple", "np-int64", "uint8", "int64-array"])
def test_field_array_accepts_integers_in_range(values):
    got = linalg.field_array(values, 7, "symbols")
    assert got.dtype == np.int64 and got.tolist() == [3, 0, 6]


@pytest.mark.parametrize("values", [
    [3.0, 1.0], [3.5], [1 + 0j], [object()], ["1"], [True, False], [[1, 2], [3]],
    [7], [-1], [2**63], [2**64],
], ids=["float-integral", "float", "complex", "object", "string", "bool", "ragged",
        "q", "negative", "above-int64", "past-uint64"])
def test_field_array_rejects_everything_else(values):
    with pytest.raises(ValueError, match="symbols"):
        linalg.field_array(values, 7, "symbols")


@pytest.mark.parametrize("q", [2, 7, 2**31 - 1])
def test_matmul_mod_is_exact(q):
    rng = random.Random(q)
    a = [[rng.randrange(q) for _ in range(13)] for _ in range(4)]
    b = [[rng.randrange(q) for _ in range(3)] for _ in range(13)]
    got = linalg.matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
    expected = [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]
    assert got.tolist() == expected


@pytest.mark.parametrize("b_shape", [(13,), (13, 3), (2, 13, 3)])
def test_matmul_mod_stacked_b_is_exact_near_q_2_to_the_31(b_shape):
    # a chunk is two terms at q = 2^31 - 1; a 1-D b is chunked along its
    # only axis, a stacked b along its second-to-last, and the result is
    # reduced in place
    q = 2**31 - 1
    rng = np.random.default_rng(b_shape)
    a = rng.integers(q - 3, q, size=(4, 13), dtype=np.int64)  # near q - 1: worst case
    b = rng.integers(q - 3, q, size=b_shape, dtype=np.int64)
    got = linalg.matmul_mod(a, b, q)
    expected = (a.astype(object) @ b.astype(object)) % q
    assert got.shape == expected.shape
    assert got.dtype == np.int64
    assert got.tolist() == expected.tolist()
