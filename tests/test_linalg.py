"""Gaussian elimination over prime and extension fields."""

import random

import numpy as np
import pytest

from tracepir import linalg
from tracepir.gf import FieldTower, PrimeField

F7 = PrimeField(7)
E49 = FieldTower.build(7, 2).ext


def test_solve_known_system():
    # x + 2y = 5, 3x + y = 4 over GF(7) -> x = 2(5-2y) ... solved by hand: y = 4, x = 0
    sol = linalg.solve(F7, [[1, 2], [3, 1]], [5, 4])
    assert sol is not None
    x, y = sol
    assert (x + 2 * y) % 7 == 5 and (3 * x + y) % 7 == 4


def test_solve_inconsistent_returns_none():
    assert linalg.solve(F7, [[1, 1], [2, 2]], [1, 3]) is None


def test_solve_underdetermined_picks_a_solution():
    sol = linalg.solve(F7, [[1, 1]], [3])
    assert sol is not None and sum(sol) % 7 == 3
    # the middle column has no pivot: the pivots of later columns must
    # still land in their own rows
    rows, rhs = [[1, 2, 0], [2, 4, 1]], [3, 5]
    sol = linalg.solve(F7, rows, rhs)
    assert sol is not None and linalg.mat_vec(F7, rows, sol) == rhs


def test_invert_roundtrip_prime_field():
    rng = random.Random(1)
    count = 0
    while count < 10:
        mat = [[rng.randrange(7) for _ in range(4)] for _ in range(4)]
        inv = linalg.invert(F7, mat)
        if inv is None:
            continue
        count += 1
        prod = [
            [sum(mat[i][l] * inv[l][j] for l in range(4)) % 7 for j in range(4)]
            for i in range(4)
        ]
        assert prod == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_invert_singular_returns_none():
    assert linalg.invert(F7, [[1, 2], [2, 4]]) is None
    assert not linalg.is_invertible(F7, [[0, 0], [0, 0]])


def test_extension_field_solve():
    rng = random.Random(2)
    for _ in range(10):
        a = [[tuple(rng.randrange(7) for _ in range(2)) for _ in range(3)] for _ in range(3)]
        x = [tuple(rng.randrange(7) for _ in range(2)) for _ in range(3)]
        b = linalg.mat_vec(E49, a, x)
        sol = linalg.solve(E49, a, b)
        assert sol is not None
        assert linalg.mat_vec(E49, a, sol) == b


def test_non_square_invert_rejected():
    with pytest.raises(ValueError):
        linalg.invert(F7, [[1, 2, 3], [4, 5, 6]])


def test_solve_with_array_columns_matches_each_column():
    # over a prime field one elimination solves every column of int64 arrays
    rng = random.Random(4)
    rows = [[pow(x, d, 7) for d in range(3)] for x in (1, 3, 5)]
    columns = np.array([[rng.randrange(7) for _ in range(9)] for _ in range(3)], dtype=np.int64)
    together = linalg.solve(F7, rows, list(columns))
    for w in range(9):
        alone = linalg.solve(F7, rows, columns[:, w].tolist())
        assert [int(c[w]) for c in together] == alone


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
