"""Kernel correctness against a naive big-integer reference."""

import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import tracepir
from tracepir import kernels
from tracepir.gf import PrimeField, find_irreducibles
from tracepir.pir import matmul_mod

FIELDS = [(2, 1), (2, 2), (3, 2), (7, 1), (7, 2), (5, 3), (11, 4), (2147483629, 2)]


def ref_reduce(prod, mod, q):
    # long division by the monic modulus over the integers, then mod q
    prod = list(prod)
    s = len(mod) - 1
    for d in range(len(prod) - 1, s - 1, -1):
        c = prod[d]
        if c:
            for j in range(s + 1):
                prod[d - s + j] -= c * mod[j]
    return tuple(c % q for c in prod[:s])


def ref_ext_mul(a, b, mod, q):
    s = len(mod) - 1
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, mod, q)


def random_modulus(rng, q, s):
    # any monic polynomial works for plain reduction checks
    mod = [rng.randrange(q) for _ in range(s)] + [1]
    red = tuple(-c % q for c in mod[:s])
    return tuple(mod), red


@pytest.mark.parametrize("q,s", FIELDS)
def test_mul_matches_bigint_reference(q, s):
    rng = random.Random(q * 1000 + s)
    mod, red = random_modulus(rng, q, s)
    for _ in range(200):
        a = tuple(rng.randrange(q) for _ in range(s))
        b = tuple(rng.randrange(q) for _ in range(s))
        assert kernels.ext_mul(a, b, red, q) == ref_ext_mul(a, b, mod, q)


@pytest.mark.parametrize("q,s", FIELDS)
def test_dot_matches_bigint_reference(q, s):
    rng = random.Random(q + s)
    mod, red = random_modulus(rng, q, s)
    xs = [tuple(rng.randrange(q) for _ in range(s)) for _ in range(30)]
    ys = [tuple(rng.randrange(q) for _ in range(s)) for _ in range(30)]
    acc = (0,) * s
    for x, y in zip(xs, ys):
        term = ref_ext_mul(x, y, mod, q)
        acc = tuple((u + v) % q for u, v in zip(acc, term))
    assert kernels.ext_dot(xs, ys, red, q) == acc


@pytest.mark.parametrize("q,s", FIELDS)
@pytest.mark.parametrize("largest", [False, True])
def test_chunked_contraction_matches_dot(q, s, largest):
    # the s x s coefficient products of an int64 contraction, folded through
    # the modulus, equal the kernel's dot product; at q near 2^31 the 31
    # terms are summed two at a time
    rng = random.Random(q * 31 + s)
    _, red = random_modulus(rng, q, s)
    pick = (lambda: q - 1) if largest else (lambda: rng.randrange(q))
    xs = [tuple(pick() for _ in range(s)) for _ in range(31)]
    ys = [tuple(pick() for _ in range(s)) for _ in range(31)]
    g = matmul_mod(np.array(xs, dtype=np.int64).T, np.array(ys, dtype=np.int64), q)
    assert g.tolist() == [
        [sum(x[a] * y[b] for x, y in zip(xs, ys)) % q for b in range(s)] for a in range(s)
    ]
    units = [tuple(int(a == d) for d in range(s)) for a in range(s)]
    folded = kernels.ext_dot([tuple(row) for row in g.tolist()], units, red, q)
    assert folded == kernels.ext_dot(xs, ys, red, q)


def ref_dot(xs, ys, mod, q):
    acc = (0,) * (len(mod) - 1)
    for x, y in zip(xs, ys):
        acc = tuple((u + v) % q for u, v in zip(acc, ref_ext_mul(x, y, mod, q)))
    return acc


def as_tuples(stack):
    return [tuple(x) for x in stack.tolist()]


@pytest.mark.parametrize("q,s", FIELDS)
@pytest.mark.parametrize("largest", [False, True])
def test_stacked_dot_matches_list_form_and_reference(q, s, largest):
    # every row of a (3, 9, s) stack equals the list form on that row and
    # the big-integer reference; with every entry q - 1 near 2^31 the
    # nine-term sums leave int64 unless matmul_mod chunks them
    rng = random.Random(q * 17 + s)
    mod, red = random_modulus(rng, q, s)
    pick = (lambda: q - 1) if largest else (lambda: rng.randrange(q))
    xs, ys = (np.array([[[pick() for _ in range(s)] for _ in range(9)] for _ in range(3)], dtype=np.int64)
              for _ in range(2))
    got = kernels.ext_dot(xs, ys, red, q)
    assert got.shape == (3, s) and got.dtype == np.int64
    for row, x, y in zip(got.tolist(), xs, ys):
        listed = kernels.ext_dot(as_tuples(x), as_tuples(y), red, q)
        assert tuple(row) == listed == ref_dot(as_tuples(x), as_tuples(y), mod, q)
    assert kernels.ext_dot(xs[0], ys[0], red, q) == tuple(got[0].tolist())  # two 2-D operands


@pytest.mark.parametrize("q,s", [(7, 2), (5, 3), (2147483629, 2)])
def test_dot_broadcasts_one_operand_against_a_stack(q, s):
    rng = random.Random(q + 3 * s)
    _, red = random_modulus(rng, q, s)
    x = np.array([[rng.randrange(q) for _ in range(s)] for _ in range(6)], dtype=np.int64)
    stack = np.array([[[rng.randrange(q) for _ in range(s)] for _ in range(6)] for _ in range(4)],
                     dtype=np.int64)
    expected = [list(kernels.ext_dot(as_tuples(x), as_tuples(y), red, q)) for y in stack]
    assert kernels.ext_dot(x, stack, red, q).tolist() == expected
    assert kernels.ext_dot(stack, x, red, q).tolist() == expected  # the product commutes


@pytest.mark.parametrize("q,s", FIELDS)
def test_empty_dot_is_zero(q, s):
    _, red = random_modulus(random.Random(q), q, s)
    assert kernels.ext_dot([], [], red, q) == (0,) * s
    empty = np.zeros((2, 0, s), dtype=np.int64)
    assert kernels.ext_dot(empty, empty, red, q).tolist() == [[0] * s] * 2


def test_dot_rejects_mismatched_operands():
    red = (6, 0)
    with pytest.raises(ValueError):
        kernels.ext_dot([(1, 2)], [(1, 2, 3)], red, 7)  # element length is not s
    with pytest.raises(ValueError):
        kernels.ext_dot([(1, 2)], [(1, 2), (3, 4)], red, 7)  # different term counts


@pytest.mark.parametrize("q,s", FIELDS)
def test_fold_table_is_read_only_products_of_powers(q, s):
    _, red = random_modulus(random.Random(q * 5 + s), q, s)
    table = kernels._fold_table(red, q)
    assert table.shape == (s * s, s) and not table.flags.writeable
    units = [tuple(int(a == d) for d in range(s)) for a in range(s)]
    for i, j in itertools.product(range(s), repeat=2):
        assert tuple(table[i * s + j].tolist()) == kernels.ext_mul(units[i], units[j], red, q)


def test_mod_inv():
    assert kernels.mod_inv(3, 7) == 5
    for q in (2, 3, 7, 11, 101, 2147483629):
        for a in (1, 2, q - 1, q // 2):
            if a % q == 0:
                continue
            assert kernels.mod_inv(a, q) * a % q == 1
    with pytest.raises(ZeroDivisionError):
        kernels.mod_inv(0, 7)


def test_ext_inv_and_pow():
    q, s = 7, 2
    red = (6, 0)  # xi^2 == -1
    for a in [(1, 0), (0, 1), (3, 5), (6, 6)]:
        inv = kernels.ext_inv(a, red, q)
        assert kernels.ext_mul(a, inv, red, q) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        kernels.ext_inv((0, 0), red, q)
    a = (2, 3)
    assert kernels.ext_pow(a, 0, red, q) == (1, 0)
    assert kernels.ext_pow(a, 1, red, q) == a
    assert kernels.ext_pow(a, 48, red, q) == (1, 0)  # group order q^2 - 1


def check_inverse(a, red, q):
    s = len(red)
    one = (1,) + (0,) * (s - 1)
    inv = kernels.ext_inv(a, red, q)
    assert inv == kernels.ext_pow(a, q**s - 2, red, q)  # Fermat
    assert kernels.ext_mul(a, inv, red, q) == one


@pytest.mark.parametrize("q,s", [(2, 4), (3, 3), (7, 2)])
def test_ext_inv_exhaustive(q, s):
    mod = find_irreducibles(PrimeField(q), s, 1)[0]
    red = tuple(-c % q for c in mod[:s])
    for a in itertools.product(range(q), repeat=s):
        if any(a):
            check_inverse(a, red, q)


def test_ext_inv_near_int64_bound():
    q = 2147483629
    c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
    red = (c, 0)  # xi^2 == c, a non-square, so xi^2 - c is irreducible
    rng = random.Random(q)
    for a in [(q - 1, q - 1), (0, 1), (1, 0)] + [
        (rng.randrange(q), rng.randrange(1, q)) for _ in range(50)
    ]:
        check_inverse(a, red, q)


def test_ext_inv_rejects_non_units():
    q = 7
    red = (1, 0)  # xi^2 == 1: the reducible modulus (xi - 1)(xi + 1)
    for a in [(0, 0), (1, 1), (6, 1), (3, 3)]:
        with pytest.raises(ZeroDivisionError):
            kernels.ext_inv(a, red, q)
    assert kernels.ext_inv((0, 1), red, q) == (0, 1)  # a unit there all the same
    red = (0, 1, 0)  # xi^3 == xi: the modulus xi (xi - 1)(xi + 1) over GF(3)
    for a in [(0, 0, 0), (0, 1, 0), (0, 1, 1), (2, 0, 1)]:
        with pytest.raises(ZeroDivisionError):
            kernels.ext_inv(a, red, 3)


def load_benchmark_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # benchmarks/tracing.py rebinds these names in place; a refactor that
    # moves one must update the benchmark too
    tracing = load_benchmark_tracing()
    originals = tracing.bound_originals(tracing.SPAN_TARGETS + tracing.COUNT_TARGETS)
    assert all(callable(fn) for fn in originals.values())
    assert tracepir.kernel_backend() == "pure"
