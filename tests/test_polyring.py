"""Polynomial helpers over both field levels."""

import random

import pytest

from conftest import build_tower

from tracepir import polyring
from tracepir.gf import PrimeField

F7 = PrimeField(7)
E49 = build_tower(7, 2).ext


def rand_poly(field, rng, max_len):
    length = rng.randrange(max_len + 1)
    if hasattr(field, "s"):
        coeffs = [tuple(rng.randrange(field.q) for _ in range(field.s)) for _ in range(length)]
    else:
        coeffs = [rng.randrange(field.q) for _ in range(length)]
    return polyring.normalize(field, coeffs)


def test_normalize_and_degree():
    assert polyring.normalize(F7, [0, 0, 0]) == []
    assert polyring.normalize(F7, [1, 2, 0]) == [1, 2]
    assert polyring.degree([]) == -1
    assert polyring.degree([5]) == 0


def test_eval_frozen_example():
    F5 = PrimeField(5)
    assert polyring.poly_eval(F5, [1, 0, 1], 2) == 0  # 4 + 1 = 5 = 0


@pytest.mark.parametrize("field", [F7, E49], ids=["GF(7)", "GF(49)"])
def test_ring_axioms_randomized(field):
    rng = random.Random(3)
    for _ in range(80):
        a = rand_poly(field, rng, 5)
        b = rand_poly(field, rng, 5)
        c = rand_poly(field, rng, 4)
        assert polyring.poly_mul(field, a, b) == polyring.poly_mul(field, b, a)
        left = polyring.poly_mul(field, a, polyring.poly_sub(field, b, c))
        right = polyring.poly_sub(
            field, polyring.poly_mul(field, a, b), polyring.poly_mul(field, a, c)
        )
        assert left == right
        assert polyring.poly_sub(field, a, a) == []


@pytest.mark.parametrize("field", [F7, E49], ids=["GF(7)", "GF(49)"])
def test_divmod_roundtrip(field):
    rng = random.Random(4)
    for _ in range(80):
        a = rand_poly(field, rng, 7)
        b = rand_poly(field, rng, 4)
        if not b:
            continue
        quo, rem = polyring.poly_divmod(field, a, b)
        assert polyring.poly_mul(field, quo, b) == polyring.poly_sub(field, a, rem)
        assert polyring.degree(rem) < polyring.degree(b) or rem == []


def test_divmod_by_monic_skips_inverse():
    class NoInverse(PrimeField):
        def inv(self, a):
            raise AssertionError("inverted the leading coefficient of a monic divisor")

    field = NoInverse(7)
    a, b = [3, 1, 4, 1, 5], [2, 6, 1]
    quo, rem = polyring.poly_divmod(field, a, b)
    assert polyring.poly_mul(F7, quo, b) == polyring.poly_sub(F7, a, rem)
    assert polyring.degree(rem) < polyring.degree(b)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        polyring.poly_divmod(F7, [1, 2], [])


def test_gcd_of_common_factor():
    # (x + 1)(x + 2) and (x + 1)(x + 3) share exactly (x + 1)
    a = polyring.poly_mul(F7, [1, 1], [2, 1])
    b = polyring.poly_mul(F7, [1, 1], [3, 1])
    assert polyring.poly_gcd(F7, a, b) == [1, 1]


def test_powmod_matches_repeated_multiplication():
    rng = random.Random(5)
    mod = [3, 0, 1]  # x^2 + 3
    for _ in range(30):
        base = rand_poly(F7, rng, 3)
        e = rng.randrange(1, 30)
        expected = [1]
        for _ in range(e):
            expected = polyring.poly_mod(F7, polyring.poly_mul(F7, expected, base), mod)
        assert polyring.poly_powmod(F7, base, e, mod) == expected


@pytest.mark.parametrize("q", [2, 3, 7, 65521])
def test_frobenius_powers_match_powmod(q):
    # any modulus: the q-power map is F_q-linear modulo reducible and
    # non-monic f too
    field = PrimeField(q)
    rng = random.Random(q)
    for n in range(1, 7):
        for _ in range(4):
            f = [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]
            powers = polyring.frobenius_powers(field, f, 5)
            assert len(powers) == 6
            for i, h in enumerate(powers):
                assert h == polyring.poly_powmod(field, [0, 1], q**i, f)


def test_frobenius_powers_need_a_nonconstant_modulus():
    with pytest.raises(ValueError):
        polyring.frobenius_powers(F7, [3], 2)


def test_powmod_small_exponents():
    assert polyring.poly_powmod(F7, [2, 5], 0, [3, 0, 1]) == [1]
    assert polyring.poly_powmod(F7, [2, 5], 1, [3, 0, 1]) == [2, 5]


def test_from_roots_vanishes_exactly_there():
    roots = [1, 3, 5]
    poly = polyring.from_roots(F7, roots)
    assert polyring.degree(poly) == 3 and poly[-1] == 1
    for x in range(7):
        value = polyring.poly_eval(F7, poly, x)
        assert (value == 0) == (x in roots)


def test_eval_base_poly_at_extension_point():
    # base-field coefficients are embedded before evaluation
    x = (3, 1)
    direct = E49.add(E49.mul(x, x), E49.one)  # x^2 + 1
    assert E49.eval_base_poly((1, 0, 1), x) == direct
