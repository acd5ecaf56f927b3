"""Field tower: construction, trace, irreducibles, minimal polys, dual bases."""

import itertools
import random

import pytest

from conftest import build_tower, tower_from_description

from tracepir import gf, polyring
from tracepir.gf import (
    DualBasisPair,
    ExtField,
    FieldMismatchError,
    PrimeField,
    SingularBasisError,
    dual_basis,
    find_irreducibles,
    irreducible_count,
    is_prime,
    minimal_poly,
)


def tower(q, s):
    return build_tower(q, s)


class TestPrimeField:
    def test_rejects_composite_and_out_of_range(self):
        for bad in (0, 1, 4, 9, 2**31 + 11):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 2147483629}
        for n in range(2, 60):
            assert is_prime(n) == all(n % d for d in range(2, n))
        for p in primes:
            assert is_prime(p)
        assert not is_prime(2147483629 * 3)

    def test_arithmetic_suite(self):
        F = PrimeField(7)
        assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
        assert F.add(4, 0) == 4
        assert F.sub(2, 5) == 4
        assert F.neg(3) == 4
        assert F.pow(3, 6) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_validate_and_serialization(self):
        F = PrimeField(11)
        assert F.parse_element("10") == 10
        assert F.format_element(3) == "3"
        with pytest.raises(FieldMismatchError):
            F.validate(11)
        with pytest.raises(FieldMismatchError):
            F.validate(-1)


class TestExtField:
    def test_modulus_must_be_monic_irreducible(self):
        F2 = PrimeField(2)
        with pytest.raises(ValueError):
            ExtField(F2, 2, (1, 1, 0))  # not monic
        with pytest.raises(ValueError):
            ExtField(F2, 2, (0, 0, 1))  # xi^2 is reducible
        ExtField(F2, 2, (1, 1, 1))

    def test_degree_one_matches_base_field(self):
        F = PrimeField(7)
        E = ExtField(F, 1, (2, 1))
        for a in range(7):
            for b in range(7):
                assert E.mul((a,), (b,)) == (F.mul(a, b),)
                assert E.add((a,), (b,)) == (F.add(a, b),)
        assert E.trace((5,)) == 5  # trace is the identity when s = 1

    def test_trace_frozen_examples(self):
        E = ExtField(PrimeField(2), 2, (1, 1, 1))
        assert E.trace((0, 0)) == 0  # Tr(0) = 0 by linearity
        # omega + omega^2 = omega + omega + 1 = 1
        assert E.trace((0, 1)) == 1
        # Tr(1) = 2 * 1 = 0 mod 2
        assert E.trace((1, 0)) == 0

    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (7, 2), (5, 3), (3, 4)])
    def test_trace_is_linear_and_lands_in_base(self, q, s):
        t = tower(q, s)
        E, F = t.ext, t.base
        rng = random.Random(q * s)
        for _ in range(60):
            x = tuple(rng.randrange(q) for _ in range(s))
            y = tuple(rng.randrange(q) for _ in range(s))
            c = rng.randrange(q)
            assert E.trace(E.add(x, y)) == F.add(E.trace(x), E.trace(y))
            assert E.trace(E.scalar_mul(c, x)) == F.mul(c, E.trace(x))
            # value is a fixed point of Frobenius once re-embedded
            tr = E.embed(E.trace(x))
            assert E.frobenius(tr) == tr

    @pytest.mark.parametrize("q,s", [(3, 2), (5, 3), (3, 4)])
    def test_trace_is_sum_of_frobenius_powers(self, q, s):
        E = tower(q, s).ext
        for x in E.elements():
            acc = E.zero
            for i in range(s):
                acc = E.add(acc, E.pow(x, q**i))
            # the sum lies in the base subfield and equals the trace there
            assert acc == (E.trace(x),) + (0,) * (s - 1)

    @pytest.mark.parametrize("q,s", [(3, 4), (5, 3), (7, 2), (7, 1)])
    def test_frobenius_is_the_q_power_everywhere(self, q, s):
        E = tower(q, s).ext
        for x in E.elements():
            assert E.frobenius(x) == E.pow(x, q)

    @pytest.mark.parametrize("q,s", [(65521, 2), (2**31 - 1, 1)])
    def test_frobenius_is_the_q_power_at_large_q(self, q, s):
        # entries up to 2^31 - 2: the products stay exact Python ints
        E = tower(q, s).ext
        rng = random.Random(q)
        for x in [(q - 1,) * s] + [tuple(rng.randrange(q) for _ in range(s)) for _ in range(200)]:
            assert E.frobenius(x) == E.pow(x, q)

    def test_inverse_and_pow(self):
        E = tower(7, 2).ext
        rng = random.Random(9)
        for _ in range(50):
            x = tuple(rng.randrange(7) for _ in range(2))
            if x == E.zero:
                continue
            assert E.mul(x, E.inv(x)) == E.one
            assert E.pow(x, E.size - 1) == E.one
        with pytest.raises(ZeroDivisionError):
            E.inv(E.zero)

    def test_field_size_guard(self):
        with pytest.raises(ValueError):
            build_tower(65537, 2)

    def test_element_serialization_roundtrip(self):
        E = tower(7, 3).ext
        assert E.format_element((3, 0, 1)) == "3:0:1"
        assert E.parse_element("3:0:1") == (3, 0, 1)
        with pytest.raises(FieldMismatchError):
            E.parse_element("3:0")
        with pytest.raises(FieldMismatchError):
            E.parse_element("3:0:9")

    def test_mismatched_element_length_rejected(self):
        E = tower(7, 2).ext
        with pytest.raises(ValueError):
            E.mul((1, 2, 3), (1, 0))


class TestIrreducibles:
    def test_linear_polys_all_irreducible(self):
        F2 = PrimeField(2)
        assert find_irreducibles(F2, 1, 2) == [(0, 1), (1, 1)]

    def test_unique_quadratic_over_gf2(self):
        F2 = PrimeField(2)
        assert find_irreducibles(F2, 2, 1) == [(1, 1, 1)]

    def test_lex_scan_over_gf3(self):
        # exhaustive root checks confirm these are the first three
        F3 = PrimeField(3)
        assert find_irreducibles(F3, 2, 3) == [(1, 0, 1), (2, 1, 1), (2, 2, 1)]

    def test_exhaustion_error(self):
        F2 = PrimeField(2)
        with pytest.raises(ValueError):
            find_irreducibles(F2, 2, 2)  # only one exists

    @pytest.mark.parametrize("q,s", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 3)])
    def test_count_matches_scan(self, q, s):
        F = PrimeField(q)
        count = irreducible_count(q, s)
        found = find_irreducibles(F, s, count)
        assert len(found) == count
        with pytest.raises(ValueError):
            find_irreducibles(F, s, count + 1)

    @pytest.mark.parametrize("q,s", [(3, 2), (5, 3), (7, 3), (3, 4), (2, 4)])
    def test_matches_full_lexicographic_scan(self, q, s):
        F = PrimeField(q)
        full = [
            (*tail, 1)
            for tail in itertools.product(range(q), repeat=s)
            if gf.rabin_irreducible(F, (*tail, 1))
        ]
        assert find_irreducibles(F, s, len(full)) == full

    @pytest.mark.parametrize(
        "q,s", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (3, 2), (3, 3), (3, 4), (3, 5),
                (5, 2), (5, 3), (5, 4), (7, 2), (7, 3)],
    )
    def test_rabin_matches_trial_division(self, q, s):
        F = PrimeField(q)

        def monic(d):
            return [list(tail) + [1] for tail in itertools.product(range(q), repeat=d)]

        divisors = [g for d in range(1, s // 2 + 1) for g in monic(d)]
        verdicts = [gf.rabin_irreducible(F, f) for f in monic(s)]
        expected = [all(polyring.poly_mod(F, f, g) for g in divisors) for f in monic(s)]
        assert verdicts == expected
        assert sum(verdicts) == irreducible_count(q, s)

    def test_outputs_have_no_roots_for_quadratics(self):
        F = PrimeField(11)
        for poly in find_irreducibles(F, 2, 5):
            for x in range(11):
                assert polyring.poly_eval(F, list(poly), x) != 0


class TestMinimalPoly:
    def test_base_subfield_element(self):
        E = tower(7, 2).ext
        assert minimal_poly(E, E.embed(4)) == (3, 1)  # xi - 4

    def test_frozen_examples(self):
        E2 = ExtField(PrimeField(2), 2, (1, 1, 1))
        assert minimal_poly(E2, (0, 1)) == (1, 1, 1)
        E3 = ExtField(PrimeField(3), 2, (1, 0, 1))
        # class of xi is a root of xi^2 + 1 by construction
        assert minimal_poly(E3, (0, 1)) == (1, 0, 1)

    @pytest.mark.parametrize("q,s", [(3, 2), (7, 2), (5, 3), (2, 6)])
    def test_vanishes_and_degree_divides_s(self, q, s):
        t = tower(q, s)
        E = t.ext
        rng = random.Random(s * q)
        for _ in range(25):
            x = tuple(rng.randrange(q) for _ in range(s))
            mp = minimal_poly(E, x)
            assert E.eval_base_poly(mp, x) == E.zero
            assert s % (len(mp) - 1) == 0
            assert mp[-1] == 1


class TestDualBasis:
    def test_s1_inverse(self):
        E = ExtField(PrimeField(7), 1, (2, 1))
        pair = dual_basis(E, [(3,)])
        assert pair.eta == ((5,),)  # 3 * 5 = 1 in GF(7)

    def test_frozen_gf4_example(self):
        E = ExtField(PrimeField(2), 2, (1, 1, 1))
        pair = dual_basis(E, [(1, 0), (0, 1)])
        # dual of {1, omega} is {omega^2, 1}
        assert pair.eta == ((1, 1), (1, 0))

    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (7, 2), (5, 3)])
    def test_gram_identity_for_random_bases(self, q, s):
        t = tower(q, s)
        E = t.ext
        rng = random.Random(17 * q + s)
        built = 0
        while built < 5:
            theta = [tuple(rng.randrange(q) for _ in range(s)) for _ in range(s)]
            try:
                pair = dual_basis(E, theta)
            except SingularBasisError:
                continue
            built += 1
            for i in range(s):
                for j in range(s):
                    expected = 1 if i == j else 0
                    assert E.trace(E.mul(pair.theta[i], pair.eta[j])) == expected

    def test_dependent_basis_rejected(self):
        E = tower(7, 2).ext
        with pytest.raises(SingularBasisError):
            dual_basis(E, [(1, 0), (2, 0)])  # both in the base subfield

    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (5, 2)])
    def test_reconstruction_identity_exhaustive(self, q, s):
        t = tower(q, s)
        E = t.ext
        gamma = (0, 1) + (0,) * (s - 2)
        pair = dual_basis(E, [E.pow(gamma, d) for d in range(s)])
        for x in E.elements():
            acc = E.zero
            for theta_d, eta_d in zip(pair.theta, pair.eta):
                acc = E.add(acc, E.scalar_mul(E.trace(E.mul(eta_d, x)), theta_d))
            assert acc == x


class TestFieldTower:
    def test_description_roundtrip(self):
        t = tower(7, 2)
        assert t.describe() == "q=7;s=2;mod=1:0:1"
        assert tower_from_description(t.describe()) == t

    def test_bad_description(self):
        with pytest.raises(ValueError):
            tower_from_description("q=7;mod=1:0:1")

    def test_dataclass_pair_is_frozen(self):
        pair = DualBasisPair(theta=((1,),), eta=((1,),))
        with pytest.raises(AttributeError):
            pair.theta = ()


def test_ext_arithmetic_matches_bigint_reference():
    t = tower(11, 3)
    E = t.ext
    mod = E.modulus
    rng = random.Random(5)

    def ref_mul(a, b):
        prod = [0] * (2 * E.s - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(len(prod) - 1, E.s - 1, -1):
            c = prod[d]
            if c:
                for j in range(E.s + 1):
                    prod[d - E.s + j] -= c * mod[j]
        return tuple(c % 11 for c in prod[: E.s])

    for _ in range(300):
        a = tuple(rng.randrange(11) for _ in range(3))
        b = tuple(rng.randrange(11) for _ in range(3))
        assert E.mul(a, b) == ref_mul(a, b)
