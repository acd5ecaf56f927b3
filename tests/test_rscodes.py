"""RS/GRS codes: interpolation, encoding, syndrome decoding, oracle agreement."""

import itertools
import random

import pytest

from tracepir import polyring, rscodes
from tracepir.gf import FieldTower, PrimeField
from tracepir.rscodes import (
    DecodeFailure,
    EnumerationTooLarge,
    GrsCode,
    dual_multipliers,
    grs_decode,
    grs_encode,
    lagrange_interpolate,
    oracle_decode,
)

F7 = PrimeField(7)
F5 = PrimeField(5)
CODE_5_3 = GrsCode(field=F7, points=(0, 1, 2, 3, 4), multipliers=(1,) * 5, dim=3)


class TestLagrange:
    def test_identity_line(self):
        assert lagrange_interpolate(F7, [(1, 1), (2, 2)]) == [0, 1]

    def test_single_point_is_constant(self):
        assert lagrange_interpolate(F7, [(3, 5)]) == [5]
        assert lagrange_interpolate(F7, [(3, 0)]) == []

    def test_quadratic_matches_bruteforce_oracle(self):
        points = [(0, 1), (1, 0), (2, 0)]
        # oracle: scan all 125 polynomials of degree < 3 over GF(5)
        matches = [
            coeffs
            for coeffs in itertools.product(range(5), repeat=3)
            if all(polyring.poly_eval(F5, list(coeffs), x) == y for x, y in points)
        ]
        assert len(matches) == 1
        expected = polyring.normalize(F5, list(matches[0]))
        assert lagrange_interpolate(F5, points) == expected

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate(F7, [(1, 1), (1, 2)])

    def test_reevaluation_identity_randomized(self):
        rng = random.Random(0)
        for _ in range(30):
            xs = rng.sample(range(7), rng.randrange(1, 7))
            points = [(x, rng.randrange(7)) for x in xs]
            poly = lagrange_interpolate(F7, points)
            assert polyring.degree(poly) < len(points)
            for x, y in points:
                assert polyring.poly_eval(F7, poly, x) == y


class TestEncode:
    def test_zero_polynomial(self):
        assert grs_encode(CODE_5_3, []) == (0,) * 5

    def test_frozen_example(self):
        code = GrsCode(field=F7, points=(1, 2, 3, 4), multipliers=(1,) * 4, dim=2)
        assert grs_encode(code, [0, 1]) == (1, 2, 3, 4)

    def test_full_dimension_roundtrip(self):
        code = GrsCode(field=F7, points=(0, 1, 2), multipliers=(2, 3, 4), dim=3)
        rng = random.Random(1)
        for _ in range(20):
            poly = polyring.normalize(F7, [rng.randrange(7) for _ in range(3)])
            word = grs_encode(code, poly)
            scaled = [(w * pow(m, 5, 7)) % 7 for w, m in zip(word, code.multipliers)]
            back = lagrange_interpolate(F7, list(zip(code.points, scaled)))
            assert back == poly

    def test_degree_too_high(self):
        with pytest.raises(ValueError):
            grs_encode(CODE_5_3, [1, 1, 1, 1])

    def test_code_validation(self):
        with pytest.raises(ValueError):
            GrsCode(field=F7, points=(0, 0, 1), multipliers=(1, 1, 1), dim=2)
        with pytest.raises(ValueError):
            GrsCode(field=F7, points=(0, 1, 2), multipliers=(1, 0, 1), dim=2)
        with pytest.raises(ValueError):
            GrsCode(field=F7, points=(0, 1, 2), multipliers=(1, 1, 1), dim=4)


class TestDecode:
    def test_clean_codeword(self):
        word = grs_encode(CODE_5_3, [3, 1, 2])
        result = grs_decode(CODE_5_3, word)
        assert result.error_positions == ()
        assert result.corrected_word == word
        assert result.message_poly == (3, 1, 2)

    def test_single_error_sweep_fixed_codeword(self):
        word = grs_encode(CODE_5_3, [2, 5, 1])
        for pos in range(5):
            for wrong in range(7):
                if wrong == word[pos]:
                    continue
                received = list(word)
                received[pos] = wrong
                result = grs_decode(CODE_5_3, received)
                assert result.corrected_word == word
                assert result.error_positions == (pos,)

    def test_two_errors_match_oracle_verdict(self):
        rng = random.Random(2)
        for _ in range(150):
            word = list(grs_encode(CODE_5_3, [rng.randrange(7) for _ in range(3)]))
            for pos in rng.sample(range(5), 2):
                word[pos] = (word[pos] + rng.randrange(1, 7)) % 7
            try:
                ours = grs_decode(CODE_5_3, word)
                verdict = (ours.corrected_word, ours.error_positions)
            except DecodeFailure:
                verdict = None
            try:
                ref = oracle_decode(CODE_5_3, word)
                expected = (ref.corrected_word, ref.error_positions)
            except DecodeFailure:
                expected = None
            assert verdict == expected

    def test_never_returns_word_outside_radius(self):
        rng = random.Random(3)
        for _ in range(300):
            received = [rng.randrange(7) for _ in range(5)]
            try:
                result = grs_decode(CODE_5_3, received)
            except DecodeFailure:
                continue
            distance = sum(1 for a, b in zip(result.corrected_word, received) if a != b)
            assert distance <= CODE_5_3.radius
            assert len(result.error_positions) == distance

    def test_nontrivial_multipliers_roundtrip(self):
        code = GrsCode(field=F7, points=(0, 1, 2, 3, 4), multipliers=(2, 3, 4, 5, 6), dim=3)
        rng = random.Random(4)
        for _ in range(60):
            msg = polyring.normalize(F7, [rng.randrange(7) for _ in range(3)])
            word = list(grs_encode(code, msg))
            pos = rng.randrange(5)
            word[pos] = (word[pos] + rng.randrange(1, 7)) % 7
            result = grs_decode(code, word)
            assert result.message_poly == tuple(msg)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            grs_decode(CODE_5_3, (0, 0, 0))

    @pytest.mark.parametrize("dim,multipliers", [(1, (1,) * 5), (2, (1, 2, 3, 4, 2))])
    def test_every_word_matches_oracle_solving_only_off_the_code(self, monkeypatch, dim, multipliers):
        # all 5^5 words over GF(5): the syndrome decoder must give the
        # oracle's verdict, DecodeFailure included, with no solve on a
        # codeword and at most one on any other word
        code = GrsCode(field=F5, points=(0, 1, 2, 3, 4), multipliers=multipliers, dim=dim)
        solve = rscodes.linalg.solve
        calls = []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        codewords = {grs_encode(code, msg) for msg in itertools.product(range(5), repeat=dim)}
        monkeypatch.setattr(rscodes.linalg, "solve", counted)
        for word in itertools.product(range(5), repeat=5):
            del calls[:]
            try:
                ours = grs_decode(code, word)
            except DecodeFailure:
                ours = None
            assert len(calls) <= (0 if word in codewords else 1), word
            try:
                ref = oracle_decode(code, word)
            except DecodeFailure:
                ref = None
            assert ours == ref, word

    def test_extension_code_with_zero_point_matches_oracle(self):
        # GF(2^3), n = 5, dim = 1, tau = 2, and beta_1 = 0 is a code point:
        # an error at 0 adds no root to the connection polynomial, only to
        # its reversal
        ext = FieldTower.build(2, 3).ext
        elements = list(ext.elements())
        points = tuple(elements[:5])
        assert points[0] == ext.zero
        code = GrsCode(field=ext, points=points, multipliers=tuple(elements[1:6]), dim=1)
        assert code.radius == 2
        codewords = [grs_encode(code, [c]) for c in elements]
        nonzero = elements[1:]
        words = []
        for c in codewords:
            for j in range(1, 5):
                for e0, ej in itertools.product(nonzero, repeat=2):
                    word = list(c)
                    word[0] = ext.add(word[0], e0)
                    word[j] = ext.add(word[j], ej)
                    words.append(tuple(word))
        rng = random.Random(8)
        words += [tuple(rng.choice(elements) for _ in range(5)) for _ in range(2000)]
        for word in words:
            try:
                ours = grs_decode(code, word)
            except DecodeFailure:
                ours = None
            try:
                ref = oracle_decode(code, word)
            except DecodeFailure:
                ref = None
            assert ours == ref, word


class TestOracle:
    def test_all_zero_word(self):
        result = oracle_decode(CODE_5_3, (0,) * 5)
        assert result.corrected_word == (0,) * 5
        assert result.message_poly == ()
        assert result.error_positions == ()

    def test_equidistant_words_fail_in_both_decoders(self):
        # n=6, dim=3: radius 1, minimum distance 4.  A word halfway between
        # two codewords at distance 4 is undecodable for both decoders.
        code = GrsCode(field=F7, points=(0, 1, 2, 3, 4, 5), multipliers=(1,) * 6, dim=3)
        zero = (0,) * 6
        # x(x-1) vanishes at two points: weight-4 codeword
        other = grs_encode(code, polyring.poly_mul(F7, [0, 1], [6, 1]))
        differing = [i for i in range(6) if other[i] != 0]
        assert len(differing) == 4
        received = list(zero)
        for pos in differing[:2]:
            received[pos] = other[pos]
        with pytest.raises(DecodeFailure):
            grs_decode(code, received)
        with pytest.raises(DecodeFailure):
            oracle_decode(code, received)

    def test_bucket_filter_equals_full_scan(self):
        rng = random.Random(5)
        for _ in range(200):
            received = [rng.randrange(7) for _ in range(5)]
            try:
                fast_result = oracle_decode(CODE_5_3, received)
                fast_out = (fast_result.corrected_word, fast_result.error_positions)
            except DecodeFailure:
                fast_out = None
            try:
                slow_result = oracle_decode(CODE_5_3, received, full_scan=True)
                slow_out = (slow_result.corrected_word, slow_result.error_positions)
            except DecodeFailure:
                slow_out = None
            assert fast_out == slow_out

    def test_enumeration_guard(self):
        big = GrsCode(
            field=PrimeField(101),
            points=tuple(range(20)),
            multipliers=(1,) * 20,
            dim=12,
        )
        with pytest.raises(EnumerationTooLarge):
            oracle_decode(big, tuple(range(20)))

    def test_extension_field_code(self):
        ext = FieldTower.build(7, 2).ext
        code = GrsCode(
            field=ext,
            points=tuple(ext.embed(i) for i in range(5)),
            multipliers=(ext.one,) * 5,
            dim=2,
        )
        rng = random.Random(6)
        for _ in range(25):
            msg = polyring.normalize(
                ext, [tuple(rng.randrange(7) for _ in range(2)) for _ in range(2)]
            )
            word = list(grs_encode(code, msg))
            pos = rng.randrange(5)
            word[pos] = ext.add(word[pos], ext.one)
            ours = grs_decode(code, word)
            ref = oracle_decode(code, word)
            assert ours.corrected_word == ref.corrected_word
            assert ours.error_positions == (pos,) == ref.error_positions


class TestDualMultipliers:
    def test_degenerate_no_alphas_gives_classical(self):
        _, v = dual_multipliers(F5, (), (0, 1, 2))
        expected = []
        for j, beta in enumerate((0, 1, 2)):
            prod = 1
            for l, other in enumerate((0, 1, 2)):
                if l != j:
                    prod = prod * (beta - other) % 5
            expected.append(pow(prod, 3, 5))  # inverse via a^(p-2)
        assert list(v) == expected

    def test_frozen_example(self):
        u, v = dual_multipliers(F5, (2,), (0, 1))
        assert u == (3,)
        assert v == (3, 4)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            dual_multipliers(F5, (2,), (2, 1))

    def test_residue_duality_identity(self):
        # sum_i u_i h(a_i) phi(a_i) + sum_j v_j h(b_j) phi(b_j) = 0
        # whenever deg(phi) < r and deg(h) < k + delta - r
        rng = random.Random(7)
        alphas, betas = (5, 6), (0, 1, 2, 3)
        u, v = dual_multipliers(F7, alphas, betas)
        for r in range(1, 6):
            hdim = len(alphas) + len(betas) - r
            for _ in range(40):
                phi = [rng.randrange(7) for _ in range(r)]
                h = [rng.randrange(7) for _ in range(hdim)]
                total = 0
                for mult, x in zip(u + v, alphas + betas):
                    total += (
                        mult
                        * polyring.poly_eval(F7, h, x)
                        * polyring.poly_eval(F7, phi, x)
                    )
                assert total % 7 == 0


def test_dual_code_orthogonality_exhaustive_tiny():
    # every dual-code word is orthogonal to every primal codeword
    alphas, betas = (4,), (0, 1, 2)
    r = 2
    u, v = dual_multipliers(F5, alphas, betas)
    hdim = len(alphas) + len(betas) - r
    points = alphas + betas
    for phi in itertools.product(range(5), repeat=r):
        primal = [polyring.poly_eval(F5, list(phi), x) for x in points]
        for h in itertools.product(range(5), repeat=hdim):
            dual = [
                m * polyring.poly_eval(F5, list(h), x) % 5
                for m, x in zip(u + v, points)
            ]
            assert sum(a * b for a, b in zip(primal, dual)) % 5 == 0
