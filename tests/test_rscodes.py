"""RS/GRS codes: interpolation, encoding, syndrome decoding, oracle agreement."""

import itertools
import math
import random

import numpy as np
import pytest

from conftest import build_tower

from tracepir import linalg, pir, polyring, rscodes
from tracepir.gf import PrimeField
from tracepir.rscodes import (
    DecodeFailure,
    EnumerationTooLarge,
    GrsCode,
    dual_multipliers,
    grs_decode,
    grs_encode,
    oracle_decode,
)

F7 = PrimeField(7)
F5 = PrimeField(5)
CODE_5_3 = GrsCode(field=F7, points=(0, 1, 2, 3, 4), multipliers=(1,) * 5, dim=3)


def lagrange_interpolate(field, points):
    """Reference: the unique polynomial of degree < n through n points with distinct x."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation points")
    result = [field.zero] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [field.one]
        denom = field.one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = polyring.poly_mul(field, basis, [field.neg(xj), field.one])
            denom = field.mul(denom, field.sub(xi, xj))
        term = polyring.poly_scale(field, field.mul(yi, field.inv(denom)), basis)
        result = [field.add(r, c) for r, c in zip(result, term + [field.zero] * len(result))]
    return polyring.normalize(field, result)


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

    @pytest.mark.parametrize("message", [[0.5, 1], [9, -3], [1, 7], [-1], ["1"]],
                             ids=["float", "above-and-negative", "q", "negative", "string"])
    def test_coefficients_outside_the_field_rejected(self, message):
        code = GrsCode(field=F7, points=(0, 1, 2, 3, 4), multipliers=(1,) * 5, dim=2)
        with pytest.raises(ValueError):
            grs_encode(code, message)

    def test_array_of_messages_matches_scalar_encode_row_by_row(self):
        code = GrsCode(field=F7, points=(0, 1, 2, 3, 5, 6), multipliers=(2, 3, 4, 5, 6, 1), dim=4)
        rng = random.Random(3)
        messages = [[rng.randrange(7) for _ in range(4)] for _ in range(30)]
        got = grs_encode(code, np.array(messages, dtype=np.uint8))
        assert got.shape == (30, 6) and got.dtype == np.int64
        assert got.tolist() == [list(grs_encode(code, message)) for message in messages]
        assert code.generator.shape == (4, 6) and not code.generator.flags.writeable
        assert grs_encode(code, np.zeros((0, 4), dtype=np.int64)).shape == (0, 6)

    @pytest.mark.parametrize("messages", [np.zeros((2, 4), dtype=np.int64), np.zeros((2, 2), dtype=np.int64),
                                          np.zeros((1, 2, 3), dtype=np.int64), np.full((2, 3), 7),
                                          np.full((2, 3), 0.5)])
    def test_array_of_messages_with_a_wrong_shape_or_entry_rejected(self, messages):
        with pytest.raises(ValueError):
            grs_encode(CODE_5_3, messages)

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

    @pytest.mark.parametrize(
        "dim,multipliers", [(1, (1,) * 5), (2, (1, 2, 3, 4, 2)), (1, (3, 1, 4, 2, 2))]
    )
    def test_every_word_matches_oracle_solving_only_off_the_code(self, monkeypatch, dim, multipliers):
        # all 5^5 words over GF(5): the syndrome decoder must give the
        # oracle's verdict, DecodeFailure included, with no solve on a
        # codeword and at most one on any other word.  0 is a code point,
        # and an error there adds no root to the connection polynomial,
        # only to its reversal; at dim 1 two errors, one of them at 0, are
        # within the radius
        code = GrsCode(field=F5, points=(0, 1, 2, 3, 4), multipliers=multipliers, dim=dim)
        solve = rscodes.linalg.solve
        calls = []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        codewords = {grs_encode(code, msg) for msg in itertools.product(range(5), repeat=dim)}
        monkeypatch.setattr(rscodes.linalg, "solve", counted)
        words = list(itertools.product(range(5), repeat=5))
        # the whole space as one batch too: its dirty words run the lockstep decoder
        batch = grs_decode(code, words)
        for row, word in enumerate(words):
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
            try:
                batched = batch.result(row)
            except DecodeFailure:
                batched = None
            assert batched == ref, word

    def test_extension_field_code_rejected_before_any_work(self):
        # one decoder: a code over F_{q^s} is refused before its word is
        # read or any of its tables is built
        ext = build_tower(7, 2).ext
        code = GrsCode(field=ext, points=tuple(ext.embed(i) for i in range(5)),
                       multipliers=(ext.one,) * 5, dim=3)
        with pytest.raises(TypeError, match="prime field"):
            grs_decode(code, "not a word")
        assert "check_matrix" not in vars(code) and "chien_powers" not in vars(code)


def assert_locator_alone_fails_beyond_the_radius(monkeypatch, code, rng):
    """Every word is off the code, half of them far beyond the radius.
    With a correction step that returns every word as it is, the distance
    guard never trips, so the locator's own check must alone fail exactly
    the rows that the real decode fails."""
    q = code.field.q
    words = []
    for row in range(400):
        word = list(grs_encode(code, [rng.randrange(q) for _ in range(code.dim)]))
        weight = rng.randrange(1, code.radius + 1) if row % 2 else code.n
        for pos in rng.sample(range(code.n), weight):
            word[pos] = (word[pos] + rng.randrange(1, q)) % q
        words.append(word)
    words = np.array(words, dtype=np.int64)
    decoded = grs_decode(code, words)
    assert 0 < decoded.failed.sum() < len(words) // 2 + 1
    assert np.count_nonzero(decoded.errors.any(axis=1)) == len(words) - decoded.failed.sum()
    monkeypatch.setattr(rscodes, "_corrected_words", lambda code, words, keys, syndromes: words.copy())
    injected = grs_decode(code, words)
    assert injected.failed.tolist() == decoded.failed.tolist()
    assert not injected.errors.any()
    assert injected.corrected[~decoded.failed].tolist() == words[~decoded.failed].tolist()


class TestBatchDecode:
    def test_every_word_of_the_space_matches_oracle_batched_and_alone(self):
        # all 7^5 words under CODE_5_3, as one batch and as batches of one
        words = list(itertools.product(range(7), repeat=5))
        batch = grs_decode(CODE_5_3, words)
        assert batch.corrected.shape == (len(words), 5)
        outcomes = set()
        for row, word in enumerate(words):
            try:
                ref = oracle_decode(CODE_5_3, word)
            except DecodeFailure:
                ref = None
            try:
                alone = grs_decode(CODE_5_3, word)
            except DecodeFailure:
                alone = None
            try:
                batched = batch.result(row)
            except DecodeFailure:
                batched = None
            assert batched == alone == ref, word
            if ref is None:
                assert batch.failed[row]
                assert not batch.corrected[row].any() and not batch.errors[row].any()
            outcomes.add(None if ref is None else len(ref.error_positions))
        assert outcomes == {None, 0, 1}

    def test_one_solve_and_encode_per_batch(self, monkeypatch):
        # 200 words with one error on one of five positions, or none: one
        # stacked solve and one re-encode for the whole batch, however
        # many located sets it holds
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rscodes.linalg, "solve", counted("solve", rscodes.linalg.solve))
        monkeypatch.setattr(rscodes, "grs_encode", counted("encode", rscodes.grs_encode))
        rng = random.Random(9)
        words, expected, located = [], [], set()
        for _ in range(200):
            word = grs_encode(CODE_5_3, [rng.randrange(7) for _ in range(3)])
            received = list(word)
            if rng.random() < 0.8:
                pos = rng.randrange(5)
                received[pos] = (received[pos] + rng.randrange(1, 7)) % 7
                located.add(pos)
            words.append(received)
            expected.append(word)
        assert len(located) == 5
        del calls[:]
        batch = grs_decode(CODE_5_3, np.array(words, dtype=np.int64))
        assert batch.corrected.tolist() == [list(word) for word in expected]
        assert not batch.failed.any()
        assert calls == ["solve", "encode"]

    def test_lone_word_reencodes_through_the_generator(self, monkeypatch):
        # one grs_encode call per lone word, with its message as a (1, dim)
        # array: one product with the cached generator, and no poly_eval
        code = GrsCode(field=PrimeField(11), points=tuple(range(9)), multipliers=tuple(range(1, 10)), dim=5)
        rng = random.Random(13)
        word = grs_encode(code, [rng.randrange(11) for _ in range(5)])
        received = list(word)
        for pos in (2, 7):
            received[pos] = (received[pos] + 4) % 11
        encoded, evaluated = [], []
        encode, poly_eval = rscodes.grs_encode, polyring.poly_eval
        monkeypatch.setattr(rscodes, "grs_encode", lambda c, m: encoded.append(np.shape(m)) or encode(c, m))
        monkeypatch.setattr(polyring, "poly_eval", lambda *args: evaluated.append(args) or poly_eval(*args))
        result = grs_decode(code, received)
        assert result.corrected_word == word and result.error_positions == (2, 7)
        assert encoded == [(1, 5)] and evaluated == []

    def test_lone_word_to_correct_solves_with_ints(self, monkeypatch):
        # only a batch's lone dirty word takes the scalar solve; one word to
        # correct among failures and codewords takes the stacked one
        code = GrsCode(field=PrimeField(11), points=tuple(range(9)), multipliers=(1,) * 9, dim=5)
        kinds = []
        solve = rscodes.linalg.solve

        def recorded(field, rows, rhs):
            kinds.append(type(rows).__name__)
            return solve(field, rows, rhs)

        monkeypatch.setattr(rscodes.linalg, "solve", recorded)
        rng = random.Random(12)
        words = [list(grs_encode(code, [rng.randrange(11) for _ in range(5)])) for _ in range(6)]
        for pos in (0, 3, 5):  # three errors: beyond the radius 2, so the word fails
            words[1][pos] = (words[1][pos] + 1) % 11
        for pos in (2, 7):
            words[4][pos] = (words[4][pos] + 5) % 11
        batch = grs_decode(code, words)
        assert batch.failed.tolist() == [False, True, False, False, False, False]
        assert batch.errors[4].tolist() == [i in (2, 7) for i in range(9)]
        assert kinds == ["ndarray"]
        del kinds[:]
        lone = grs_decode(code, [words[4], words[5]])  # one dirty word among codewords
        assert kinds == ["list"]
        assert lone.corrected[0].tolist() == batch.corrected[4].tolist()
        words[0][6] = (words[0][6] + 3) % 11  # a second word to correct
        del kinds[:]
        again = grs_decode(code, words)
        assert kinds == ["ndarray"]
        assert again.corrected[1:].tolist() == batch.corrected[1:].tolist()
        assert again.result(0) == grs_decode(code, words[0])

    @pytest.mark.parametrize(
        "rows", [(1,), (1, 2), (0, 1, 2)], ids=["lone", "stacked", "every-word-dirty"]
    )
    def test_distance_guard_fails_a_far_correction(self, monkeypatch, rows):
        # the re-encoded word always lies within the radius; a correction
        # that does not (here the zero word: a nonzero message of degree
        # below 5 vanishes on at most 4 of the 9 points) must fail its row
        # alone and leave the batch's codewords as they are, also when no
        # word of the batch is a codeword.  The stacked correction sees the
        # codewords too, with nothing located, and re-encodes them as they are
        code = GrsCode(field=PrimeField(11), points=tuple(range(9)), multipliers=(1,) * 9, dim=5)
        rng = random.Random(14)
        words = [list(grs_encode(code, [rng.randrange(1, 11) for _ in range(5)])) for _ in range(3)]
        for row in rows:
            words[row][3] = (words[row][3] + 2) % 11
        monkeypatch.setattr(
            rscodes, "_corrected_alone", lambda code, word, located, syndrome: np.zeros(9, dtype=np.int64)
        )
        monkeypatch.setattr(
            rscodes, "_corrected_words",
            lambda code, words, keys, syndromes: np.where((keys != 0)[:, None], 0, words),
        )
        batch = grs_decode(code, words)
        dirty = [row in rows for row in range(3)]
        assert batch.failed.tolist() == dirty
        assert not batch.errors.any()
        assert batch.corrected.tolist() == [[0] * 9 if bad else word for bad, word in zip(dirty, words)]

    @pytest.mark.parametrize("q", [11, 2**31 - 1])
    def test_every_padded_located_set_gives_an_invertible_system(self, q):
        # every located set of size <= tau, its positions first and then the
        # first unlocated ones up to tau, gives an invertible tau x tau
        # system whose solution against a planted error's first tau
        # syndromes is that error, 0 at the padding.  Over GF(11) every set
        # on the (11,1,2,8) trace code's points, 0 among them; at
        # q = 2^31 - 1 random sets of random points, tau = 4
        rng = random.Random(q % 1009)
        if q == 11:
            code, _ = pir._trace_code_tables(pir.setup(11, 1, 2, 8, m=2))
            assert 0 in code.points and code.radius == 2
            sets = [located for size in range(code.radius + 1)
                    for located in itertools.combinations(range(code.n), size)]
        else:
            code = GrsCode(field=PrimeField(q), points=tuple(rng.sample(range(q), 14)),
                           multipliers=tuple(rng.randrange(1, q) for _ in range(14)), dim=6)
            sets = [tuple(sorted(rng.sample(range(code.n), rng.randrange(code.radius + 1))))
                    for _ in range(300)]
        tau = code.radius
        located = np.zeros((len(sets), code.n), dtype=bool)
        errors = np.zeros((len(sets), code.n), dtype=np.int64)
        for row, positions in enumerate(sets):
            located[row, list(positions)] = True
            errors[row, list(positions)] = [rng.randrange(1, q) for _ in positions]
        positions, systems = rscodes._error_systems(code, located)
        assert systems.shape == (len(sets), tau, tau)
        _, invertible = linalg.solve_stacked(q, systems, np.zeros((len(sets), tau, 0), dtype=np.int64))
        assert invertible.all()
        syndromes = linalg.matmul_mod(errors, code.check_matrix[:, :tau], q)
        values = linalg.solve(code.field, systems, syndromes[:, :, None])[:, :, 0]
        for row, located_set in enumerate(sets):
            padding = [i for i in range(code.n) if i not in located_set][: tau - len(located_set)]
            assert positions[row].tolist() == list(located_set) + padding
            assert values[row].tolist() == errors[row, positions[row]].tolist()

    @pytest.mark.parametrize("q", [11, 2**31 - 1])
    def test_interpolation_gives_back_the_message(self, q):
        # a codeword's first dim symbols times the cached inverse of the
        # generator's first dim columns are its message, the point 0 included
        rng = random.Random(q % 1013)
        points = (0, *rng.sample(range(1, q), 9))
        code = GrsCode(field=PrimeField(q), points=points,
                       multipliers=tuple(rng.randrange(1, q) for _ in range(10)), dim=6)
        messages = np.array([[rng.randrange(q) for _ in range(6)] for _ in range(50)], dtype=np.int64)
        codewords = grs_encode(code, messages)
        assert linalg.matmul_mod(codewords[:, :6], code.interpolation, q).tolist() == messages.tolist()
        assert code.interpolation.shape == (6, 6) and not code.interpolation.flags.writeable

    def test_radius_0_code_fails_every_dirty_row_batched_and_alone(self):
        # n - dim = 1: tau = 0, so the error-value systems are empty and every
        # word off the code lies beyond the radius, in a batch with several
        # such words as alone; the codewords pass as they are
        code = GrsCode(field=PrimeField(11), points=tuple(range(6)), multipliers=(1, 2, 3, 4, 5, 6), dim=5)
        assert code.radius == 0
        rng = random.Random(33)
        words = [list(grs_encode(code, [rng.randrange(11) for _ in range(5)])) for _ in range(8)]
        dirty = [row in (1, 4, 5) for row in range(8)]
        for row in (1, 4, 5):
            pos = rng.randrange(6)
            words[row][pos] = (words[row][pos] + rng.randrange(1, 11)) % 11
        batch = grs_decode(code, words)
        assert batch.failed.tolist() == dirty
        assert not batch.errors.any()
        assert batch.corrected.tolist() == [[0] * 6 if bad else word for bad, word in zip(dirty, words)]
        for word, bad in zip(words, dirty):
            if bad:
                with pytest.raises(DecodeFailure):
                    grs_decode(code, word)
            else:
                assert grs_decode(code, word).corrected_word == tuple(word)

    def test_mixed_batch_exact_near_q_2_to_the_31(self):
        # GF(2^31 - 1): honest words, words on several located sets and
        # several words on one shared set; an unreduced fraction-free update
        # or product leaves int64 here
        q = 2**31 - 1
        rng = random.Random(31)
        code = GrsCode(field=PrimeField(q), points=tuple(rng.sample(range(q), 9)),
                       multipliers=tuple(rng.randrange(1, q) for _ in range(9)), dim=5)
        error_sets = [(), (), (0,), (8,), (1, 6), (2, 3), (4, 7), (5,)] + [(3, 5)] * 6
        words, planted = [], []
        for positions in error_sets:
            codeword = grs_encode(code, [rng.randrange(q - 1000, q) for _ in range(5)])
            word = list(codeword)
            for pos in positions:
                word[pos] = (word[pos] + rng.randrange(1, q)) % q
            words.append(word)
            planted.append(codeword)
        batch = grs_decode(code, words)
        assert not batch.failed.any()
        assert batch.corrected.tolist() == [list(codeword) for codeword in planted]
        for row, (word, positions) in enumerate(zip(words, error_sets)):
            alone = grs_decode(code, word)
            assert batch.result(row) == alone
            assert alone.error_positions == positions

    def test_honest_batch_makes_no_solve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("solve on a codeword")

        monkeypatch.setattr(rscodes.linalg, "solve", forbidden)
        words = [grs_encode(CODE_5_3, [a, 1, 2]) for a in range(7)]
        batch = grs_decode(CODE_5_3, words)
        assert batch.corrected.tolist() == [list(w) for w in words]
        assert not batch.errors.any() and not batch.failed.any()

    @pytest.mark.parametrize("corrupted", [1, 2])
    def test_one_dirty_word_runs_the_scalar_recurrence(self, monkeypatch, corrupted):
        # a batch with exactly one word off the code runs the per-word
        # Berlekamp-Massey, a batch with more the lockstep one; each
        # corrected row must be that word's decode alone either way
        code = GrsCode(field=PrimeField(11), points=tuple(range(9)), multipliers=tuple(range(1, 10)), dim=3)
        rng = random.Random(10)
        words = [list(grs_encode(code, [rng.randrange(11) for _ in range(3)])) for _ in range(40)]
        for row, positions in zip((7, 23), ((0, 4), (2, 5, 8))[:corrupted]):
            for pos in positions:
                words[row][pos] = (words[row][pos] + rng.randrange(1, 11)) % 11
        alone = [grs_decode(code, word) for word in words]
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rscodes, "_berlekamp_massey", counted("scalar", rscodes._berlekamp_massey))
        monkeypatch.setattr(
            rscodes, "_lockstep_berlekamp_massey",
            counted("lockstep", rscodes._lockstep_berlekamp_massey),
        )
        batch = grs_decode(code, words)
        assert calls == (["scalar"] if corrupted == 1 else ["lockstep"])
        assert not batch.failed.any()
        assert [batch.result(row) for row in range(len(words))] == alone
        assert [len(result.error_positions) for result in alone].count(0) == len(words) - corrupted

    @pytest.mark.parametrize("q", [2, 3, 7, 65521, 2**31 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_lockstep_berlekamp_massey_matches_scalar(self, q, n):
        # row by row: the same length, and a nonzero multiple of the scalar
        # connection polynomial; at q = 2^31 - 1 an unreduced sum of
        # products leaves int64.  A mixed batch, one row alone and a batch
        # of zero rows, each as a (D, N) array and as the transpose of an
        # (N, D) one, the layout the decoder passes
        F = PrimeField(q)
        rng = random.Random(q * 10 + n)
        rows = [[0 if rng.random() < 0.2 else rng.randrange(q) for _ in range(n)] for _ in range(300)]
        rows[::17] = [[0] * n] * len(rows[::17])
        for batch in (rows, rows[1:2], [[0] * n] * 5):
            for syndromes in (np.array(batch, dtype=np.int64), np.array(batch, dtype=np.int64).T.copy().T):
                conn, length = rscodes._lockstep_berlekamp_massey(q, syndromes)
                assert conn.shape == (len(batch), n + 1)
                assert length.shape == (len(batch),)
                for row, syndrome in enumerate(batch):
                    expected, expected_length = rscodes._berlekamp_massey(F, syndrome)
                    assert length[row] == expected_length, syndrome
                    expected = expected + [0] * (n + 1 - len(expected))
                    assert not any(expected[n + 1:]), syndrome
                    scale = conn[row, 0].item()
                    assert scale != 0, syndrome
                    assert conn[row].tolist() == [scale * c % q for c in expected[: n + 1]], syndrome

    def test_chunk_of_dirty_correctable_words_equals_each_word_alone(self):
        # 2,000 words, each a codeword with 1..tau errors, as an exhaustive
        # sweep chunk holds them: every row is off the code and every row is
        # corrected in the batch's one array pass
        code = GrsCode(field=PrimeField(11), points=tuple(range(11)),
                       multipliers=tuple(range(1, 11)) + (3,), dim=7)
        rng = random.Random(27)
        words = []
        for _ in range(2000):
            word = list(grs_encode(code, [rng.randrange(11) for _ in range(code.dim)]))
            for pos in rng.sample(range(code.n), rng.randrange(1, code.radius + 1)):
                word[pos] = (word[pos] + rng.randrange(1, 11)) % 11
            words.append(word)
        batch = grs_decode(code, np.array(words, dtype=np.int64))
        assert not batch.failed.any()
        for row, word in enumerate(words):
            alone = grs_decode(code, word)
            assert batch.result(row) == alone, word
            assert 1 <= len(alone.error_positions) <= code.radius, word

    def test_stacked_error_values_exact_near_q_2_to_the_31_at_radius_4(self):
        # at q = 2^31 - 1 two products below q^2 fill int64, so the error
        # values' sum of tau = 4 products must be reduced on the way; words
        # with 1..4 errors near q, on many located sets
        q = 2**31 - 1
        rng = random.Random(2147)
        code = GrsCode(field=PrimeField(q), points=tuple(rng.sample(range(q), 14)),
                       multipliers=tuple(rng.randrange(1, q) for _ in range(14)), dim=6)
        assert code.radius == 4
        words, planted = [], []
        for _ in range(400):
            codeword = grs_encode(code, [rng.randrange(q - 1000, q) for _ in range(code.dim)])
            word = list(codeword)
            for pos in rng.sample(range(code.n), rng.randrange(1, code.radius + 1)):
                word[pos] = (word[pos] + rng.randrange(1, q)) % q
            words.append(word)
            planted.append(list(codeword))
        batch = grs_decode(code, np.array(words, dtype=np.int64))
        assert not batch.failed.any()
        assert batch.corrected.tolist() == planted

    @pytest.mark.parametrize("n", [63, 64])
    def test_located_set_keys_on_either_side_of_63_points(self, n):
        # a code of at most 63 points keys each located set by one int64 of
        # its mask's bits, a larger one by its packed bytes; on both sides,
        # with errors on the last point (the highest bit), every row of a
        # batch must be that word's decode alone
        q = 67
        rng = random.Random(n)
        code = GrsCode(field=PrimeField(q), points=tuple(rng.sample(range(q), n)),
                       multipliers=tuple(rng.randrange(1, q) for _ in range(n)), dim=n - 6)
        messages = np.array([[rng.randrange(q) for _ in range(code.dim)] for _ in range(120)], dtype=np.int64)
        words = grs_encode(code, messages)
        for row, word in enumerate(words):
            positions = rng.sample(range(n - 1), rng.randrange(code.radius + 2))
            if row % 2:
                positions = [n - 1, *positions][: code.radius]
            word[positions] = (word[positions] + [rng.randrange(1, q) for _ in positions]) % q
        batch = grs_decode(code, words)
        assert 0 < batch.failed.sum() and batch.errors[:, n - 1].sum() >= 40
        for row, word in enumerate(words):
            try:
                alone = grs_decode(code, word)
            except DecodeFailure:
                assert batch.failed[row], word
                continue
            assert batch.result(row) == alone, word

    def test_chien_check_alone_fails_the_words_beyond_the_radius(self, monkeypatch):
        # the (11, 5) code's 11^6 syndrome values are above the table budget,
        # so the Chien root count is its locator's check
        code = GrsCode(field=PrimeField(11), points=tuple(range(11)), multipliers=(1,) * 11, dim=5)
        assert rscodes._located_sets(code) is None
        assert_locator_alone_fails_beyond_the_radius(monkeypatch, code, random.Random(15))

    def test_located_set_check_alone_fails_the_words_beyond_the_radius(self, monkeypatch):
        # the (11, 7) code's 11^4 syndrome values fit the budget: the table's
        # missing entries are its locator's check, and the Chien root count
        # where the budget is forced to 0
        code = GrsCode(field=PrimeField(11), points=tuple(range(11)), multipliers=(1,) * 11, dim=7)
        assert (rscodes._located_sets(code) is None) == (rscodes.SYNDROME_TABLE_ENTRIES == 0)
        assert_locator_alone_fails_beyond_the_radius(monkeypatch, code, random.Random(16))

    def test_locator_follows_the_table_budget(self, monkeypatch):
        # CODE_5_3's 49 syndrome values fit the budget: its dirty words are
        # located by the table, batched and alone, and only with the budget
        # forced to 0 by the lockstep and the scalar recurrence
        calls = []
        scalar, lockstep = rscodes._berlekamp_massey, rscodes._lockstep_berlekamp_massey
        monkeypatch.setattr(
            rscodes, "_berlekamp_massey", lambda *args: calls.append("scalar") or scalar(*args)
        )
        monkeypatch.setattr(
            rscodes, "_lockstep_berlekamp_massey", lambda *args: calls.append("lockstep") or lockstep(*args)
        )
        words = [list(grs_encode(CODE_5_3, [a, 1, 2])) for a in range(4)]
        for row in (1, 2):
            words[row][row] = (words[row][row] + 3) % 7
        batch = grs_decode(CODE_5_3, words)
        assert grs_decode(CODE_5_3, words[1]) == batch.result(1)
        assert batch.errors.sum() == 2 and not batch.failed.any()
        assert calls == ([] if rscodes.SYNDROME_TABLE_ENTRIES else ["lockstep", "scalar"])

    @pytest.mark.parametrize("q", [11, 2**31 - 1])
    def test_random_batches_equal_each_row_decoded_alone(self, q):
        # batches of up to 2,500 words mixing codewords, 1..tau errors and
        # more than tau; some batches hold at most one word to correct (the
        # scalar solve), others many (the stacked one).  Every row must be
        # that word's decode alone, and over GF(11) the oracle's verdict
        rng = random.Random(q % 1000)
        n, dim = (8, 4) if q == 11 else (9, 5)
        code = GrsCode(field=PrimeField(q), points=tuple(rng.sample(range(q), n)),
                       multipliers=tuple(rng.randrange(1, q) for _ in range(n)), dim=dim)
        tau = code.radius

        def word(weight):
            received = list(grs_encode(code, [rng.randrange(q) for _ in range(dim)]))
            for pos in rng.sample(range(n), weight):
                received[pos] = (received[pos] + rng.randrange(1, q)) % q
            return received

        kept_counts = set()
        for size, lone in ((1, True), (2, True), (7, True), (40, True), (300, True),
                           (2, False), (40, False), (2500, False)):
            if lone:  # codewords and words beyond tau around one word to correct
                weights = [rng.choice([0, tau + 1, n]) for _ in range(size - 1)]
                weights.insert(rng.randrange(size), rng.randrange(1, tau + 1))
            else:  # two words to correct, then any weight
                weights = [rng.randrange(1, tau + 1) for _ in range(2)]
                weights += [rng.choice([0, 0] + list(range(1, n + 1))) for _ in range(size - 2)]
                rng.shuffle(weights)
            words = [word(weight) for weight in weights]
            batch = grs_decode(code, np.array(words, dtype=np.int64))
            corrected = 0
            for row, received in enumerate(words):
                try:
                    alone = grs_decode(code, received)
                except DecodeFailure:
                    alone = None
                if q == 11:
                    try:
                        assert oracle_decode(code, received) == alone, received
                    except DecodeFailure:
                        assert alone is None, received
                if alone is None:
                    assert batch.failed[row], received
                    assert not batch.corrected[row].any() and not batch.errors[row].any()
                    continue
                assert not batch.failed[row], received
                assert batch.corrected[row].tolist() == list(alone.corrected_word), received
                assert np.flatnonzero(batch.errors[row]).tolist() == list(alone.error_positions)
                corrected += bool(alone.error_positions)
            kept_counts.add(corrected if lone else "many")
            if not lone:
                assert corrected >= 2
        assert kept_counts >= {1, "many"}

    def test_empty_batch(self):
        batch = grs_decode(CODE_5_3, np.zeros((0, 5), dtype=np.int64))
        assert batch.corrected.shape == (0, 5) and batch.failed.shape == (0,)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, None], ids=["int64", "uint8", "ints"])
    def test_integer_batches_accepted(self, dtype):
        words = [list(grs_encode(CODE_5_3, [a, 1, 2])) for a in range(7)]
        words[3][1] = (words[3][1] + 1) % 7
        received = words if dtype is None else np.array(words, dtype=dtype)
        batch = grs_decode(CODE_5_3, received)
        assert batch.errors.sum() == 1 and batch.errors[3, 1] and not batch.failed.any()

    @pytest.mark.parametrize(
        "received",
        [(0, 0, 0, 0, 7), [[0, 0, 0, 0, 7]], [[0, 0, -1, 0, 0]], [[0] * 4], [[[0] * 5]],
         [[0, 0, 0, 0, 2**70]], [["a"] * 5], [[0, 0, 0, 0, 0.5]], [(1.0,) * 5], [[0j] * 5],
         [[0, 0, "1", 0, 0]], np.zeros((2, 5), dtype=object)],
    )
    def test_bad_words_rejected(self, received):
        with pytest.raises(ValueError):
            grs_decode(CODE_5_3, received)


@pytest.mark.usefixtures("forced_reduction")
class TestBatchDecodeOnEachReductionBranch(TestBatchDecode):
    """Every batch-decoder test again, with `linalg.reduce_mod` forced onto
    its division form for tiny arrays and onto ``%=`` for chunk-size ones."""


@pytest.mark.usefixtures("forced_recurrence")
class TestBatchDecodeOnTheRecurrence(TestBatchDecode):
    """Every batch-decoder test again with the located-set table budget at
    0, so that every code, those within the default budget too, is located
    by the Berlekamp-Massey recurrence and the Chien search."""


class TestLocatedSets:
    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        # a test that moves the budget must leave no table, or no None, behind
        rscodes._located_sets.cache_clear()
        yield
        rscodes._located_sets.cache_clear()

    @pytest.mark.parametrize(
        "scheme,sphere",
        [((5, 1, 1, 4), 21), ((7, 1, 1, 5), 43), ((11, 1, 2, 8), 5611), ((13, 1, 2, 9), 11389),
         ((17, 1, 2, 8), 35089)],
        ids=["q5", "q7", "verify", "bulk", "small"],
    )
    def test_every_error_up_to_the_radius_maps_to_its_support(self, scheme, sphere):
        # on trace codes, which all hold the point 0: entry sum_e S_e q^e of
        # each error of weight <= tau is its support's bit mask, and every
        # other entry is -1; the entries >= 0 number the Hamming sphere
        # sum_w C(n, w) (q - 1)^w
        code, _ = pir._trace_code_tables(pir.setup(*scheme, m=2))
        q, n, tau = code.field.q, code.n, code.radius
        assert 0 in code.points
        table = rscodes._located_sets(code)
        assert table.shape == (q ** (n - code.dim),) and table.dtype == np.int64
        assert not table.flags.writeable
        errors, masks = [], []
        for weight in range(tau + 1):
            for support in itertools.combinations(range(n), weight):
                for values in itertools.product(range(1, q), repeat=weight):
                    error = [0] * n
                    for i, value in zip(support, values):
                        error[i] = value
                    errors.append(error)
                    masks.append(sum(1 << i for i in support))
        assert len(errors) == sphere == sum(math.comb(n, w) * (q - 1) ** w for w in range(tau + 1))
        syndromes = linalg.matmul_mod(np.array(errors, dtype=np.int64), code.check_matrix, q).tolist()
        index = [sum(s * q**e for e, s in enumerate(row)) for row in syndromes]
        assert table[index].tolist() == masks
        assert np.count_nonzero(table >= 0) == sphere
        assert np.count_nonzero(table == -1) == len(table) - sphere

    @pytest.mark.parametrize("scheme", [(20, 3, 3, 20), None], ids=["37^6-syndromes", "64-points"])
    def test_over_the_budget_no_table_is_allocated_and_the_recurrence_decodes(self, monkeypatch, scheme):
        # (20,3,3,20) has 37^6 syndrome values; a 64-point code only 67^2,
        # but its masks would leave int64.  Neither allocates a table, and
        # their dirty words run the lockstep recurrence
        if scheme is None:
            code = GrsCode(field=PrimeField(67), points=tuple(range(64)), multipliers=(1,) * 64, dim=62)
        else:
            code, _ = pir._trace_code_tables(pir.setup(*scheme, m=2))
        q = code.field.q
        rng = random.Random(code.n)
        messages = np.array([[rng.randrange(q) for _ in range(code.dim)] for _ in range(30)], dtype=np.int64)
        codewords = grs_encode(code, messages)
        words = codewords.copy()
        for word in words:
            positions = rng.sample(range(code.n), rng.randrange(1, code.radius + 1))
            word[positions] = (word[positions] + [rng.randrange(1, q) for _ in positions]) % q

        def refused(*args, **kwargs):
            raise AssertionError("a syndrome table was allocated")

        calls = []
        lockstep = rscodes._lockstep_berlekamp_massey
        monkeypatch.setattr(np, "full", refused)
        monkeypatch.setattr(
            rscodes, "_lockstep_berlekamp_massey", lambda *args: calls.append(1) or lockstep(*args)
        )
        assert rscodes._located_sets(code) is None
        batch = grs_decode(code, words)
        assert calls == [1] and not batch.failed.any()
        assert batch.corrected.tolist() == codewords.tolist()

    def test_the_budget_admits_exactly_its_entries(self, monkeypatch):
        for budget, built in ((49, True), (48, False)):
            monkeypatch.setattr(rscodes, "SYNDROME_TABLE_ENTRIES", budget)
            rscodes._located_sets.cache_clear()
            assert (rscodes._located_sets(CODE_5_3) is not None) == built

    def test_an_index_written_twice_raises(self, monkeypatch):
        # no two errors of weight <= tau share a syndrome on an MDS code; a
        # radius one too large breaks that, and the build must raise, not
        # keep the last error written
        monkeypatch.setattr(GrsCode, "radius", property(lambda self: (self.n - self.dim) // 2 + 1))
        with pytest.raises(RuntimeError, match="share a syndrome"):
            rscodes._located_sets(CODE_5_3)


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
        # the oracle works over any field: over F_{q^s} it referees full-mode retrieval
        ext = build_tower(7, 2).ext
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
            codeword = grs_encode(code, msg)
            word = list(codeword)
            pos = rng.randrange(5)
            word[pos] = ext.add(word[pos], ext.one)
            ref = oracle_decode(code, word)
            assert ref.corrected_word == codeword
            assert ref.error_positions == (pos,)
            assert ref.message_poly == tuple(msg)


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
