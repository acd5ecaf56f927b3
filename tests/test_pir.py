"""Scheme parameters, queries, answers, retrieval, capacity, serialization."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tracepir import gf, pir, polyring, rscodes
from tracepir.pir import (
    AnswerSet,
    ByzantineBudgetExceeded,
    Database,
    DatabaseFormatError,
    InvalidParameters,
)
from tracepir.rand import SeededStream

DATA = Path(__file__).resolve().parent / "data"


class TestSetup:
    def test_s1_instance(self, params_small):
        p = params_small
        assert (p.delta, p.s, p.q) == (1, 1, 7)
        assert p.omega_beta == (0, 1, 2, 3)
        assert p.omega_chi == ((4,),)
        assert p.omega_alpha == ((5,),)

    def test_s2_instance(self, params_ext):
        p = params_ext
        assert (p.delta, p.s, p.q) == (2, 2, 7)
        assert p.omega_beta == tuple(range(7))

    def test_divisibility_violation(self):
        with pytest.raises(InvalidParameters) as err:
            pir.setup(4, 1, 1, 5)
        assert err.value.constraint == "delta | (k-2b-t)"

    def test_threshold_violation(self):
        with pytest.raises(InvalidParameters):
            pir.setup(4, 1, 1, 3)  # r - 2b = 1 = t

    def test_q_hint(self):
        p = pir.setup(4, 1, 1, 4, q_hint=11)
        assert p.q == 11
        with pytest.raises(InvalidParameters):
            pir.setup(4, 1, 1, 4, q_hint=5)  # below k + delta + t
        with pytest.raises(ValueError):
            pir.setup(4, 1, 1, 4, q_hint=9)  # not prime

    def test_field_size_guard_before_search(self, monkeypatch):
        # s = 12 over GF(13): the guard must fire before any irreducible work
        def no_search(*args):
            raise AssertionError("irreducible search ran before the field-size guard")

        monkeypatch.setattr(pir, "irreducible_count", no_search)
        monkeypatch.setattr(pir, "find_irreducibles", no_search)
        with pytest.raises(InvalidParameters) as err:
            pir.setup(13, 1, 0, 2)
        assert err.value.constraint == "field-size-guard"

    def test_golden_params(self):
        # frozen from the exhaustive root scan and full irreducible search,
        # at s = 2, 3, 4 and 5
        with open(DATA / "golden_params.json") as fh:
            cases = json.load(fh)
        assert [case["params"]["s"] for case in cases] == [2, 3, 4, 5]
        for case in cases:
            sc = case["scheme"]
            p = pir.setup(sc["k"], sc["t"], sc["b"], sc["r"])
            assert pir.params_to_json_dict(p) == case["params"]

    @pytest.mark.parametrize("q,s", [(3, 2), (7, 2), (3, 3), (3, 4)])
    def test_find_root_is_smallest_root(self, q, s):
        base = gf.PrimeField(q)
        irreducibles = gf.find_irreducibles(base, s, gf.irreducible_count(q, s))
        # the first modulus takes the xi shortcut for itself, the last does not
        for modulus in (irreducibles[0], irreducibles[-1]):
            ext = gf.ExtField(base, s, modulus)
            for f in irreducibles:
                smallest = min(x for x in ext.elements() if ext.eval_base_poly(f, x) == ext.zero)
                assert pir._find_root(ext, f) == smallest

    def test_sets_disjoint_and_alpha_roots(self, params_ext):
        p = params_ext
        ext = p.ext
        points = list(p.omega_alpha) + list(p.omega_chi) + [ext.embed(x) for x in p.omega_beta]
        assert len(set(points)) == len(points)
        for alpha, f in zip(p.omega_alpha, p.min_polys):
            assert ext.eval_base_poly(f, alpha) == ext.zero
        # chi points are not roots of any alpha minimal polynomial
        for chi in p.omega_chi:
            for f in p.min_polys:
                assert ext.eval_base_poly(f, chi) != ext.zero

    def test_recovery_poly_identity(self, params_ext):
        p = params_ext
        ext = p.ext
        for i, alpha in enumerate(p.omega_alpha):
            excl = ext.one
            for l, f in enumerate(p.min_polys):
                if l != i:
                    excl = ext.mul(excl, ext.eval_base_poly(f, alpha))
            for d in range(p.s):
                value = ext.mul(ext.eval_base_poly(p.recovery_polys[i][d], alpha), excl)
                assert ext.mul(value, p.u[i]) == p.eta[d]

    def test_multipliers_match_direct_products(self, params_small):
        p = params_small
        ext = p.ext
        u, v = rscodes.dual_multipliers(
            ext, p.omega_alpha, tuple(ext.embed(x) for x in p.omega_beta)
        )
        assert (u, v) == (p.u, p.v)
        assert p.u == ((1,),)  # (5-0)(5-1)(5-2)(5-3) = 120 = 1 mod 7
        assert p.v == ((4,), (6,), (6,), (4,))

    def test_setup_is_deterministic(self):
        a = pir.setup(7, 1, 1, 5, m=4)
        b = pir.setup(7, 1, 1, 5, m=4)
        assert a == b

    def test_b0_chain(self):
        p = pir.setup(5, 1, 0, 3)
        assert (p.delta, p.s) == (2, 2)
        p = pir.setup(5, 1, 0, 2)  # delta=1 always divides
        assert (p.delta, p.s) == (1, 4)
        with pytest.raises(InvalidParameters):
            pir.setup(6, 1, 0, 4)  # delta=3 does not divide k-t=5


class TestValidateOptimality:
    def test_setup_outputs_all_true(self, params_small, params_ext):
        for p in (params_small, params_ext):
            report = pir.validate_optimality(p)
            assert report.all_ok

    def test_hypothetical_oversized_s(self):
        report = pir.validate_optimality((9, 1, 2, 5), delta=1, s=5)
        # s * delta = 5 >= k - 2b - t = 4, but not equal
        assert report.size_lower_bound_ok
        assert not report.file_size_optimal

    def test_divisibility_flag(self):
        report = pir.validate_optimality((4, 1, 1, 5))
        assert not report.divisibility
        report = pir.validate_optimality((9, 1, 1, 6))  # r-2b-t=3, k-2b-t=6
        assert report.divisibility


class TestQueries:
    def test_indicator_constraints_at_alpha(self, params_ext):
        p = params_ext
        ext = p.ext
        queries = pir.gen_queries(p, 3, SeededStream(11, "q"))
        alpha_polys, chi_polys = pir.lagrange_basis_polys(p)
        # rebuild each entry's curve from its defining coefficients and
        # check the interpolation constraints and the server evaluations
        for i in range(p.m):
            for l in range(p.delta):
                curve = []
                if i == 3 - 1:
                    curve = list(alpha_polys[l])
                for h in range(p.t):
                    term = polyring.poly_scale(ext, tuple(queries.blinding[h][i][l]), list(chi_polys[h]))
                    curve = polyring.poly_add(ext, curve, term)
                assert polyring.degree(curve) <= p.t + p.delta - 1
                for n, alpha in enumerate(p.omega_alpha):
                    expected = ext.one if (i == 3 - 1 and l == n) else ext.zero
                    assert polyring.poly_eval(ext, curve, alpha) == expected
                for h, chi in enumerate(p.omega_chi):
                    assert polyring.poly_eval(ext, curve, chi) == tuple(queries.blinding[h][i][l])
                for j, beta in enumerate(p.omega_beta):
                    assert (
                        polyring.poly_eval(ext, curve, ext.embed(beta))
                        == tuple(queries.per_server[j][i][l])
                    )

    def test_iota_out_of_range(self, params_small):
        with pytest.raises(IndexError):
            pir.gen_queries(params_small, 0, 1)
        with pytest.raises(IndexError):
            pir.gen_queries(params_small, 4, 1)

    def test_golden_query_set(self):
        # frozen once from the implementation itself; catches any silent
        # change to the randomness layout or curve evaluation
        with open(DATA / "golden_queries.json") as fh:
            golden = json.load(fh)
        p = pir.setup(4, 1, 1, 4, m=2)
        queries = pir.gen_queries(p, golden["iota"], SeededStream(golden["seed"], "query"))
        ext = p.ext
        got = [
            [[ext.format_element(entry) for entry in row] for row in server]
            for server in queries.per_server
        ]
        assert got == golden["per_server"]
        got_blinding = [
            [[ext.format_element(entry) for entry in row] for row in array]
            for array in queries.blinding
        ]
        assert got_blinding == golden["blinding"]

    def test_golden_vectors_s2_s3(self):
        # frozen from the tuple implementation before the array data plane:
        # blinding, queries, database and both answer modes at s = 2 and 3
        with open(DATA / "golden_vectors.json") as fh:
            cases = json.load(fh)
        assert [case["s"] for case in cases] == [2, 3]
        for case in cases:
            sc = case["scheme"]
            p = pir.setup(sc["k"], sc["t"], sc["b"], sc["r"], m=sc["m"])
            assert (p.q, p.s) == (case["q"], case["s"])
            fmt = p.ext.format_element
            db = pir.random_database(p, case["db_seed"])
            queries = pir.gen_queries(p, case["iota"], SeededStream(case["seed"], "query"))
            assert [[fmt(x) for x in row] for row in db.array.tolist()] == case["database"]
            for name in ("blinding", "per_server"):
                got = [[[fmt(x) for x in row] for row in arr] for arr in getattr(queries, name)]
                assert got == case[name]
            trace = pir.collect_answers(p, queries, db, "trace").values
            full = pir.collect_answers(p, queries, db, "full").values
            assert list(trace) == case["trace_answers"]
            assert all(type(v) is int for v in trace)
            assert [fmt(x) for x in full] == case["full_answers"]
            assert all(type(c) is int for x in full for c in x)

    def test_marginal_uniformity_exhaustive(self):
        # for every server and entry, the query value is a bijection of the
        # single blinding value, hence exactly uniform
        p = pir.setup(4, 1, 1, 4, m=2)
        ext = p.ext
        for iota in (1, 2):
            for j in range(p.k):
                for i in range(p.m):
                    seen = set()
                    for blind in ext.elements():
                        blinding = (((blind,), (blind,)),)  # same value in both rows
                        queries = pir.queries_from_blinding(p, iota, blinding)
                        seen.add(tuple(queries.per_server[j][i][0]))
                    assert len(seen) == ext.size

    def test_blinding_shape_validated(self, params_small):
        with pytest.raises(ValueError):
            pir.queries_from_blinding(params_small, 1, ((),))
        with pytest.raises(ValueError):
            pir.queries_from_blinding(params_small, 1, (((7,),) * 3,))  # 7 is not in GF(7)


class TestAnswers:
    def test_zero_database(self, params_small):
        p = params_small
        db = Database(tuple((p.ext.zero,) * p.delta for _ in range(p.m)))
        queries = pir.gen_queries(p, 1, SeededStream(3, "z"))
        for j in range(1, p.k + 1):
            assert pir.server_answer(p, j, queries.per_server[j - 1], db, "full") == p.ext.zero
            assert pir.server_answer(p, j, queries.per_server[j - 1], db, "trace") == 0

    def test_zero_blinding_exposes_file_values(self, params_ext, db_ext):
        # with all blinding arrays zero, the answer polynomial passes through
        # the requested file symbols at the alpha points
        p = params_ext
        ext = p.ext
        zero_blinding = tuple(
            tuple(tuple(ext.zero for _ in range(p.delta)) for _ in range(p.m))
            for _ in range(p.t)
        )
        queries = pir.queries_from_blinding(p, 2, zero_blinding)
        answers = [
            pir.server_answer(p, j, queries.per_server[j - 1], db_ext, "full")
            for j in range(1, p.delta + p.t + 1)
        ]
        points = [(ext.embed(p.omega_beta[j]), answers[j]) for j in range(p.delta + p.t)]
        phi = rscodes.lagrange_interpolate(ext, points)
        for i, alpha in enumerate(p.omega_alpha):
            assert polyring.poly_eval(ext, phi, alpha) == db_ext.row(2)[i]

    def test_symbolic_numeric_cross_check(self, params_small, db_small):
        # oracle: build phi(xi) = <g(xi), x> symbolically from the basis
        # polynomials, then compare against every server's numeric answer
        p = params_small
        ext = p.ext
        queries = pir.gen_queries(p, 2, SeededStream(8, "s"))
        alpha_polys, chi_polys = pir.lagrange_basis_polys(p)
        phi = []
        for l in range(p.delta):
            term = polyring.poly_scale(ext, db_small.row(2)[l], list(alpha_polys[l]))
            phi = polyring.poly_add(ext, phi, term)
        for h in range(p.t):
            inner = ext.dot(
                [entry for row in queries.blinding[h] for entry in row],
                [tuple(entry) for entry in db_small.array.reshape(-1, p.s).tolist()],
            )
            phi = polyring.poly_add(ext, phi, polyring.poly_scale(ext, inner, list(chi_polys[h])))
        assert polyring.degree(phi) <= p.r - 2 * p.b - 1
        for j in range(1, p.k + 1):
            numeric = pir.server_answer(p, j, queries.per_server[j - 1], db_small, "full")
            symbolic = polyring.poly_eval(ext, phi, ext.embed(p.omega_beta[j - 1]))
            assert numeric == symbolic
            trace_answer = pir.server_answer(p, j, queries.per_server[j - 1], db_small, "trace")
            assert trace_answer == ext.trace(ext.mul(p.v[j - 1], numeric))

    def test_dimension_mismatch(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(1, "d"))
        bad_db = Database(db_small.array[:2])
        with pytest.raises(ValueError):
            pir.server_answer(params_small, 1, queries.per_server[0], bad_db)
        with pytest.raises(IndexError):
            pir.server_answer(params_small, 9, queries.per_server[0], db_small)
        with pytest.raises(ValueError):
            pir.server_answer(params_small, 1, queries.per_server[0], Database(((7,),) * 3))

    def test_database_array_built_once_and_read_only(self, params_ext, db_ext):
        array = db_ext.array
        assert array is db_ext.array
        assert array.shape == (params_ext.m, params_ext.delta, params_ext.s)
        assert [tuple(map(tuple, row)) for row in array.tolist()] == [db_ext.row(i) for i in range(1, 5)]
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1

    def test_database_bounds_scanned_once(self, params_ext, params_small):
        db = pir.random_database(params_ext, 91)
        pir.check_dimensions(params_ext, db)
        bounds = db.bounds
        assert bounds == (int(db.array.min()), int(db.array.max()))
        pir.check_dimensions(params_ext, db)
        assert db.bounds is bounds
        # right shape, entries outside [0, q) at either end
        for bad in (7, -1):
            with pytest.raises(ValueError, match="outside"):
                pir.check_dimensions(params_small, Database((((bad,),),) * 3))


class TestDatabase:
    def test_construction_copies_into_a_frozen_int64_array(self):
        values = [[[1, 2], [3, 0]], [[6, 5], [0, 4]]]
        db = Database(values)
        values[0][0][0] = 9
        assert db.array.dtype == np.int64
        assert db.array.tolist() == [[[1, 2], [3, 0]], [[6, 5], [0, 4]]]
        with pytest.raises(ValueError):
            db.array[0, 0, 0] = 1
        assert db == Database(np.array(db.array, dtype=np.uint8))
        assert db != Database([[[1, 2], [3, 0]], [[6, 5], [0, 3]]])

    @pytest.mark.parametrize("values", [
        [[[1, 2], [3]]],
        [[[1, 2], [3, 4]], [[5, 6]]],
        [[[2**63]]],
        [[[-2**63 - 1]]],
        [[[-1, 2**63]]],  # numpy makes this float64
        [[[1.5]]],
        [[["1"]]],  # numpy would parse it as an int64
        [[[True]]],
    ], ids=["ragged", "ragged-rows", "above-int64", "below-int64", "mixed-past-int64",
            "float", "string", "bool"])
    def test_invalid_input_rejected_at_construction(self, values):
        with pytest.raises(ValueError):
            Database(values)

    def test_row_is_a_tuple_of_int_tuples(self, db_ext):
        row = db_ext.row(4)
        assert row == tuple(map(tuple, db_ext.array[3].tolist()))
        assert all(type(c) is int for symbol in row for c in symbol)
        for iota in (0, 5):
            with pytest.raises(IndexError):
                db_ext.row(iota)

    def test_file_text_frozen_and_round_trips(self, params_ext, tmp_path):
        db = Database([[[1, 2], [3, 0]], [[6, 5], [0, 4]], [[0, 0], [6, 6]], [[2, 1], [5, 3]]])
        text = "1:2,3:0\n6:5,0:4\n0:0,6:6\n2:1,5:3\n"
        assert pir.format_database(params_ext, db) == text
        path = tmp_path / "db.txt"
        pir.save_database(params_ext, db, path)
        assert path.read_text() == text
        assert pir.load_database(params_ext, path) == db


class TestRetrieveFromR:
    def test_b0_pure_interpolation(self):
        p = pir.setup(5, 1, 0, 3, m=2)
        db = pir.random_database(p, 2)
        queries = pir.gen_queries(p, 1, SeededStream(4, "r"))
        answers = pir.collect_answers(p, queries, db, "full", (2, 4, 5))
        got = pir.retrieve_from_r(p, answers)
        assert got.symbols == db.row(1)
        assert got.error_servers == ()

    def test_exhaustive_corruption_sweep(self, params_small, db_small):
        p = params_small
        queries = pir.gen_queries(p, 3, SeededStream(5, "rr"))
        honest = pir.collect_answers(p, queries, db_small, "full", (1, 2, 3, 4))
        for pos in range(p.r):
            for wrong in p.ext.elements():
                if wrong == honest.values[pos]:
                    continue
                values = list(honest.values)
                values[pos] = wrong
                got = pir.retrieve_from_r(p, AnswerSet("full", honest.server_ids, tuple(values)))
                assert got.symbols == db_small.row(3)
                assert got.error_servers == (pos + 1,)

    def test_two_corruptions_match_oracle_verdict(self, params_small, db_small):
        p = params_small
        ext = p.ext
        queries = pir.gen_queries(p, 1, SeededStream(6, "rv"))
        honest = pir.collect_answers(p, queries, db_small, "full", (1, 2, 3, 4))
        code = rscodes.GrsCode(
            field=ext,
            points=tuple(ext.embed(x) for x in p.omega_beta),
            multipliers=(ext.one,) * 4,
            dim=p.r - 2 * p.b,
        )
        rng = random.Random(12)
        for _ in range(60):
            values = list(honest.values)
            for pos in rng.sample(range(4), 2):
                values[pos] = ext.add(values[pos], ext.embed(rng.randrange(1, 7)))
            tampered = AnswerSet("full", honest.server_ids, tuple(values))
            try:
                ours = pir.retrieve_from_r(p, tampered).symbols
            except ByzantineBudgetExceeded:
                ours = None
            try:
                ref = rscodes.oracle_decode(code, tuple(values))
                expected = tuple(
                    polyring.poly_eval(ext, list(ref.message_poly), alpha)
                    for alpha in p.omega_alpha
                )
            except rscodes.DecodeFailure:
                expected = None
            assert ours == expected

    def test_extension_field_every_subset_matches_oracle(self, params_ext, db_ext):
        # at s = 2 each block of the rebuild matrix is an s x s
        # multiply-by-constant matrix, so a transposed block shows here; at
        # s = 1 it cannot
        p = params_ext
        ext = p.ext
        queries = pir.gen_queries(p, 3, SeededStream(9, "rs"))
        for ids in itertools.combinations(range(1, p.k + 1), p.r):
            honest = pir.collect_answers(p, queries, db_ext, "full", ids)
            code = rscodes.GrsCode(
                field=ext,
                points=tuple(ext.embed(p.omega_beta[j - 1]) for j in ids),
                multipliers=(ext.one,) * p.r,
                dim=p.r - 2 * p.b,
            )
            words = [honest.values]
            for pos in range(p.r):
                values = list(honest.values)
                values[pos] = ext.add(values[pos], (pos, 1 + pos))
                words.append(tuple(values))
            try:
                for values in words:
                    ref = rscodes.oracle_decode(code, values)
                    expected = tuple(
                        polyring.poly_eval(ext, list(ref.message_poly), alpha)
                        for alpha in p.omega_alpha
                    )
                    got = pir.retrieve_from_r(p, AnswerSet("full", ids, values))
                    assert got.symbols == expected == db_ext.row(3)
                    assert got.error_servers == tuple(ids[i] for i in ref.error_positions)
            finally:
                rscodes._oracle_cache.clear()  # 21 codeword tables would stay cached

    def test_second_honest_retrieval_reuses_cached_tables(self, monkeypatch, params_ext, db_ext):
        p = params_ext
        queries = pir.gen_queries(p, 2, SeededStream(3, "rc"))
        answers = pir.collect_answers(p, queries, db_ext, "full", (1, 3, 4, 6, 7))
        assert pir.retrieve_from_r(p, answers).symbols == db_ext.row(2)

        def forbidden(*args, **kwargs):
            raise AssertionError("called by a second honest retrieval")

        monkeypatch.setattr(pir, "GrsCode", forbidden)
        monkeypatch.setattr(rscodes.linalg, "solve", forbidden)
        monkeypatch.setattr(rscodes, "grs_encode", forbidden)
        monkeypatch.setattr(polyring, "poly_eval", forbidden)
        got = pir.retrieve_from_r(p, answers)
        assert got.symbols == db_ext.row(2) and got.error_servers == ()

    def test_needs_exactly_r_servers(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(7, "rn"))
        short = pir.collect_answers(params_small, queries, db_small, "full", (1, 2, 3))
        with pytest.raises(ValueError):
            pir.retrieve_from_r(params_small, short)


class TestRetrieveFromK:
    def test_matches_planted_row_both_instances(self, params_small, db_small, params_ext, db_ext):
        for p, db in ((params_small, db_small), (params_ext, db_ext)):
            for iota in range(1, p.m + 1):
                queries = pir.gen_queries(p, iota, SeededStream(iota, "k"))
                answers = pir.collect_answers(p, queries, db, "trace")
                got = pir.retrieve_from_k(p, answers)
                assert got.symbols == db.row(iota)

    def test_trace_mode_needs_all_servers(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(2, "ka"))
        answers = pir.collect_answers(params_small, queries, db_small, "trace")
        partial = AnswerSet("trace", answers.server_ids[:3], answers.values[:3])
        with pytest.raises(ValueError):
            pir.retrieve_from_k(params_small, partial)

    def test_budget_exceeded_or_mismatch_on_two_errors(self, params_small, db_small):
        p = params_small
        queries = pir.gen_queries(p, 1, SeededStream(13, "kb"))
        honest = pir.collect_answers(p, queries, db_small, "trace")
        outcomes = {"failed": 0, "mismatch": 0, "silent": 0}
        for wrong1 in range(7):
            for wrong2 in range(7):
                if wrong1 == honest.values[0] or wrong2 == honest.values[1]:
                    continue
                values = (wrong1, wrong2) + honest.values[2:]
                try:
                    got = pir.retrieve_from_k(p, AnswerSet("trace", honest.server_ids, values))
                    if got.symbols == db_small.row(1):
                        outcomes["silent"] += 1
                    else:
                        outcomes["mismatch"] += 1
                except ByzantineBudgetExceeded:
                    outcomes["failed"] += 1
        # beyond the budget correctness may fail, but decode failures must
        # be loud and no case may be reported as a clean recovery
        assert outcomes["failed"] + outcomes["mismatch"] > 0
        assert outcomes["silent"] == 0

    @pytest.mark.parametrize("scheme", [(13, 1, 2, 9), (17, 1, 2, 8), (11, 1, 2, 8)])
    def test_honest_answers_decode_without_solve_or_encode(self, monkeypatch, scheme):
        p = pir.setup(*scheme, m=2)
        db = pir.random_database(p, 11)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rscodes.linalg, "solve", counted("solve", rscodes.linalg.solve))
        monkeypatch.setattr(rscodes, "grs_encode", counted("encode", rscodes.grs_encode))
        for iota in (1, 2):
            answers = pir.collect_answers(p, pir.gen_queries(p, iota, SeededStream(iota, "hp")), db)
            assert pir.retrieve_from_k(p, answers).symbols == db.row(iota)
            assert calls == []
            # one wrong answer takes the error path, through the same counters
            values = ((answers.values[0] + 1) % p.q,) + answers.values[1:]
            got = pir.retrieve_from_k(p, AnswerSet("trace", answers.server_ids, values))
            assert got.symbols == db.row(iota) and got.error_servers == (1,)
            assert calls == ["solve", "encode"]
            del calls[:]

    @pytest.mark.parametrize("scheme", [(4, 1, 1, 4), (7, 1, 1, 5), (11, 1, 2, 8), (17, 1, 2, 8)])
    def test_trace_code_checks_are_weighted_power_sums(self, scheme):
        # row e of the check matrix is P_j beta_j^e with P_j = prod_l f_l(beta_j)
        p = pir.setup(*scheme)
        q = p.q
        code, _ = pir._trace_code_tables(p)
        assert len(code.check_rows) == 2 * p.b
        for j, beta in enumerate(p.omega_beta):
            weight = 1
            for f in p.min_polys:
                weight = weight * sum(c * beta**d for d, c in enumerate(f)) % q
            for e, row in enumerate(code.check_rows):
                assert row[j] == weight * pow(beta, e, q) % q

    def test_identical_path_for_b0(self):
        # the byzantine-free scheme is the b=0 instance of the same code path
        p = pir.setup(5, 1, 0, 3, m=2)
        db = pir.random_database(p, 3)
        first = pir.retrieve_from_k(
            p, pir.collect_answers(p, pir.gen_queries(p, 1, SeededStream(9, "b0")), db, "trace")
        )
        second = pir.retrieve_from_k(
            p, pir.collect_answers(p, pir.gen_queries(p, 1, SeededStream(9, "b0")), db, "trace")
        )
        assert first == second
        assert first.symbols == db.row(1)


class TestCapacity:
    def test_frozen_values(self):
        assert pir.capacity(1, 1, 5) == Fraction(2, 5)
        assert pir.capacity(1, 0, 2) == Fraction(1, 2)
        assert pir.capacity(2, 1, 9) == Fraction(5, 9)

    def test_finite_m_converges_monotonically(self):
        limit = pir.capacity(1, 1, 5)
        previous = None
        for m in range(1, 101):
            value = pir.capacity(1, 1, 5, m)
            assert value >= limit
            if previous is not None:
                assert value <= previous
            previous = value
        assert previous - limit < Fraction(1, 10**9)

    def test_m1_equals_first_term(self):
        assert pir.capacity(1, 1, 5, 1) == Fraction(3, 5)

    def test_constraint_violation(self):
        with pytest.raises(InvalidParameters):
            pir.capacity(2, 1, 4)


class TestDualWords:
    def test_words_orthogonal_to_answer_codewords(self, params_small):
        p = params_small
        ext = p.ext
        words = [w for _, w in pir.recovery_dual_words(p)]
        words += [w for _, w in pir.parity_check_words(p)]
        assert len(words) == p.delta * p.s + 2 * p.b
        rng = random.Random(10)
        for _ in range(100):
            phi = polyring.normalize(
                ext, [ext.embed(rng.randrange(7)) for _ in range(p.r - 2 * p.b)]
            )
            codeword = pir.rs_codeword(p, phi)
            for word in words:
                acc = ext.zero
                for a, b in zip(word, codeword):
                    acc = ext.add(acc, ext.mul(a, b))
                assert acc == ext.zero

    def test_check_words_vanish_at_alpha_points(self, params_ext):
        p = params_ext
        for _, word in pir.parity_check_words(p):
            for i in range(p.delta):
                assert word[i] == p.ext.zero


class TestSerialization:
    def test_params_json_roundtrip(self, params_ext):
        payload = json.dumps(pir.params_to_json_dict(params_ext), sort_keys=True)
        restored = pir.params_from_json_dict(json.loads(payload))
        assert restored == params_ext

    def test_tampered_params_rejected(self, params_small):
        data = pir.params_to_json_dict(params_small)
        data["eta"] = ["3"]  # breaks trace-orthogonality
        with pytest.raises(InvalidParameters):
            pir.params_from_json_dict(data)

    def test_database_file_roundtrip(self, params_ext, db_ext, tmp_path):
        path = tmp_path / "db.txt"
        pir.save_database(params_ext, db_ext, path)
        assert pir.load_database(params_ext, path) == db_ext

    def test_database_format_frozen(self, params_ext, db_ext):
        text = pir.format_database(params_ext, db_ext)
        first = text.splitlines()[0]
        assert first == ",".join(params_ext.ext.format_element(x) for x in db_ext.row(1))

    def test_parse_error_carries_line_number(self, params_small):
        text = "1\n2\nnot-a-symbol\n"
        with pytest.raises(DatabaseFormatError) as err:
            pir.parse_database(params_small, text)
        assert err.value.line == 3
        with pytest.raises(DatabaseFormatError) as err:
            pir.parse_database(params_small, "1,2\n")
        assert err.value.line == 1

    def test_wrong_row_count(self, params_small):
        with pytest.raises(DatabaseFormatError):
            pir.parse_database(params_small, "1\n2\n")  # m=3 expected


def test_degenerate_single_file_roundtrip():
    p = pir.setup(4, 1, 1, 4, m=1)
    db = pir.random_database(p, 4)
    queries = pir.gen_queries(p, 1, SeededStream(5, "one"))
    answers = pir.collect_answers(p, queries, db, "trace")
    assert pir.retrieve_from_k(p, answers).symbols == db.row(1)


def test_answer_degree_invariant_exhaustive_small():
    # <g(xi), x> stays below degree r-2b for every database entry pattern
    p = pir.setup(4, 1, 1, 4, m=2)
    ext = p.ext
    alpha_polys, chi_polys = pir.lagrange_basis_polys(p)
    for curve in itertools.chain(alpha_polys, chi_polys):
        assert polyring.degree(list(curve)) <= p.t + p.delta - 1
