"""Scheme parameters, queries, answers, retrieval, capacity, serialization."""

import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import build_tower, format_database, params_from_json_dict, save_database

from tracepir import gf, harness, kernels, linalg, pir, polyring, rscodes
from tracepir.pir import (
    AnswerSet,
    ByzantineBudgetExceeded,
    Database,
    DatabaseFormatError,
    InvalidParameters,
)
from tracepir.rand import SeededStream

DATA = Path(__file__).resolve().parent / "data"


def norm_power(ext, frobenius_x, a, f) -> list:
    """Reference: (x + a)^((q^s - 1)/2) mod f as the norm of x + a to the power (q - 1)/2.

    frobenius_x[i] is x^(q^i) modulo a multiple of f, for i < s.
    """
    norm, conjugate = [ext.one], a
    for h in frobenius_x:
        shifted = [ext.add(h[0], conjugate), *h[1:]]
        norm = polyring.poly_mod(ext, polyring.poly_mul(ext, norm, shifted), f)
        conjugate = ext.frobenius(conjugate)
    return polyring.poly_powmod(ext, norm, (ext.q - 1) // 2, f)


def norm_splitter_root(ext, poly) -> tuple:
    """Reference: the smallest root of an irreducible poly by Cantor-Zassenhaus splitting.

    Shifts a run over ext in `elements()` order, skipping the base field,
    and each splits the factor left by gcd(f, (x + a)^((q^s - 1)/2) - 1).
    """
    f = [ext.embed(c) for c in poly]
    frobenius_x = [
        [ext.embed(c) for c in h] for h in polyring.frobenius_powers(ext.base, list(poly), ext.s - 1)
    ]
    for a in ext.elements():
        if len(f) == 2:
            break
        if any(a[1:]):
            power = norm_power(ext, frobenius_x, a, f)
            g = polyring.poly_gcd(ext, polyring.poly_sub(ext, power, [ext.one]), f)
            if 1 < len(g) < len(f):
                f = min(g, polyring.poly_divmod(ext, f, g)[0], key=len)
    roots = [ext.neg(f[0])]
    for _ in range(ext.s - 1):
        roots.append(ext.frobenius(roots[-1]))
    return min(roots)


# (q, s) beyond brute force, and (q, None) for x^2 + a over GF(q)
SPLIT_CASES = {
    "7-6": (7, 6),
    "5-8": (5, 8),
    "3-12": (3, 12),
    "101-2": (101, 2),
    "65521-2": (65521, 2),
    "x2+a-5": (5, None),
    "x2+a-13": (13, None),
}


@functools.lru_cache(maxsize=None)
def split_cases(name) -> tuple:
    """The extension field and the irreducible polynomials SPLIT_CASES[name] splits."""
    q, s = SPLIT_CASES[name]
    base = gf.PrimeField(q)
    if s is None:  # every irreducible x^2 + a, under the first other irreducible
        polys = [(a, 0, 1) for a in range(q) if gf.rabin_irreducible(base, [a, 0, 1])]
        modulus = next(f for f in gf.find_irreducibles(base, 2, 3) if f not in polys)
    else:  # the first five irreducibles after the modulus
        modulus, *polys = gf.find_irreducibles(base, s, 6)
    return gf.ExtField(base, len(modulus) - 1, modulus), polys


def poly_add(field, a, b) -> list:
    """Reference: the sum of two polynomials, lowest degree first."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return polyring.normalize(field, out)


@pytest.mark.parametrize("field", [gf.PrimeField(7), build_tower(7, 2).ext], ids=["GF(7)", "GF(49)"])
def test_poly_add_reference_helper(field):
    # commutative, distributive under the package's product, and undone by its difference
    rng = random.Random(3)

    def element():
        if isinstance(field, gf.ExtField):
            return tuple(rng.randrange(field.q) for _ in range(field.s))
        return rng.randrange(field.q)

    for _ in range(80):
        a, b, c = (polyring.normalize(field, [element() for _ in range(rng.randrange(6))]) for _ in range(3))
        assert poly_add(field, a, b) == poly_add(field, b, a)
        left = polyring.poly_mul(field, a, poly_add(field, b, c))
        right = poly_add(field, polyring.poly_mul(field, a, b), polyring.poly_mul(field, a, c))
        assert left == right
        assert polyring.poly_sub(field, poly_add(field, a, b), b) == a


def lagrange_basis(field, nodes) -> list:
    """Reference: the Lagrange basis polynomials on distinct nodes, in coefficient form."""
    basis = []
    for n, node in enumerate(nodes):
        poly = polyring.from_roots(field, nodes[:n] + nodes[n + 1 :])
        scale = field.inv(polyring.poly_eval(field, poly, node))
        basis.append(tuple(polyring.poly_scale(field, scale, poly)))
    return basis


def lagrange_basis_polys(p) -> tuple:
    """Reference: the query curve's basis polynomials (alphas, chis) in coefficient form."""
    basis = lagrange_basis(p.ext, list(p.omega_alpha + p.omega_chi))
    return tuple(basis[: p.delta]), tuple(basis[p.delta :])


def lagrange_interpolate(field, points) -> list:
    """Reference: the polynomial of degree < n through n points with distinct x."""
    phi = []
    for (_, y), poly in zip(points, lagrange_basis(field, [x for x, _ in points])):
        phi = poly_add(field, phi, polyring.poly_scale(field, y, list(poly)))
    return phi


def ref_dot(field, xs, ys):
    """Reference: the sum of pairwise products, one field operation at a time."""
    acc = field.zero
    for x, y in zip(xs, ys, strict=True):
        acc = field.add(acc, field.mul(x, y))
    return acc


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
        for q in (9, 1, 2**31 + 11, 7.0):  # not a prime below 2^31
            with pytest.raises(InvalidParameters) as err:
                pir.setup(4, 1, 1, 4, q_hint=q)
            assert err.value.constraint == "q"

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

    @pytest.mark.parametrize(
        "q,s,stride",
        [
            pytest.param(q, s, stride, id=f"{q}-{s}")
            for q, s, stride in [(3, 2, 1), (7, 2, 1), (3, 3, 1), (3, 4, 1), (3, 5, 8)]
        ],
    )
    def test_find_root_is_smallest_root(self, q, s, stride):
        # every modulus, each against every stride-th polynomial from its own
        # index on (every polynomial when stride is 1; at (3, 5) the 48
        # moduli cover all 48 polynomials six times); the modulus itself
        # takes the xi shortcut, the others split
        base = gf.PrimeField(q)
        irreducibles = gf.find_irreducibles(base, s, gf.irreducible_count(q, s))
        for i, modulus in enumerate(irreducibles):
            ext = gf.ExtField(base, s, modulus)
            for f in irreducibles[i % stride :: stride]:
                # elements() runs in lexicographic order, so the first root is the smallest
                smallest = next(x for x in ext.elements() if ext.eval_base_poly(f, x) == ext.zero)
                assert pir._find_root(ext, f) == smallest

    @pytest.mark.parametrize("q,s", [(3, 4), (5, 3), (7, 2), (17, 4)])
    def test_trace_poly_is_the_trace(self, q, s):
        base = gf.PrimeField(q)
        modulus, poly = gf.find_irreducibles(base, s, 2)
        ext = gf.ExtField(base, s, modulus)
        frobenius_x = polyring.frobenius_powers(base, list(poly), s - 1)
        # poly itself, and a proper factor of it over ext: T_j mod either
        # is Tr(xi^j r) at each of its roots
        root = pir._find_root(ext, poly)
        roots = [root]
        for _ in range(s - 1):
            roots.append(ext.frobenius(roots[-1]))
        factor = polyring.from_roots(ext, roots[:2])
        for j in range(s):
            form = pir._trace_poly(ext, frobenius_x, j)
            xi_j = tuple(int(d == j) for d in range(s))
            for f, its_roots in (([ext.embed(c) for c in poly], roots), (factor, roots[:2])):
                reduced = polyring.poly_mod(ext, form, f)
                for r in its_roots:
                    assert polyring.poly_eval(ext, reduced, r) == ext.embed(ext.trace(ext.mul(xi_j, r)))

    @pytest.mark.parametrize("name", list(SPLIT_CASES))
    def test_find_root_matches_the_norm_splitter(self, name):
        # fields beyond brute force, and x^2 + a over GF(5) and GF(13), whose
        # roots +-r a form with no shift cannot tell apart
        ext, polys = split_cases(name)
        for f in polys:
            assert pir._find_root(ext, f) == norm_splitter_root(ext, f)

    @pytest.mark.parametrize("name", list(SPLIT_CASES))
    def test_find_root_work_is_bounded(self, name, monkeypatch):
        # 3 to 4 powers per root on average on these fields, one of them x^q
        # mod poly in `frobenius_powers`; the bound is about twice that
        ext, polys = split_cases(name)
        powmod, calls = polyring.poly_powmod, []

        def counting(*args):
            calls.append(args)
            return powmod(*args)

        monkeypatch.setattr(polyring, "poly_powmod", counting)
        for f in polys:
            pir._find_root(ext, f)
        assert len(calls) <= 8 * len(polys)

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


def answered_queries(monkeypatch, params, queries, db, ids):
    """The stacked queries that ``collect_answers`` hands ``server_answer`` for the given ids."""
    seen = []
    answer = pir.server_answer

    def recorded(params, j, query_j, db, mode="trace"):
        seen.append(query_j)
        return answer(params, j, query_j, db, mode)

    with monkeypatch.context() as patch:
        patch.setattr(pir, "server_answer", recorded)
        pir.collect_answers(params, queries, db, "trace", ids)
    return seen[0]


def product_queries(params, iota, blinding) -> np.ndarray:
    """The queries as the one product the lookup table memoizes: matmul_mod(rows, curve, q) plus the indicator."""
    p = params
    curve, indicator, _ = pir._query_tables(p)
    lead = blinding.shape[:-4]
    rows = np.moveaxis(blinding, -4, -2).reshape(lead + (1, p.m * p.delta, p.t * p.s))
    queries = linalg.matmul_mod(rows, curve, p.q).reshape(lead + (p.k, p.m, p.delta, p.s))
    iotas = np.broadcast_to(iota, lead)
    for n in np.ndindex(lead):
        queries[n + (slice(None), iotas[n] - 1)] += indicator
    return queries % p.q


class TestQueries:
    def test_indicator_constraints_at_alpha(self, params_ext):
        p = params_ext
        ext = p.ext
        blinding = pir.draw_blinding(p, SeededStream(11, "q"))
        queries = pir.queries_from_blinding(p, 3, blinding)
        assert np.array_equal(queries, pir.gen_queries(p, 3, SeededStream(11, "q")))
        alpha_polys, chi_polys = lagrange_basis_polys(p)
        # rebuild each entry's curve from its defining coefficients and
        # check the interpolation constraints and the server evaluations
        for i in range(p.m):
            for l in range(p.delta):
                curve = []
                if i == 3 - 1:
                    curve = list(alpha_polys[l])
                for h in range(p.t):
                    term = polyring.poly_scale(ext, tuple(blinding[h][i][l]), list(chi_polys[h]))
                    curve = poly_add(ext, curve, term)
                assert polyring.degree(curve) <= p.t + p.delta - 1
                for n, alpha in enumerate(p.omega_alpha):
                    expected = ext.one if (i == 3 - 1 and l == n) else ext.zero
                    assert polyring.poly_eval(ext, curve, alpha) == expected
                for h, chi in enumerate(p.omega_chi):
                    assert polyring.poly_eval(ext, curve, chi) == tuple(blinding[h][i][l])
                for j, beta in enumerate(p.omega_beta):
                    assert (
                        polyring.poly_eval(ext, curve, ext.embed(beta))
                        == tuple(queries[j][i][l])
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
        blinding = pir.draw_blinding(p, SeededStream(golden["seed"], "query"))
        ext = p.ext
        got = [
            [[ext.format_element(entry) for entry in row] for row in server]
            for server in queries
        ]
        assert got == golden["per_server"]
        got_blinding = [
            [[ext.format_element(entry) for entry in row] for row in array]
            for array in blinding
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
            blinding = pir.draw_blinding(p, SeededStream(case["seed"], "query"))
            assert [[fmt(x) for x in row] for row in db.array.tolist()] == case["database"]
            for name, array in (("blinding", blinding), ("per_server", queries)):
                got = [[[fmt(x) for x in row] for row in arr] for arr in array]
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
                        seen.add(tuple(queries[j][i][0]))
                    assert len(seen) == ext.size

    def test_blinding_shape_validated(self, params_small):
        with pytest.raises(ValueError):
            pir.queries_from_blinding(params_small, 1, ((),))
        with pytest.raises(ValueError):
            pir.queries_from_blinding(params_small, 1, (((7,),) * 3,))  # 7 is not in GF(7)
        with pytest.raises(ValueError):
            pir.queries_from_blinding(params_small, 1, np.zeros((2, 2, 3, 1, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            pir.queries_from_blinding(params_small, 1, np.full((2, 1, 3, 1, 1), 7))

    @pytest.mark.parametrize("scheme", [(7, 1, 1, 5), (6, 2, 1, 5), (5, 3, 0, 4)])
    def test_batch_of_draws_equals_single_calls(self, scheme):
        p = pir.setup(*scheme, m=3)
        shape = (p.t, p.m, p.delta, p.s)
        stream, again = SeededStream(21, "batch"), SeededStream(21, "batch")
        singles = [pir.gen_queries(p, 2, stream) for _ in range(5)]
        blindings = np.stack([pir.draw_blinding(p, again) for _ in range(5)])
        batch = pir.queries_from_blinding(p, 2, blindings)
        assert batch.shape == (5, p.k) + shape[1:]
        for n, single in enumerate(singles):
            assert np.array_equal(batch[n], single)
        empty = pir.queries_from_blinding(p, 2, np.zeros((0,) + shape, dtype=np.int64))
        assert empty.shape == (0, p.k) + shape[1:]

    @pytest.mark.parametrize("scheme", [(7, 1, 1, 5), (6, 2, 1, 5)])
    def test_batch_of_clients_equals_single_queries_and_answers(self, monkeypatch, scheme):
        # B clients, each with its own file index: the same queries, and one
        # server_answer call gives every client's answers
        p = pir.setup(*scheme, m=3)
        db = pir.random_database(p, SeededStream(2, "db"))
        stream, again = SeededStream(22, "clients"), SeededStream(22, "clients")
        iotas = [3, 1, 1, 2, 3]
        singles = [pir.gen_queries(p, iota, stream) for iota in iotas]
        blindings = np.stack([pir.draw_blinding(p, again) for _ in iotas])
        batch = pir.queries_from_blinding(p, iotas, blindings)
        for mode in ("trace", "full"):
            answers = pir.collect_answers(p, batch, db, mode)
            assert answers.values == tuple(pir.collect_answers(p, qs, db, mode).values for qs in singles)
            ids = (5, 2)
            assert pir.collect_answers(p, batch, db, mode, ids).values == tuple(
                pir.collect_answers(p, qs, db, mode, ids).values for qs in singles
            )
        for n, single in enumerate(singles):
            assert np.array_equal(batch[n], single)
        assert np.shares_memory(answered_queries(monkeypatch, p, batch, db, tuple(range(1, p.k + 1))), batch)
        one = pir.queries_from_blinding(p, iotas[:1], blindings[:1])
        assert np.array_equal(one[0], singles[0])
        with pytest.raises(IndexError):
            pir.queries_from_blinding(p, [1, 4], blindings[:2])
        for bad in ([1.0, 2], [[1, 2]]):  # a non-integer index, a nested list
            with pytest.raises(IndexError):
                pir.queries_from_blinding(p, bad, blindings[:2])
        with pytest.raises(IndexError):
            pir.queries_from_blinding(p, 2.0, blindings[0])
        as_array = pir.queries_from_blinding(p, np.array(iotas), blindings)
        assert np.array_equal(as_array, batch)
        with pytest.raises(ValueError):
            pir.queries_from_blinding(p, [1, 2], blindings)  # two indices, five draws
        with pytest.raises(ValueError):
            pir.queries_from_blinding(p, [1], blindings[0])  # an index list, one unbatched draw
        empty = pir.queries_from_blinding(p, [], np.zeros((0,) + blindings.shape[1:], dtype=np.int64))
        assert empty.shape == (0, p.k, p.m, p.delta, p.s)

    def test_single_query_is_server_major_without_copies(self, params_ext):
        queries = pir.gen_queries(params_ext, 3, SeededStream(4, "layout"))
        assert type(queries) is np.ndarray and queries.dtype == np.int64
        assert queries.shape == (params_ext.k, params_ext.m, params_ext.delta, params_ext.s)
        assert queries.flags.c_contiguous
        for j in range(1, params_ext.k + 1):
            view = queries[j - 1]
            assert not view.flags.owndata and np.shares_memory(view, queries)


class TestQueryTable:
    @pytest.mark.parametrize(
        "scheme, q_hint, tabled",
        [
            ((4, 1, 1, 4), 262139, True),  # 4 * 262139 = 1,048,556 entries: just under 2^20
            ((4, 1, 1, 4), 262147, False),  # 4 * 262147 = 1,048,588: just over
            ((10, 2, 1, 7), None, True),  # t = 2, s = 2: codes of four digits
            ((5, 3, 0, 4), None, True),  # t = 3
            ((17, 1, 2, 8), None, False),  # s = 4 over GF(17): 17 * 17^4 * 4 entries
            ((6, 1, 2, 6), 2**31 - 1, False),  # s = 1 at the largest prime
        ],
        ids=["4114-under", "4114-over", "10217", "5304", "17128", "6126-q31"],
    )
    def test_lookup_equals_product(self, scheme, q_hint, tabled):
        p = pir.setup(*scheme, q_hint=q_hint, m=3)
        table = pir._query_tables(p)[2]
        entries = p.k * p.q ** (p.t * p.s) * p.s
        assert (table is not None) == tabled == (entries <= pir.QUERY_TABLE_ENTRIES)
        if tabled:
            assert table.shape == (p.k, p.q ** (p.t * p.s), p.s)
        shape = (p.t, p.m, p.delta, p.s)
        stream = SeededStream(23, "table")
        one = pir.draw_blinding(p, stream)
        clients = np.stack([pir.draw_blinding(p, stream) for _ in range(4)])
        # the audit's form: each draw repeats one value at every entry
        draws = stream.randrange_array(p.q, 5 * p.t * p.s).reshape(5, p.t, 1, 1, p.s)
        cases = [
            (2, one),
            ([3, 1, 1, 2], clients),
            (3, np.broadcast_to(draws, (5,) + shape)),
            (1, np.zeros((0,) + shape, dtype=np.int64)),
            ([], np.zeros((0,) + shape, dtype=np.int64)),
        ]
        for iota, blinding in cases:
            queries = pir.queries_from_blinding(p, iota, blinding)
            expected = product_queries(p, iota, blinding)
            assert queries.shape == expected.shape and queries.flags.c_contiguous
            assert np.array_equal(queries, expected)

    def test_blinding_of_a_list_of_streams_stacks_each_stream_alone(self):
        p = pir.setup(10, 2, 1, 7, m=3)
        alone = [SeededStream(25, f"clients/{i}") for i in range(3)]
        together = [SeededStream(25, f"clients/{i}") for i in range(3)]
        for stream in (alone[1], together[1]):  # one client's stream has read bits already
            stream.getbits(5)
        expected = np.stack([pir.draw_blinding(p, stream) for stream in alone])
        blindings = pir.draw_blinding(p, together)
        assert blindings.shape == (3, p.t, p.m, p.delta, p.s) and blindings.dtype == np.int64
        assert np.array_equal(blindings, expected)
        assert [s.getbits(64) for s in together] == [s.getbits(64) for s in alone]

    def test_table_isolated_from_queries(self):
        # the indicator is added in place: it must land in the queries' own
        # memory, never in the cached table they were read from
        p = pir.setup(10, 2, 1, 7, m=3)
        table = pir._query_tables(p)[2]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1
        before = table.copy()
        first = pir.gen_queries(p, 2, SeededStream(24, "isolation"))
        again = pir.gen_queries(p, 2, SeededStream(24, "isolation"))
        assert np.array_equal(first, again)
        blindings = np.stack([pir.draw_blinding(p, SeededStream(n, "isolation")) for n in range(3)])
        batch = pir.queries_from_blinding(p, [2, 3, 2], blindings)
        for queries in (first, again, batch):
            assert not np.shares_memory(queries, table)
        assert np.array_equal(table, before)


class TestAnswers:
    def test_zero_database(self, params_small):
        p = params_small
        db = Database(tuple((p.ext.zero,) * p.delta for _ in range(p.m)))
        queries = pir.gen_queries(p, 1, SeededStream(3, "z"))
        for j in range(1, p.k + 1):
            assert pir.server_answer(p, j, queries[j - 1], db, "full") == p.ext.zero
            assert pir.server_answer(p, j, queries[j - 1], db, "trace") == 0

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
            pir.server_answer(p, j, queries[j - 1], db_ext, "full")
            for j in range(1, p.delta + p.t + 1)
        ]
        points = [(ext.embed(p.omega_beta[j]), answers[j]) for j in range(p.delta + p.t)]
        phi = lagrange_interpolate(ext, points)
        for i, alpha in enumerate(p.omega_alpha):
            assert polyring.poly_eval(ext, phi, alpha) == db_ext.row(2)[i]

    def test_symbolic_numeric_cross_check(self, params_small, db_small):
        # oracle: build phi(xi) = <g(xi), x> symbolically from the basis
        # polynomials, then compare against every server's numeric answer
        p = params_small
        ext = p.ext
        blinding = pir.draw_blinding(p, SeededStream(8, "s"))
        queries = pir.queries_from_blinding(p, 2, blinding)
        alpha_polys, chi_polys = lagrange_basis_polys(p)
        phi = []
        for l in range(p.delta):
            term = polyring.poly_scale(ext, db_small.row(2)[l], list(alpha_polys[l]))
            phi = poly_add(ext, phi, term)
        for h in range(p.t):
            inner = ext.dot(
                [entry for row in blinding[h] for entry in row],
                [tuple(entry) for entry in db_small.array.reshape(-1, p.s).tolist()],
            )
            phi = poly_add(ext, phi, polyring.poly_scale(ext, inner, list(chi_polys[h])))
        assert polyring.degree(phi) <= p.r - 2 * p.b - 1
        for j in range(1, p.k + 1):
            numeric = pir.server_answer(p, j, queries[j - 1], db_small, "full")
            symbolic = polyring.poly_eval(ext, phi, ext.embed(p.omega_beta[j - 1]))
            assert numeric == symbolic
            trace_answer = pir.server_answer(p, j, queries[j - 1], db_small, "trace")
            assert trace_answer == ext.trace(ext.mul(p.v[j - 1], numeric))

    def test_batch_matches_single_answers(self, monkeypatch, params_ext, db_ext):
        p = params_ext
        queries = pir.gen_queries(p, 2, SeededStream(6, "batch"))
        for mode in ("trace", "full"):
            ids = (5, 2, 7)
            batch = pir.server_answer(p, ids, queries[[j - 1 for j in ids]], db_ext, mode)
            single = tuple(pir.server_answer(p, j, queries[j - 1], db_ext, mode) for j in ids)
            assert batch == single
            assert pir.collect_answers(p, queries, db_ext, mode, ids).values == single
        assert np.array_equal(answered_queries(monkeypatch, p, queries, db_ext, (5, 2, 7)), queries[[4, 1, 6]])
        for bad in ((1, 0), (8,)):
            with pytest.raises(IndexError):
                pir.server_answer(p, bad, queries[: len(bad)], db_ext)
        with pytest.raises(ValueError):
            pir.server_answer(p, (1, 2), queries[:3], db_ext)  # three queries, two ids

    def test_empty_server_ids_refused_before_any_work(self, monkeypatch, params_ext, db_ext):
        # an empty id tuple used to pass the id check and fail in numpy's reshape
        queries = pir.gen_queries(params_ext, 2, SeededStream(6, "batch"))

        def no_work(*args):
            raise AssertionError("answered an empty set of servers")

        monkeypatch.setattr(pir, "check_dimensions", no_work)
        with pytest.raises(ValueError, match="empty tuple of server ids"):
            pir.server_answer(params_ext, (), queries[:0], db_ext)
        with pytest.raises(ValueError, match="empty tuple of server ids"):
            pir.collect_answers(params_ext, queries, db_ext, "trace", server_ids=())

    def test_prefix_queries_are_a_view(self, monkeypatch, params_ext, db_ext):
        # all k servers, and a full-mode session's first r, answer from the query array itself
        queries = pir.gen_queries(params_ext, 2, SeededStream(6, "batch"))
        for n in (1, params_ext.r, params_ext.k):
            prefix = answered_queries(monkeypatch, params_ext, queries, db_ext, tuple(range(1, n + 1)))
            assert np.shares_memory(prefix, queries)
            assert np.array_equal(prefix, queries[:n])
        for ids in ((2, 1), (2, 3), (1, 3)):
            assert not np.shares_memory(answered_queries(monkeypatch, params_ext, queries, db_ext, ids), queries)
        for ids in (tuple(range(1, params_ext.k + 2)), (0, 1)):
            with pytest.raises(IndexError):
                pir.collect_answers(params_ext, queries, db_ext, "trace", ids)

    @pytest.mark.parametrize("scheme", [(7, 1, 1, 5), (11, 1, 2, 8), (17, 1, 2, 8)])
    def test_all_k_batch_equals_single_calls_with_one_dot_each(self, monkeypatch, scheme):
        # one kernels.ext_dot per server_answer call, whatever its number of servers
        p = pir.setup(*scheme, m=2)
        db = pir.random_database(p, SeededStream(3, "db"))
        queries = pir.gen_queries(p, 2, SeededStream(4, "q"))
        calls = []

        def counted(xs, ys, red, q):
            calls.append(len(ys))  # servers in the stacked operand
            return original(xs, ys, red, q)

        original = kernels.ext_dot
        monkeypatch.setattr(kernels, "ext_dot", counted)
        every = tuple(range(1, p.k + 1))
        for mode in ("trace", "full"):
            calls.clear()
            batch = pir.server_answer(p, every, queries, db, mode)
            single = tuple(pir.server_answer(p, j, queries[j - 1], db, mode) for j in every)
            assert batch == single
            assert calls == [p.k] + [1] * p.k
            kind = int if mode == "trace" else tuple
            assert all(type(answer) is kind for answer in batch)
        entries = [tuple(x) for x in db.array.reshape(-1, p.s).tolist()]
        for j, answer in zip(every, batch):
            query = [tuple(x) for x in queries[j - 1].reshape(-1, p.s).tolist()]
            assert answer == ref_dot(p.ext, entries, query)

    def test_dimension_mismatch(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(1, "d"))
        bad_db = Database(db_small.array[:2])
        with pytest.raises(ValueError):
            pir.server_answer(params_small, 1, queries[0], bad_db)
        with pytest.raises(IndexError):
            pir.server_answer(params_small, 9, queries[0], db_small)
        with pytest.raises(ValueError):
            pir.server_answer(params_small, 1, queries[0], Database(((7,),) * 3))

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
        assert format_database(params_ext, db) == text
        path = tmp_path / "db.txt"
        save_database(params_ext, db, path)
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
            for values in words:
                ref = rscodes.oracle_decode(code, values)
                expected = tuple(
                    polyring.poly_eval(ext, list(ref.message_poly), alpha)
                    for alpha in p.omega_alpha
                )
                got = pir.retrieve_from_r(p, AnswerSet("full", ids, values))
                assert got.symbols == expected == db_ext.row(3)
                assert got.error_servers == tuple(ids[i] for i in ref.error_positions)

    def test_planes_decode_like_the_extension_code_oracle(self):
        # the s planes decoded by the base-field decoder must give the
        # verdict of bounded-distance decoding over F_{q^s}: random words
        # with 0..2b+2 wrong answers, and words whose two wrong answers sit
        # in different planes, so that each plane decodes alone but the
        # union of their error positions exceeds b
        p = pir.setup(7, 1, 1, 5, m=2)
        ext = p.ext
        db = pir.random_database(p, 41)
        rng = random.Random(41)
        nonzero = [e for e in ext.elements() if e != ext.zero]
        for ids in ((1, 2, 3, 4, 5), (3, 4, 5, 6, 7), (1, 3, 4, 6, 7)):
            code = rscodes.GrsCode(
                field=ext,
                points=tuple(ext.embed(p.omega_beta[j - 1]) for j in ids),
                multipliers=(ext.one,) * p.r,
                dim=p.r - 2 * p.b,
            )
            honest = [
                pir.collect_answers(p, pir.gen_queries(p, iota, SeededStream(iota, "po")), db, "full", ids)
                for iota in (1, 2)
            ]
            words = []
            for trial in range(400):
                values = list(honest[trial % 2].values)
                for pos in rng.sample(range(p.r), trial % (2 * p.b + 3)):
                    values[pos] = ext.add(values[pos], rng.choice(nonzero))
                words.append(values)
            split = []
            for first, second in itertools.permutations(range(p.r), 2):
                values = list(honest[0].values)
                values[first] = ext.add(values[first], (rng.randrange(1, p.q), 0))
                values[second] = ext.add(values[second], (0, rng.randrange(1, p.q)))
                split.append(values)
            verdicts = []
            for values in words + split:
                try:
                    ref = rscodes.oracle_decode(code, values)
                    expected = (
                        tuple(polyring.poly_eval(ext, list(ref.message_poly), a) for a in p.omega_alpha),
                        tuple(ids[i] for i in ref.error_positions),
                    )
                except rscodes.DecodeFailure:
                    expected = None
                try:
                    got = pir.retrieve_from_r(p, AnswerSet("full", ids, tuple(values)))
                    ours = (got.symbols, got.error_servers)
                except ByzantineBudgetExceeded:
                    ours = None
                assert ours == expected, values
                verdicts.append("failed" if ours is None else len(ours[1]))
            assert set(verdicts[: len(words)]) == {"failed", 0, 1}
            assert set(verdicts[len(words) :]) == {"failed"}

    def test_every_single_wrong_answer_is_corrected(self):
        # exhaustive at (7,1,1,5; m=2): every file, every position and all
        # 48 wrong values of F_49, for two server sets
        p = pir.setup(7, 1, 1, 5, m=2)
        db = pir.random_database(p, 43)
        cases = 0
        for ids in ((1, 2, 3, 4, 5), (3, 4, 5, 6, 7)):
            for iota in range(1, p.m + 1):
                queries = pir.gen_queries(p, iota, SeededStream(iota, "ex"))
                honest = pir.collect_answers(p, queries, db, "full", ids)
                for pos in range(p.r):
                    for wrong in p.ext.elements():
                        if wrong == honest.values[pos]:
                            continue
                        values = list(honest.values)
                        values[pos] = wrong
                        got = pir.retrieve_from_r(p, AnswerSet("full", ids, tuple(values)))
                        assert got.symbols == db.row(iota)
                        assert got.error_servers == (ids[pos],)
                        cases += 1
        assert cases == 960

    @pytest.mark.parametrize("wrong", [(7, 0), (-1, 0), (1, 2, 3), (1,)])
    def test_malformed_answers_rejected(self, params_ext, db_ext, wrong):
        # an entry outside [0, q) or an answer of the wrong length is not a
        # field element, so it is refused rather than corrected
        queries = pir.gen_queries(params_ext, 1, SeededStream(8, "rm"))
        honest = pir.collect_answers(params_ext, queries, db_ext, "full", (1, 2, 3, 4, 5))
        values = (wrong,) + honest.values[1:]
        with pytest.raises(ValueError):
            pir.retrieve_from_r(params_ext, AnswerSet("full", honest.server_ids, values))

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

    def test_over_budget_message(self, params_small, db_small):
        # two wrong answers at b = 1 that no codeword lies within distance 1 of
        p = params_small
        honest = pir.collect_answers(p, pir.gen_queries(p, 1, SeededStream(13, "kb")), db_small)
        for wrong1, wrong2 in itertools.product(range(7), repeat=2):
            values = (wrong1, wrong2) + honest.values[2:]
            try:
                pir.retrieve_from_k(p, AnswerSet("trace", honest.server_ids, values))
            except ByzantineBudgetExceeded as exc:
                assert str(exc) == "no codeword within distance 1 of the received word"
                assert isinstance(exc.__cause__, rscodes.DecodeFailure)
                return
        raise AssertionError("no over-budget word found")

    @pytest.mark.parametrize("scheme", [(4, 1, 1, 4), (7, 1, 1, 5), (11, 1, 2, 8)])
    def test_retrieve_many_matches_retrieve_from_k_row_by_row(self, scheme):
        # honest, corrected and over-budget words in one batch
        p = pir.setup(*scheme, m=3)
        db = pir.random_database(p, 21)
        rng = random.Random(scheme[0])
        words, expected = [], []
        for trial in range(60):
            iota = trial % p.m + 1
            answers = pir.collect_answers(p, pir.gen_queries(p, iota, SeededStream(trial, "km")), db)
            values = list(answers.values)
            for j in rng.sample(range(p.k), trial % (p.b + 3)):
                values[j] = (values[j] + rng.randrange(1, p.q)) % p.q
            words.append(values)
            try:
                got = pir.retrieve_from_k(p, AnswerSet("trace", answers.server_ids, tuple(values)))
                expected.append((got.symbols, got.error_servers))
            except ByzantineBudgetExceeded:
                expected.append(None)
        files, errors, failed = pir.retrieve_many(p, words)
        assert files.shape == (60, p.delta, p.s)
        assert errors.shape == (60, p.k) and failed.shape == (60,)
        for row, want in enumerate(expected):
            if want is None:
                assert failed[row] and not files[row].any() and not errors[row].any()
            else:
                symbols, error_servers = want
                assert not failed[row]
                assert tuple(map(tuple, files[row].tolist())) == symbols
                assert tuple(j + 1 for j in range(p.k) if errors[row, j]) == error_servers
        assert None in expected and any(w and w[1] for w in expected)

    @pytest.mark.parametrize("words", [[[0] * 3], [0] * 4, [[0, 0, 0, 7]], [[0, 0, -1, 0]]])
    def test_retrieve_many_rejects_malformed_words(self, params_small, words):
        with pytest.raises(ValueError):
            pir.retrieve_many(params_small, words)

    def test_exact_near_q_2_to_the_31(self):
        # (q-1)^2 is about 2^62 at q = 2^31 - 1, so a plain int64 product of
        # the answers with the check rows would overflow
        p = pir.setup(6, 1, 2, 6, q_hint=2**31 - 1, m=2)
        db = pir.random_database(p, 31)
        rng = random.Random(31)
        words, planted = [], []
        for session in range(30):
            iota = session % 2 + 1
            byz = tuple(sorted(rng.sample(range(1, p.k + 1), p.b)))
            report = harness.run_session(p, db, iota, harness.AdversaryModel(byzantine_set=byz),
                                         seed=session)
            assert report.ok and report.identified_error_positions == byz
            answers = pir.collect_answers(p, pir.gen_queries(p, iota, SeededStream(session, "big")), db)
            values = list(answers.values)
            for j in byz:
                values[j - 1] = rng.randrange(p.q)
            words.append(values)
            planted.append(db.row(iota))
        files, _, failed = pir.retrieve_many(p, words)
        assert not failed.any()
        assert [tuple(map(tuple, f)) for f in files.tolist()] == planted

    @pytest.mark.parametrize("scheme", [(4, 1, 1, 4), (7, 1, 1, 5), (11, 1, 2, 8), (17, 1, 2, 8)])
    def test_trace_code_checks_are_weighted_power_sums(self, scheme):
        # check e of the check matrix is P_j beta_j^e with P_j = prod_l f_l(beta_j)
        p = pir.setup(*scheme)
        q = p.q
        code, _ = pir._trace_code_tables(p)
        assert code.check_matrix.shape == (p.k, 2 * p.b)
        for j, beta in enumerate(p.omega_beta):
            weight = 1
            for f in p.min_polys:
                weight = weight * sum(c * beta**d for d, c in enumerate(f)) % q
            for e in range(2 * p.b):
                assert code.check_matrix[j, e] == weight * pow(beta, e, q) % q

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


class TestNonIntegerInput:
    """Entries that are not integers are refused, never truncated to one."""

    @pytest.fixture(scope="class")
    def scheme(self):
        p = pir.setup(11, 1, 2, 8, m=2)
        db = pir.random_database(p, 41)
        return p, db, pir.gen_queries(p, 1, SeededStream(4, "nonint"))

    def test_trace_answer(self, scheme):
        # cast to int64, honest + 0.5 was the honest answer: a clean retrieval
        p, db, queries = scheme
        answers = pir.collect_answers(p, queries, db)
        values = answers.values[:1] + (answers.values[1] + 0.5,) + answers.values[2:]
        with pytest.raises(ValueError):
            pir.retrieve_from_k(p, AnswerSet("trace", answers.server_ids, values))
        with pytest.raises(ValueError):
            pir.retrieve_many(p, np.array([answers.values], dtype=float))
        for cast in (int, np.int64, np.uint8):
            got = pir.retrieve_from_k(p, AnswerSet("trace", answers.server_ids, tuple(map(cast, answers.values))))
            assert got.symbols == db.row(1) and got.error_servers == ()

    def test_full_answer(self, scheme):
        p, db, queries = scheme
        answers = pir.collect_answers(p, queries, db, "full", tuple(range(1, p.r + 1)))
        (x, y), rest = answers.values[0], answers.values[1:]
        with pytest.raises(ValueError):
            pir.retrieve_from_r(p, AnswerSet("full", answers.server_ids, ((x + 0.5, y),) + rest))
        values = tuple(tuple(np.uint8(c) for c in value) for value in answers.values)
        got = pir.retrieve_from_r(p, AnswerSet("full", answers.server_ids, values))
        assert got.symbols == db.row(1) and got.error_servers == ()

    def test_query(self, scheme):
        p, db, queries = scheme
        query = queries[0]
        honest = pir.server_answer(p, 1, query, db)
        for bad in (query + 0.5, query.astype(float), query.astype(complex), query.astype(object)):
            with pytest.raises(ValueError):
                pir.server_answer(p, 1, bad, db)
        assert pir.server_answer(p, 1, query.astype(np.uint8), db) == honest
        assert pir.server_answer(p, 1, query.tolist(), db) == honest

    def test_blinding(self, scheme):
        p, _, queries = scheme
        blinding = pir.draw_blinding(p, SeededStream(4, "nonint"))
        for bad in (blinding + 0.5, blinding.astype(float), blinding.astype(str)):
            with pytest.raises(ValueError):
                pir.queries_from_blinding(p, 1, bad)
        for good in (blinding.astype(np.uint8), blinding.tolist()):
            assert np.array_equal(pir.queries_from_blinding(p, 1, good), queries)


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

    def test_cached_values_and_uncached_failures(self):
        for args in ((1, 2, 13), (1, 2, 13, 1024)):
            first, again = pir.capacity(*args), pir.capacity(*args)
            assert isinstance(again, Fraction) and again == first
        assert pir.capacity(1, 2, 13) == Fraction(8, 13)
        # a call that raises is not remembered: it raises again, every time
        for args in ((2, 1, 4), (1, 1, 5, 0)):
            for _ in range(3):
                with pytest.raises(InvalidParameters):
                    pir.capacity(*args)


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
        restored = params_from_json_dict(json.loads(payload))
        assert restored == params_ext

    def test_equal_params_hash_equal(self, params_ext):
        # every cached table is keyed on params: equal but distinct params
        # must find the same entries
        rebuilt = pir.setup(7, 1, 1, 5, m=4)
        restored = params_from_json_dict(pir.params_to_json_dict(params_ext))
        for other in (rebuilt, restored):
            assert other is not params_ext
            assert other == params_ext and hash(other) == hash(params_ext)
        assert pir.setup(7, 1, 1, 5, m=3) != params_ext
        assert pir._trace_forms(restored, (1, 2)) is pir._trace_forms(params_ext, (1, 2))

    def test_tampered_params_rejected(self, params_small):
        data = pir.params_to_json_dict(params_small)
        data["eta"] = ["3"]  # breaks trace-orthogonality
        with pytest.raises(InvalidParameters):
            params_from_json_dict(data)

    def test_database_file_roundtrip(self, params_ext, db_ext, tmp_path):
        path = tmp_path / "db.txt"
        save_database(params_ext, db_ext, path)
        assert pir.load_database(params_ext, path) == db_ext

    def test_database_format_frozen(self, params_ext, db_ext):
        text = format_database(params_ext, db_ext)
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
    alpha_polys, chi_polys = lagrange_basis_polys(p)
    for curve in itertools.chain(alpha_polys, chi_polys):
        assert polyring.degree(list(curve)) <= p.t + p.delta - 1


@pytest.mark.parametrize("scheme,q_hint,s", [((4, 1, 1, 4), 2**31 - 1, 1), ((7, 1, 1, 5), 65521, 2)])
def test_trace_fold_exact_at_the_largest_fields(scheme, q_hint, s):
    # the trace answers fold as one int64 product summed over s coefficients;
    # uniform entries give uniform answers, whose terms reach q^2, at s = 1
    # near 2^62, where a float64 fold would round
    p = pir.setup(*scheme, q_hint=q_hint, m=3)
    assert (p.q, p.s) == (q_hint, s)
    ext = p.ext
    rng = np.random.default_rng(71)
    db = Database(rng.integers(0, p.q, size=(p.m, p.delta, p.s)))
    iotas = [2, 1, 3, 2]
    blindings = rng.integers(0, p.q, size=(len(iotas), p.t, p.m, p.delta, p.s))
    batch = pir.queries_from_blinding(p, iotas, blindings)
    every = tuple(range(1, p.k + 1))
    batched_full = pir.collect_answers(p, batch, db, "full").values
    batched_trace = pir.collect_answers(p, batch, db, "trace").values
    for n, (iota, blinding) in enumerate(zip(iotas, blindings)):
        queries = pir.queries_from_blinding(p, iota, blinding)
        full = pir.server_answer(p, every, queries, db, "full")
        assert full == batched_full[n]
        expected = tuple(ext.trace(ext.mul(p.v[j - 1], full[j - 1])) for j in every)
        assert batched_trace[n] == expected
        assert pir.server_answer(p, every, queries, db, "trace") == expected
        alone = tuple(pir.server_answer(p, j, queries[j - 1], db, "trace") for j in every)
        assert alone == expected
        assert all(type(v) is int for v in alone + batched_trace[n])


def test_chunked_products_exact_near_q_2_to_the_31():
    # at q = 2^31 - 1 a product chunk is two terms: t*s = 3 chunks the
    # curve product and m*delta = 4 the batched Gram product
    p = pir.setup(6, 3, 1, 6, q_hint=2**31 - 1, m=4)
    ext, step = p.ext, linalg.INT64_MAX // (p.q - 1) ** 2
    assert step < p.t * p.s and step < p.m * p.delta
    # entries near q - 1 make unreduced sums leave int64
    rng = np.random.default_rng(61)
    db = Database(p.q - 1 - rng.integers(0, 4, size=(p.m, p.delta, p.s)))
    for iota in (1, 4):
        blinding = p.q - 1 - rng.integers(0, 4, size=(p.t, p.m, p.delta, p.s))
        queries = pir.queries_from_blinding(p, iota, blinding)
        for j, (alpha_vals, chi_vals) in enumerate(pir.lagrange_basis_values(p)):
            for i in range(p.m):
                for l in range(p.delta):
                    value = alpha_vals[l] if i == iota - 1 else ext.zero
                    for h in range(p.t):
                        value = ext.add(value, ext.mul(chi_vals[h], tuple(blinding[h][i][l].tolist())))
                    assert tuple(queries[j][i][l].tolist()) == value
        entries = [tuple(x) for x in db.array.reshape(-1, p.s).tolist()]
        full = pir.collect_answers(p, queries, db, "full").values
        trace = pir.collect_answers(p, queries, db, "trace").values
        for j in range(1, p.k + 1):
            query = [tuple(x) for x in queries[j - 1].reshape(-1, p.s).tolist()]
            expected = ext.dot(query, entries)
            assert full[j - 1] == expected
            assert trace[j - 1] == ext.trace(ext.mul(p.v[j - 1], expected))
            for mode, values in (("full", full), ("trace", trace)):
                assert pir.server_answer(p, j, queries[j - 1], db, mode) == values[j - 1]
