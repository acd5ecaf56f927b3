"""Sessions, adversaries, privacy audits, sweeps, and the comparison table."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from tracepir import harness, pir
from tracepir.harness import (
    AdversaryModel,
    ServerNode,
    byzantine_sweep,
    comparison_table,
    privacy_audit,
    run_session,
    scheme_comparison,
)
from tracepir.rand import SeededStream
from tracepir.rscodes import EnumerationTooLarge

DATA = Path(__file__).parent / "data"


class TestRunSession:
    def test_honest_session(self, params_small, db_small):
        report = run_session(params_small, db_small, 2, seed=100)
        assert report.ok and report.ground_truth_match
        assert report.error is None
        assert report.identified_error_positions == ()
        assert report.measured_rate == Fraction(1, 4)
        assert report.measured_rate == report.capacity_asymptotic
        assert report.capacity_achieving
        assert report.downloaded_base_symbols == params_small.k
        assert report.file_bits == pytest.approx(1 * math.log2(7))

    def test_full_mode_session(self, params_ext, db_ext):
        report = run_session(params_ext, db_ext, 1, mode="full", seed=3)
        assert report.ok
        # full mode downloads whole extension symbols: below capacity
        assert report.measured_rate == Fraction(params_ext.delta, params_ext.r)
        assert not report.capacity_achieving

    def test_deterministic_given_seed(self, params_ext, db_ext):
        fmt = params_ext.ext.format_element
        a = run_session(params_ext, db_ext, 2, seed=7).to_json_dict(fmt)
        b = run_session(params_ext, db_ext, 2, seed=7).to_json_dict(fmt)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = run_session(params_ext, db_ext, 2, seed=8).to_json_dict(fmt)
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)

    @pytest.mark.parametrize("strategy", ["random", "offset", "targeted"])
    def test_single_byzantine_recovered(self, params_small, db_small, strategy):
        adversary = AdversaryModel(byzantine_set=(3,), strategy=strategy)
        for seed in range(20):
            report = run_session(params_small, db_small, 1, adversary, seed=seed)
            assert report.ground_truth_match
            assert set(report.identified_error_positions) <= {3}
            # error positions only ever point into the byzantine set
            assert set(report.identified_error_positions) <= set(report.byzantine_set)

    def test_two_byzantine_never_silent(self, params_small, db_small):
        adversary = AdversaryModel(byzantine_set=(1, 4), strategy="random")
        loud = 0
        for seed in range(30):
            report = run_session(params_small, db_small, 2, adversary, seed=seed)
            assert not report.ok
            if report.error is not None or not report.ground_truth_match:
                loud += 1
        assert loud == 30

    def test_full_mode_with_corruption(self, params_ext, db_ext):
        adversary = AdversaryModel(byzantine_set=(2,), strategy="offset", offset=3)
        report = run_session(params_ext, db_ext, 3, adversary, mode="full", seed=4)
        assert report.ok
        assert report.identified_error_positions == (2,)

    def test_bad_byzantine_id(self, params_small, db_small):
        with pytest.raises(IndexError):
            run_session(params_small, db_small, 1, AdversaryModel(byzantine_set=(9,)))

    @pytest.mark.parametrize("offset", [7, -14, 70])
    def test_offset_zero_mod_q_rejected(self, params_small, db_small, offset):
        # q = 7: each of these offsets would leave the "byzantine" answer honest
        adversary = AdversaryModel(byzantine_set=(2,), strategy="offset", offset=offset)
        with pytest.raises(ValueError) as err:
            run_session(params_small, db_small, 1, adversary)
        assert err.value.constraint == "offset"
        assert str(err.value) == f"{offset} is 0 mod q=7"

    def test_duplicate_byzantine_id_rejected(self, params_small, db_small):
        with pytest.raises(ValueError) as err:
            run_session(params_small, db_small, 1, AdversaryModel(byzantine_set=(2, 2)))
        assert err.value.constraint == "byzantine"
        assert str(err.value) == "duplicate server id"

    def test_server_node_interface(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(1, "n"))
        node = ServerNode(server_id=2, db=db_small)
        honest = node.respond(params_small, queries.per_server[1], "trace")
        assert honest == pir.server_answer(params_small, 2, queries.per_server[1], db_small, "trace")
        byz = ServerNode(
            server_id=2, db=db_small,
            adversary=AdversaryModel(byzantine_set=(2,), strategy="offset", offset=2),
        )
        assert byz.respond(params_small, queries.per_server[1], "trace") == (honest + 2) % 7

    @pytest.mark.parametrize("scheme,s,q", [((13, 1, 2, 6), 8, 13), ((8, 1, 0, 2), 7, 11)])
    def test_large_tower_round_trip(self, scheme, s, q):
        params = pir.setup(*scheme)
        assert (params.s, params.q) == (s, q)
        pir.verify_params(params)
        db = pir.random_database(params, 17)
        report = run_session(params, db, 1, seed=5)
        assert report.ok and report.ground_truth_match


class TestAdversaryModel:
    def test_strategies_produce_in_field_wrong_symbols(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(2, "a"))
        honest = pir.server_answer(params_small, 1, queries.per_server[0], db_small, "trace")
        stream = SeededStream(3, "corrupt")
        for strategy in ("random", "offset"):
            adversary = AdversaryModel(byzantine_set=(1,), strategy=strategy)
            value = adversary.corrupt(params_small, 1, queries.per_server[0], honest, "trace", stream)
            assert 0 <= value < 7 and value != honest

    def test_targeted_gets_the_query(self, params_small, db_small):
        seen = {}

        def spy(params, j, query_j, honest, mode, stream):
            seen["query"] = query_j
            return (honest + 1) % params.q

        adversary = AdversaryModel(byzantine_set=(2,), strategy="targeted", targeted_fn=spy)
        report = run_session(params_small, db_small, 1, adversary, seed=6)
        assert report.ground_truth_match
        assert "query" in seen

    def test_offset_must_be_nonzero(self):
        with pytest.raises(ValueError):
            AdversaryModel(strategy="offset", offset=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            AdversaryModel(strategy="garbage")


class TestPrivacyAudit:
    def test_exhaustive_distance_is_zero(self):
        params = pir.setup(4, 1, 1, 4, m=2)
        report = privacy_audit(params, mode="exhaustive")
        assert report.verdict == "pass"
        assert report.max_tv_distance == 0
        assert len(report.subsets) == 4
        assert report.cases_failed == 0

    def test_single_subset_audit(self):
        params = pir.setup(4, 1, 1, 4, m=2)
        report = privacy_audit(params, t_subset=(3,), mode="exhaustive")
        assert report.subsets == ((3,),)
        assert report.max_tv_distance == 0

    def test_exhaustive_audit_flags_a_leaking_curve(self, monkeypatch):
        # with the blinding term zeroed at server 1, its query shows which
        # row is requested: every iota pair that separates an entry differs
        params = pir.setup(4, 1, 1, 4, m=3)
        table = pir.lagrange_basis_values(params)
        leaking = ((table[0][0], (params.ext.zero,)),) + table[1:]
        monkeypatch.setattr(pir, "lagrange_basis_values", lambda p: leaking)
        pir._query_tables.cache_clear()
        try:
            report = privacy_audit(params, mode="exhaustive")
        finally:
            pir._query_tables.cache_clear()
        assert report.verdict == "fail"
        assert report.max_tv_distance == 1
        assert (report.cases_total, report.cases_failed) == (36, 6)
        assert {tuple(f["subset"]) for f in report.failures} == {(1,)}
        assert report.failures[0] == {
            "subset": [1], "entry": [1, 1], "iota_pair": [1, 2], "tv_distance": "1",
        }

    def test_transfer_matrix_all_subsets(self, params_ext):
        report = privacy_audit(params_ext, mode="transfer-matrix")
        assert report.verdict == "pass"
        assert len(report.subsets) == math.comb(params_ext.k, params_ext.t)

    def test_beyond_threshold_reported_not_audited(self, params_small):
        report = privacy_audit(params_small, t_subset=(1, 2))
        assert report.verdict == "beyond threshold, privacy not claimed"
        assert report.max_tv_distance is None

    @pytest.mark.parametrize("mode", ["exhaustive", "transfer-matrix"])
    @pytest.mark.parametrize("subset", [(1, 1), (), (5,), (0,), (2, 2, 3)])
    def test_bad_subset_rejected(self, params_small, mode, subset):
        # a repeated id used to fail the transfer-matrix audit falsely, an
        # empty subset passed vacuously and an id above k crashed
        with pytest.raises(pir.InvalidParameters) as err:
            privacy_audit(params_small, t_subset=subset, mode=mode)
        assert err.value.constraint == "subset"

    def test_exhaustive_guard(self):
        # t=2 over GF(17^2): (q^s)^t = 83521 draws per entry exceeds 2^16
        params = pir.setup(6, 2, 0, 4, q_hint=17, m=2)
        with pytest.raises(EnumerationTooLarge) as err:
            privacy_audit(params, mode="exhaustive")
        assert "transfer-matrix" in str(err.value)

    def test_report_json_schema(self, params_ext):
        report = privacy_audit(params_ext, mode="transfer-matrix")
        payload = report.to_json_dict()
        for key in ("params", "seed", "cases_total", "cases_failed", "failures", "max_tv_distance"):
            assert key in payload


class TestByzantineSweep:
    def test_exhaustive_72_cases(self, params_small, db_small):
        report = byzantine_sweep(params_small, db_small, scope="exhaustive", seed=11)
        assert report.cases_total == 72
        assert report.cases_failed == 0

    def test_b0_degenerates_to_honest_runs(self):
        params = pir.setup(5, 1, 0, 3, m=2)
        db = pir.random_database(params, 8)
        report = byzantine_sweep(params, db, scope="exhaustive", seed=1)
        assert report.cases_total == params.m
        assert report.cases_failed == 0

    def test_randomized_scope(self, params_ext, db_ext):
        report = byzantine_sweep(params_ext, db_ext, scope="randomized", trials=60, seed=2)
        assert report.cases_total == 60
        assert report.cases_failed == 0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_randomized_needs_a_case(self, monkeypatch, params_small, db_small, trials):
        def no_work(*args):
            raise AssertionError("the sweep started before checking its trials")

        monkeypatch.setattr(pir, "check_dimensions", no_work)
        with pytest.raises(pir.InvalidParameters) as err:
            byzantine_sweep(params_small, db_small, scope="randomized", trials=trials)
        assert err.value.constraint == "randomized"
        assert str(err.value) == f"{trials} cases, need at least 1"

    def test_exhaustive_guard_suggests_randomized(self):
        # C(11,2) * 100^2 * 2 = 1.1e6 cases exceeds the guard
        params = pir.setup(11, 1, 2, 8, q_hint=101, m=2)
        db = pir.random_database(params, 1)
        with pytest.raises(EnumerationTooLarge) as err:
            byzantine_sweep(params, db, scope="exhaustive")
        assert "randomized" in str(err.value)

    def test_report_json_schema(self, params_small, db_small):
        report = byzantine_sweep(params_small, db_small, scope="randomized", trials=5, seed=3)
        payload = report.to_json_dict()
        for key in ("params", "seed", "cases_total", "cases_failed", "failures"):
            assert key in payload


class TestComparisonTable:
    def test_formula_columns_small(self):
        table = scheme_comparison(4, 1, 1, 4, l=1)
        log_q = math.log2(7)
        pi1, pi2, a1, a2 = table.columns
        assert pi1.file_size_bits == pytest.approx(3 * log_q)
        assert pi2.file_size_bits == pytest.approx(1 * log_q)
        assert a1.file_size_bits == pytest.approx(9 * log_q)
        assert a2.file_size_bits == pytest.approx(1 * log_q)
        assert pi1.download_cost_bits == pi2.download_cost_bits == pytest.approx(4 * log_q)
        assert a1.download_cost_bits == pytest.approx(12 * log_q)
        assert pi1.download_rate == a1.download_rate == Fraction(3, 4)
        assert pi2.download_rate == a2.download_rate == Fraction(1, 4)
        assert pi2.capacity == pir.capacity(1, 1, 4)
        assert (pi1.byzantine_resistance, pi2.byzantine_resistance) == (0, 1)

    def test_live_measurements_match_formulas(self):
        table = scheme_comparison(4, 1, 1, 4, l=1)
        pi1, pi2 = table.columns[:2]
        assert pi1.live is not None and pi1.live["matches_formula"]
        assert pi2.live is not None and pi2.live["matches_formula"]
        assert pi2.live["download_rate"] == pi2.download_rate

    def test_uninstantiable_scheme_has_no_live_column(self):
        table = scheme_comparison(7, 1, 1, 5, l=2)
        assert table.columns[0].live is None  # (r-t)=4 does not divide (k-t)=6
        assert table.columns[1].live is not None

    def test_repetition_scales_sizes_not_rates(self):
        one = scheme_comparison(4, 1, 1, 4, l=1)
        two = scheme_comparison(4, 1, 1, 4, l=2)
        for c1, c2 in zip(one.columns, two.columns):
            assert c2.file_size_bits == pytest.approx(2 * c1.file_size_bits)
            assert c2.download_cost_bits == pytest.approx(2 * c1.download_cost_bits)
            assert c2.download_rate == c1.download_rate

    def test_text_layout_row_order(self):
        text = scheme_comparison(4, 1, 1, 4).to_text()
        lines = text.splitlines()
        assert lines[0].split() == ["Pi1", "Pi2", "A1", "A2"]
        labels = [line.split("  ")[0] for line in lines[1:]]
        assert labels == [
            "File size",
            "Field",
            "Download cost",
            "Download rate",
            "Capacity",
            "Byzantine-resistance",
        ]

    def test_csv_layout(self):
        csv = scheme_comparison(4, 1, 1, 4).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("scheme,file_size_bits,field,")
        assert len(lines) == 5
        assert lines[1].startswith("Pi1,") and lines[4].startswith("A2,")

    def test_multiple_parameter_tuples(self):
        tables = comparison_table([(4, 1, 1, 4), (7, 1, 1, 5)], l=1)
        assert [t.k for t in tables] == [4, 7]

    def test_invalid_row_rejected(self):
        with pytest.raises(pir.InvalidParameters):
            scheme_comparison(4, 1, 1, 9)
        with pytest.raises(pir.InvalidParameters):
            scheme_comparison(4, 1, 1, 4, l=0)


def test_measured_rate_equals_capacity_across_instances():
    for k, t, b, r in ((4, 1, 1, 4), (7, 1, 1, 5), (5, 1, 0, 3), (11, 1, 2, 8)):
        params = pir.setup(k, t, b, r, m=2)
        db = pir.random_database(params, 5)
        report = run_session(params, db, 1, seed=6)
        assert report.ok
        assert report.measured_rate == pir.capacity(t, b, k)


def test_golden_decodes():
    # session reports frozen before the syndrome decoder: (11,1,2,8) and
    # (7,1,1,5), 0 to b+2 corrupt answers, random, offset and targeted
    # strategies, trace and full mode.  Beyond b corrupt answers a session
    # fails or returns a wrong file, and must keep doing so identically.
    with open(DATA / "golden_decodes.json") as fh:
        cases = json.load(fh)
    setups = {}
    outcomes = set()
    for case in cases:
        sc = case["scheme"]
        key = (sc["k"], sc["t"], sc["b"], sc["r"], sc["m"], case["db_seed"])
        if key not in setups:
            params = pir.setup(*key[:4], m=key[4])
            setups[key] = params, pir.random_database(params, key[5])
        params, db = setups[key]
        adversary = AdversaryModel(
            byzantine_set=tuple(case["byzantine_set"]),
            strategy=case["strategy"],
            offset=case["offset"],
        )
        report = run_session(params, db, case["iota"], adversary, mode=case["mode"], seed=case["seed"])
        assert report.to_json_dict(params.ext.format_element) == case["report"], case
        outcome = "corrected" if report.ok else "failed" if report.error else "wrong file"
        outcomes.add((case["mode"], outcome))
    assert outcomes == {(mode, outcome) for mode in ("trace", "full")
                        for outcome in ("corrected", "failed", "wrong file")}
