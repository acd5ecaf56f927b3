"""Sessions, adversaries, privacy audits, sweeps, and the comparison table."""

import dataclasses
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tracepir import harness, pir, rscodes
from tracepir.gf import ExtField
from tracepir.harness import (
    AdversaryModel,
    ServerNode,
    byzantine_sweep,
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

    def test_report_constants_follow_m(self):
        # the constants are cached per params: schemes that differ in m alone keep their own
        reports = {}
        for m in (2, 3):
            params = pir.setup(4, 1, 1, 4, m=m)
            reports[m] = run_session(params, pir.random_database(params, 1), 1, seed=1)
        assert reports[2].capacity_finite_m == Fraction(1, 3)
        assert reports[3].capacity_finite_m == Fraction(2, 7)
        assert [reports[m].params["m"] for m in (2, 3)] == [2, 3]

    def test_report_constants_follow_the_mode(self, params_ext, db_ext):
        p = params_ext
        for mode, downloaded in (("trace", p.k), ("full", p.r * p.s), ("trace", p.k)):
            report = run_session(p, db_ext, 1, mode=mode, seed=3)
            assert report.downloaded_base_symbols == downloaded, mode
            assert report.downloaded_bits == downloaded * math.log2(p.q), mode
            assert report.measured_rate == Fraction(p.file_base_symbols, downloaded), mode

    def test_reports_own_their_params(self, params_small, db_small):
        names = ("k", "t", "b", "r", "delta", "s", "q", "m")
        expected = {name: getattr(params_small, name) for name in names}
        first = run_session(params_small, db_small, 1, seed=1)
        assert first.params == expected
        first.params["k"] = 99
        first.params["extra"] = True
        assert run_session(params_small, db_small, 2, seed=2).params == expected
        assert privacy_audit(params_small, mode="transfer-matrix").params == expected
        assert byzantine_sweep(params_small, db_small).params == expected

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

    @pytest.mark.parametrize("byzantine,asked", [((6, 7), ()), ((2, 6), (2,)), ((1, 5, 7), (1, 5))])
    def test_full_mode_reports_only_the_asked_servers(self, params_ext, db_ext, byzantine, asked):
        # full mode asks servers 1..r = 5: a byzantine server above r corrupts
        # nothing and is not reported, and with none asked the session is an
        # honest one, strategy included
        adversary = AdversaryModel(byzantine_set=byzantine, strategy="offset", offset=3)
        report = run_session(params_ext, db_ext, 3, adversary, mode="full", seed=4)
        alone = AdversaryModel(byzantine_set=asked, strategy="offset", offset=3)
        assert report == run_session(params_ext, db_ext, 3, alone, mode="full", seed=4)
        assert report.byzantine_set == asked
        assert report.strategy == ("offset" if asked else "honest")
        assert report.ok == (len(asked) <= params_ext.b)

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

    def test_unknown_mode_raises_before_queries(self, params_small, db_small, monkeypatch):
        def refuse(*args):
            raise AssertionError("queries drawn for an unknown mode")

        monkeypatch.setattr(harness, "gen_queries", refuse)
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            run_session(params_small, db_small, 1, mode="bogus")

    def test_query_size_guard_raises_before_queries(self, params_small, db_small, monkeypatch):
        def refuse(*args):
            raise AssertionError("queries drawn past the query size guard")

        p = params_small
        entries = p.k * p.m * p.delta * p.s
        monkeypatch.setattr(harness, "gen_queries", refuse)
        monkeypatch.setattr(harness, "QUERY_ENTRIES_LIMIT", entries - 1)
        with pytest.raises(rscodes.EnumerationTooLarge, match=f"^{entries} query entries"):
            run_session(p, db_small, 1)

    def test_only_byzantine_servers_get_streams(self, params_small, db_small, monkeypatch):
        labels = []
        fork = SeededStream.fork

        def recording_fork(stream, label):
            labels.append(label)
            return fork(stream, label)

        monkeypatch.setattr(SeededStream, "fork", recording_fork)
        run_session(params_small, db_small, 1, seed=3)
        assert labels == ["query"]
        labels.clear()
        run_session(params_small, db_small, 1, AdversaryModel(byzantine_set=(3,)), seed=3)
        assert labels == ["query", "server-3"]

    def test_server_node_interface(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(1, "n"))
        node = ServerNode(server_id=2, db=db_small)
        honest = node.respond(params_small, queries[1], "trace")
        assert honest == pir.server_answer(params_small, 2, queries[1], db_small, "trace")
        adversary = AdversaryModel(byzantine_set=(2,), strategy="offset", offset=2)
        corrupt = adversary.corrupt(params_small, 2, queries[1], honest, "trace", None)
        assert corrupt == (honest + 2) % 7

    @pytest.mark.parametrize("scheme,s,q", [((13, 1, 2, 6), 8, 13), ((8, 1, 0, 2), 7, 11)])
    def test_large_tower_round_trip(self, scheme, s, q):
        params = pir.setup(*scheme)
        assert (params.s, params.q) == (s, q)
        pir.verify_params(params)
        db = pir.random_database(params, 17)
        report = run_session(params, db, 1, seed=5)
        assert report.ok and report.ground_truth_match


def per_server_answers(params, db, iota, adversary, mode, seed):
    """Reference: a session's answer word, one server at a time, in id order.

    Each asked server answers with its own ``pir.server_answer`` call, and
    the adversary corrupts that answer for each byzantine one, with the
    session stream forked as "server-<id>".
    """
    stream = SeededStream(seed, "session")
    queries = pir.gen_queries(params, iota, stream.fork("query"))
    words = []
    for j in range(1, (params.k if mode == "trace" else params.r) + 1):
        query = queries[j - 1]
        answer = pir.server_answer(params, j, query, db, mode)
        if j in adversary.byzantine_set:
            answer = adversary.corrupt(params, j, query, answer, mode, stream.fork(f"server-{j}"))
        words.append(answer)
    return tuple(words)


def shifting_adversary(params, j, query_j, honest, mode, stream):
    """Targeted strategy that draws from its stream, so any change in stream order shows."""
    if mode == "trace":
        return stream.randrange_excluding(params.q, honest)
    return params.ext.add(honest, params.ext.embed(stream.randrange(params.q - 1) + 1))


# (k, t, b, r, m) -> byzantine sets of size b and b + 1; each set has an id
# above r, which full mode leaves out of its session
BATCH_SCHEMES = {
    (7, 1, 1, 5, 3): ((6,), (2, 7)),
    (11, 1, 2, 8, 2): ((3, 9), (1, 5, 10)),
    (17, 1, 2, 8, 2): ((4, 16), (1, 8, 12)),
}
BATCH_STRATEGIES = (
    {"strategy": "random"},
    {"strategy": "offset", "offset": 3},
    {"strategy": "targeted", "targeted_fn": shifting_adversary},
    {"strategy": "targeted"},  # the default query-aware adversary
)


class TestBatchedSession:
    @pytest.mark.parametrize("scheme", list(BATCH_SCHEMES))
    @pytest.mark.parametrize("mode", ["trace", "full"])
    def test_equals_per_server_session(self, monkeypatch, scheme, mode):
        params = pir.setup(*scheme[:4], m=scheme[4])
        db = pir.random_database(params, 31)
        byz_sets = ((),) + BATCH_SCHEMES[scheme] + (tuple(range(1, params.k + 1)),)
        retrieve = harness.retrieve_from_k if mode == "trace" else harness.retrieve_from_r
        name = retrieve.__name__
        for n, (byz, kwargs) in enumerate(itertools.product(byz_sets, BATCH_STRATEGIES)):
            adversary = AdversaryModel(byzantine_set=byz, **kwargs)
            iota = n % params.m + 1
            expected = per_server_answers(params, db, iota, adversary, mode, n)
            reference_word = pir.AnswerSet(mode=mode, server_ids=tuple(range(1, len(expected) + 1)),
                                           values=expected)
            words = []
            with monkeypatch.context() as patch:
                patch.setattr(harness, name, lambda p, a: words.append(a) or retrieve(p, a))
                batched = run_session(params, db, iota, adversary, mode=mode, seed=n)
                # the same session, decoding the reference word in place of its own
                patch.setattr(harness, name, lambda p, a: retrieve(p, reference_word))
                reference = run_session(params, db, iota, adversary, mode=mode, seed=n)
            assert words[0] == reference_word, (byz, kwargs)
            assert batched == reference, (byz, kwargs)

    def test_one_honest_answer_call_per_session(self, monkeypatch):
        params = pir.setup(11, 1, 2, 8, m=2)
        db = pir.random_database(params, 3)
        calls = []
        answer = harness.server_answer

        def counting(params, j, *args):
            calls.append(j)
            return answer(params, j, *args)

        monkeypatch.setattr(harness, "server_answer", counting)
        strategies = (
            ({"strategy": "random"}, 0),
            ({"strategy": "offset", "offset": 3}, 0),
            ({"strategy": "targeted", "targeted_fn": shifting_adversary}, 0),
            ({"strategy": "targeted"}, 1),  # the query-aware adversary answers its query once more
        )
        for mode, n in (("trace", 11), ("full", 8)):
            for byz in ((), (3, 9), (1, 5, 10), tuple(range(1, 12))):
                asked = [j for j in byz if j <= n]
                for kwargs, per_byzantine in strategies:
                    calls.clear()
                    run_session(params, db, 1, AdversaryModel(byzantine_set=byz, **kwargs), mode=mode)
                    assert calls == [tuple(range(1, n + 1))] + asked * per_byzantine, (mode, byz, kwargs)

    @pytest.mark.parametrize("mode", ["trace", "full"])
    def test_tuple_id_node_equals_single_id_nodes(self, params_ext, db_ext, mode):
        queries = pir.gen_queries(params_ext, 2, SeededStream(4, "tuple"))
        for ids in ((1, 2, 3, 4, 5, 6, 7), (6, 2, 3), (4,)):
            node = ServerNode(server_id=ids, db=db_ext)
            batch = node.respond(params_ext, queries[[j - 1 for j in ids]], mode)
            assert batch == tuple(
                ServerNode(server_id=j, db=db_ext).respond(params_ext, queries[j - 1], mode)
                for j in ids
            )


class TestAdversaryModel:
    def test_strategies_produce_in_field_wrong_symbols(self, params_small, db_small):
        queries = pir.gen_queries(params_small, 1, SeededStream(2, "a"))
        honest = pir.server_answer(params_small, 1, queries[0], db_small, "trace")
        stream = SeededStream(3, "corrupt")
        for strategy in ("random", "offset"):
            adversary = AdversaryModel(byzantine_set=(1,), strategy=strategy)
            value = adversary.corrupt(params_small, 1, queries[0], honest, "trace", stream)
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


class TestPrivacyByConstruction:
    """Server-side code gets query rows only: never the file index, never the blinding."""

    def test_servers_and_adversaries_never_see_client_secrets(self, monkeypatch, params_ext, db_ext):
        seen = {"respond": [], "server_answer": [], "corrupt": []}
        blindings, queries = [], []

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                seen[name].append(args + tuple(kwargs.values()))
                return fn(*args, **kwargs)
            return wrapped

        def keeping(kept, fn, argument=None):
            def wrapped(*args):
                result = fn(*args)
                kept.append(result if argument is None else args[argument])
                return result
            return wrapped

        monkeypatch.setattr(ServerNode, "respond", recording("respond", ServerNode.respond))
        answer = recording("server_answer", pir.server_answer)
        monkeypatch.setattr(pir, "server_answer", answer)
        monkeypatch.setattr(harness, "server_answer", answer)
        monkeypatch.setattr(AdversaryModel, "corrupt", recording("corrupt", AdversaryModel.corrupt))
        monkeypatch.setattr(pir, "draw_blinding", keeping(blindings, pir.draw_blinding))
        for module in (pir, harness):  # the blinding the query map is given, stacked ones included
            query_map = keeping(blindings, module.queries_from_blinding, argument=2)
            monkeypatch.setattr(module, "queries_from_blinding", query_map)
        monkeypatch.setattr(harness, "gen_queries", keeping(queries, harness.gen_queries))

        assert run_session(params_ext, db_ext, 2, seed=11).ok
        query_aware = AdversaryModel(byzantine_set=(3,), strategy="targeted")
        assert run_session(params_ext, db_ext, 3, query_aware, mode="full", seed=12).ok
        assert byzantine_sweep(params_ext, db_ext, "randomized", trials=6, seed=13).cases_failed == 0

        assert len(queries) == 2 and all(type(q) is np.ndarray for q in queries)
        # a session's draw and its query map's argument, then the sweep's one
        # chunk: its six trials' blindings drawn in one call and stacked as
        # the query map's argument
        assert len(blindings) == 2 * 2 + 1 + 1 and all(map(len, seen.values()))
        assert [len(b) for b in blindings[-2:]] == [6, 6]
        for name, calls in seen.items():
            for args in calls:
                for arg in args:
                    assert not hasattr(arg, "iota") and not hasattr(arg, "blinding"), (name, arg)
                    array = arg.array if isinstance(arg, pir.Database) else arg
                    if isinstance(array, np.ndarray):
                        assert not any(np.shares_memory(array, b) for b in blindings), name


def reference_exhaustive_audit(params, t_subset=None):
    """Reference: the exhaustive audit as a loop over blinding draws.

    One single-draw query per draw and index, and a Counter of each
    subset's query tuples per entry; the TV distance of an index pair is
    half the summed count differences over the draw count.
    """
    if t_subset is None:
        subsets = tuple(itertools.combinations(range(1, params.k + 1), params.t))
    else:
        subsets = (tuple(sorted(t_subset)),)
    space = list(params.ext.elements())
    draws = len(space) ** params.t
    shape = (params.t, params.m, params.delta, params.s)
    radix = [params.q**d for d in range(params.s)]  # an element as one int: its base-q digits
    codes = []  # codes[iota - 1][j - 1][i][l][n]: server j's query entry (i, l) under draw n
    for iota in range(1, params.m + 1):
        per_draw = []
        for draw in itertools.product(space, repeat=params.t):
            # every blinding entry takes the same draw, so one call covers every entry
            blinding = np.broadcast_to(np.array(draw)[:, None, None, :], shape)
            per_draw.append(pir.queries_from_blinding(params, iota, blinding) @ radix)
        codes.append(np.moveaxis(per_draw, 0, -1).tolist())
    max_tv = Fraction(0)
    cases = 0
    failures = []
    for subset in subsets:
        for i in range(params.m):
            for l in range(params.delta):
                per_iota = [
                    Counter(zip(*(codes[a][j - 1][i][l] for j in subset)))
                    for a in range(params.m)
                ]
                for a, c in itertools.combinations(range(params.m), 2):
                    keys = set(per_iota[a]) | set(per_iota[c])
                    diff = sum(abs(per_iota[a][key] - per_iota[c][key]) for key in keys)
                    tv = Fraction(diff, 2 * draws)
                    cases += 1
                    if tv > 0:
                        failures.append({
                            "subset": list(subset),
                            "entry": [i + 1, l + 1],
                            "iota_pair": [a + 1, c + 1],
                            "tv_distance": str(tv),
                        })
                    max_tv = max(max_tv, tv)
    return harness.PrivacyAuditReport(
        params=harness._params_summary(params),
        mode="exhaustive",
        subsets=subsets,
        verdict="pass" if max_tv == 0 else "fail",
        max_tv_distance=max_tv,
        cases_total=cases,
        cases_failed=len(failures),
        failures=tuple(failures),
    )


def test_query_size_guard_admits_the_large_m_scheme():
    # its limit is a constant of the module; check it at m = 65536 and just
    # above the limit without building either scheme's database
    params = pir.setup(13, 1, 2, 9, m=2)
    harness.check_query_size(dataclasses.replace(params, m=65536))
    per_file = params.k * params.delta * params.s
    with pytest.raises(rscodes.EnumerationTooLarge):
        harness.check_query_size(dataclasses.replace(params, m=harness.QUERY_ENTRIES_LIMIT // per_file + 1))


def leak_at(monkeypatch, params, j):
    """Zero the blinding term of server j's query curve: its queries show the requested row."""
    table = pir.lagrange_basis_values(params)
    leaking = table[: j - 1] + ((table[j - 1][0], (params.ext.zero,) * params.t),) + table[j:]
    monkeypatch.setattr(pir, "lagrange_basis_values", lambda p: leaking)
    pir._query_tables.cache_clear()


@pytest.mark.parametrize("j", [1, 4])
def test_leaking_curve_reaches_the_query_table(monkeypatch, j):
    # under the table budget the queries are read from the cached table, so
    # a leaking curve must reach it: server j's rows then show the request
    params = pir.setup(7, 1, 1, 5, m=3)
    _, indicator, table = pir._query_tables(params)
    assert table is not None
    honest = pir.gen_queries(params, 2, SeededStream(5, "leak"))
    try:
        leak_at(monkeypatch, params, j)
        assert pir._query_tables(params)[2] is not None
        leaked = pir.gen_queries(params, 2, SeededStream(5, "leak"))
    finally:
        pir._query_tables.cache_clear()
    expected = np.zeros_like(leaked[j - 1])
    expected[1] = indicator[j - 1]
    assert np.array_equal(leaked[j - 1], expected)
    assert not np.array_equal(honest[j - 1], expected)
    others = [n for n in range(params.k) if n != j - 1]
    assert np.array_equal(leaked[others], honest[others])


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
        try:
            leak_at(monkeypatch, params, 1)
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

    @pytest.mark.parametrize(
        "scheme, m, t_subset",
        [
            ((4, 1, 1, 4), 2, None),
            ((4, 1, 1, 4), 3, None),
            ((4, 1, 1, 4), 1, None),  # one file: no index pair to compare, refused
            ((7, 1, 1, 5), 2, None),
            ((11, 1, 2, 8), 2, None),
            ((6, 2, 1, 5), 2, None),
            ((6, 2, 1, 5), 2, (4,)),  # a subset smaller than t
            ((5, 3, 0, 4), 2, None),
        ],
        ids=["4114-m2", "4114-m3", "4114-m1", "7115", "11128", "6215", "6215-subset4", "5304"],
    )
    def test_exhaustive_matches_per_draw_reference(self, scheme, m, t_subset):
        params = pir.setup(*scheme, m=m)
        if m == 1:
            # an audit that compares nothing must not read as a pass
            with pytest.raises(pir.InvalidParameters) as err:
                privacy_audit(params, t_subset=t_subset, mode="exhaustive")
            assert err.value.constraint == "m >= 2"
            return
        report = privacy_audit(params, t_subset=t_subset, mode="exhaustive")
        assert report.to_json_dict() == reference_exhaustive_audit(params, t_subset).to_json_dict()

    @pytest.mark.parametrize(
        "scheme, m, j",
        [
            ((4, 1, 1, 4), 3, 1),
            ((4, 1, 1, 4), 3, 2),
            ((4, 1, 1, 4), 3, 3),
            ((4, 1, 1, 4), 3, 4),
            ((7, 1, 1, 5), 3, 5),  # s = 2 and delta = 2: two-digit keys, two entries per row
            ((6, 2, 1, 5), 2, 4),  # t = 2: keys of server pairs, with server 4 first or second
        ],
        ids=["4114-server1", "4114-server2", "4114-server3", "4114-server4", "7115-server5", "6215-server4"],
    )
    def test_leaking_curve_matches_reference(self, monkeypatch, scheme, m, j):
        params = pir.setup(*scheme, m=m)
        try:
            leak_at(monkeypatch, params, j)
            report = privacy_audit(params, mode="exhaustive")
            reference = reference_exhaustive_audit(params)
        finally:
            pir._query_tables.cache_clear()
        assert report.to_json_dict() == reference.to_json_dict()
        assert report.verdict == "fail"
        assert {tuple(f["subset"]) for f in report.failures} == {u for u in report.subsets if j in u}

    @pytest.mark.parametrize(
        "scheme, j, exhaustive",
        [
            ((4, 1, 1, 4), 1, True),
            ((4, 1, 1, 4), 2, True),
            ((4, 1, 1, 4), 3, True),
            ((4, 1, 1, 4), 4, True),
            ((7, 1, 1, 5), 3, True),  # s = 2: 2 x 2 expansions over F_q
            ((6, 2, 1, 5), 4, True),  # t = 2: server 4 first or second in a pair
            ((10, 2, 1, 7), 5, False),  # t = 2 and s = 2: 4 x 4 expansions
        ],
        ids=["4114-server1", "4114-server2", "4114-server3", "4114-server4", "7115-server3", "6215-server4",
             "10217-server5"],
    )
    def test_transfer_matrix_flags_a_leaking_curve(self, monkeypatch, scheme, j, exhaustive):
        # server j's queries carry no blinding: its row of every transfer
        # matrix is zero, so exactly the subsets holding j are singular
        params = pir.setup(*scheme, m=2)
        try:
            leak_at(monkeypatch, params, j)
            report = privacy_audit(params, mode="transfer-matrix")
            reference = privacy_audit(params, mode="exhaustive") if exhaustive else None
        finally:
            pir._query_tables.cache_clear()
        leaking = [list(u) for u in report.subsets if j in u]
        assert report.verdict == "fail"
        assert (report.cases_total, report.cases_failed) == (math.comb(params.k, params.t), len(leaking))
        assert report.failures == tuple({"subset": u, "reason": "transfer matrix singular"} for u in leaking)
        if exhaustive:
            assert {tuple(f["subset"]) for f in reference.failures} == {tuple(u) for u in leaking}

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

    def test_transfer_matrix_refuses_fewer_than_t_servers(self, monkeypatch):
        # a subset below t has no square transfer matrix: it used to crash in
        # the elimination kernel; it is refused before any work, while the
        # exhaustive mode still audits it
        params = pir.setup(10, 2, 1, 7, m=2)

        def no_work(*args):
            raise AssertionError("the audit started before checking its subset")

        with monkeypatch.context() as patch:
            patch.setattr(pir, "_query_tables", no_work)
            patch.setattr(harness, "rank_stacked", no_work)
            for subset in ((3,), (1,), (10,)):
                with pytest.raises(pir.InvalidParameters) as err:
                    privacy_audit(params, t_subset=subset, mode="transfer-matrix")
                assert err.value.constraint == "subset"
                assert f"fewer than t={params.t}" in str(err.value)
        assert privacy_audit(params, t_subset=(2, 9), mode="transfer-matrix").verdict == "pass"
        small = pir.setup(4, 2, 0, 3, m=2)
        report = privacy_audit(small, t_subset=(3,), mode="exhaustive")
        assert (report.verdict, report.subsets) == ("pass", ((3,),))

    def test_exhaustive_guard(self):
        # t=2 over GF(17^2): (q^s)^t = 83521 draws per entry exceeds 2^16
        params = pir.setup(6, 2, 0, 4, q_hint=17, m=2)
        with pytest.raises(EnumerationTooLarge) as err:
            privacy_audit(params, mode="exhaustive")
        assert "transfer-matrix" in str(err.value)

    @pytest.mark.parametrize(
        "scheme, m, t_subset, entries, what",
        [
            ((6, 2, 0, 4), 2, (1,), 124852, "queries and keys of one file index"),
            ((4, 1, 1, 4), 3, None, 252, "histogram counts kept for the pairs"),
            ((4, 1, 1, 4), 40, (1,), 31200, "pair distances"),
        ],
        ids=["queries", "histograms", "pairs"],
    )
    def test_exhaustive_size_guard(self, monkeypatch, scheme, m, t_subset, entries, what):
        # draws * m * delta * (k*s + subsets) queries and keys, m * subsets
        # * m * delta * (q^s)^width kept counts, subsets * m * delta * C(m, 2)
        # distances: the largest is refused one entry below it, before any
        # query is drawn, and admitted at it
        params = pir.setup(*scheme, m=m)

        def no_query(*args):
            raise AssertionError("a query was drawn before the refusal")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "QUERY_ENTRIES_LIMIT", entries - 1)
            patch.setattr(harness, "queries_from_blinding", no_query)
            with pytest.raises(EnumerationTooLarge, match=f"^{entries} {what} exceed {entries - 1}$"):
                privacy_audit(params, t_subset=t_subset, mode="exhaustive")
        monkeypatch.setattr(harness, "QUERY_ENTRIES_LIMIT", entries)
        assert privacy_audit(params, t_subset=t_subset, mode="exhaustive").verdict == "pass"

    def test_guard_and_audit_never_enumerate_the_field(self, monkeypatch):
        # GF(11^8) has 214,358,881 elements: the guard must come from the
        # field size, and the audit below it builds its draws as arrays
        def refuse(self):
            raise AssertionError("enumerated the field")

        params = pir.setup(11, 1, 1, 4, m=2)
        small = pir.setup(4, 1, 1, 4, m=2)
        monkeypatch.setattr(ExtField, "elements", refuse)
        with pytest.raises(EnumerationTooLarge, match="214358881 blinding draws"):
            privacy_audit(params, mode="exhaustive")
        assert privacy_audit(small, mode="exhaustive").verdict == "pass"

    @pytest.mark.parametrize("t_subset", [None, (1,), (1, 2)])
    def test_unknown_mode_rejected_first(self, params_small, t_subset):
        # a subset beyond the threshold used to be reported under the bogus mode
        with pytest.raises(ValueError, match="unknown audit mode 'bogus'"):
            privacy_audit(params_small, t_subset=t_subset, mode="bogus")

    def test_report_json_schema(self, params_ext):
        report = privacy_audit(params_ext, mode="transfer-matrix")
        payload = report.to_json_dict()
        for key in ("params", "seed", "cases_total", "cases_failed", "failures", "max_tv_distance"):
            assert key in payload


def _rebuild_zero_files(monkeypatch):
    """Zero the trace rebuild matrix, so that every retrieval returns the zero file."""
    tables = pir._trace_code_tables
    monkeypatch.setattr(pir, "_trace_code_tables", lambda p: (tables(p)[0], tables(p)[1] * 0))


def _sweep_alone(params, db, scope, trials, seed) -> dict:
    """The sweep report from its draw order alone, each case decoded by itself through retrieve_from_k."""
    base = SeededStream(seed, "sweep")
    cases = []  # (iota, byzantine ids, word)
    if scope == "exhaustive":
        for iota in range(1, params.m + 1):
            queries = pir.gen_queries(params, iota, base.fork(f"iota-{iota}"))
            honest = pir.collect_answers(params, queries, db).values
            for byz in itertools.combinations(range(1, params.k + 1), params.b):
                for grid in itertools.product(range(params.q - 1), repeat=params.b):
                    word = list(honest)
                    for j, g in zip(byz, grid):
                        word[j - 1] = g + (g >= honest[j - 1])
                    cases.append((iota, byz, word))
    else:
        for trial in range(trials):
            stream = base.fork(f"trial-{trial}")
            iota = stream.randrange(params.m) + 1
            honest = pir.collect_answers(params, pir.gen_queries(params, iota, stream.fork("query")), db).values
            byz = tuple(j + 1 for j in stream.sample(params.k, params.b))
            word = list(honest)
            for j in byz:
                word[j - 1] = stream.randrange_excluding(params.q, honest[j - 1])
            cases.append((iota, byz, word))
    failures, failed = [], 0
    for iota, byz, word in cases:
        answers = pir.AnswerSet(mode="trace", server_ids=tuple(range(1, params.k + 1)), values=tuple(word))
        try:
            ok = pir.retrieve_from_k(params, answers).symbols == db.row(iota)
        except pir.ByzantineBudgetExceeded:
            ok = False
        if not ok:
            failed += 1
            if len(failures) < harness.SWEEP_REPORTED_FAILURES:
                failures.append({"iota": iota, "byzantine_set": list(byz), "injected": [word[j - 1] for j in byz]})
    return {"params": harness._params_summary(params), "seed": seed, "scope": scope,
            "cases_total": len(cases), "cases_failed": failed, "failures": failures}


class TestSweepBatches:
    """Chunked exhaustive sweeps and B-client randomized sweeps against one case at a time."""

    @pytest.mark.parametrize("scope", ["exhaustive", "randomized"])
    @pytest.mark.parametrize("wrong_recon", [False, True], ids=["right", "zero-files"])
    @pytest.mark.parametrize(
        "scheme, q_hint, m",
        [((4, 1, 1, 4), None, 2), ((7, 1, 1, 5), None, 2), ((10, 2, 1, 7), None, 2),
         ((8, 2, 0, 4), None, 3), ((4, 1, 1, 4), 2053, 1)],
        ids=["4-1-1-4", "7-1-1-5", "10-2-1-7", "b0", "one-set-chunks"],
    )
    def test_report_equals_cases_decoded_alone(self, monkeypatch, scheme, q_hint, m, wrong_recon, scope):
        # the zeroed rebuild fails every case, so the listed failures pin the
        # order across chunk boundaries; at q = 2053 a chunk is one set
        params = pir.setup(*scheme, q_hint=q_hint, m=m)
        if q_hint:
            assert (params.q - 1) ** params.b > harness.SWEEP_CHUNK_WORDS
        db = pir.random_database(params, SeededStream(17, "db"))
        if wrong_recon:
            _rebuild_zero_files(monkeypatch)
        report = byzantine_sweep(params, db, scope=scope, trials=23, seed=41)
        assert report.to_json_dict() == _sweep_alone(params, db, scope, 23, 41)
        assert report.cases_failed == (report.cases_total if wrong_recon else 0)

    @pytest.mark.parametrize("wrong_recon", [False, True], ids=["right", "zero-files"])
    @pytest.mark.parametrize("scheme", [(4, 1, 1, 4), (7, 1, 1, 5), (10, 2, 1, 7)])
    def test_small_chunks_keep_the_report(self, monkeypatch, scheme, wrong_recon):
        # chunks of one or two sets: the 20 listed failures span several
        # chunks, and there is one decode per chunk
        params = pir.setup(*scheme, m=2)
        db = pir.random_database(params, SeededStream(18, "db"))
        grid = (params.q - 1) ** params.b
        monkeypatch.setattr(harness, "SWEEP_CHUNK_WORDS", 13)
        per_chunk = max(1, 13 // grid)
        decodes = []
        retrieve_many = pir.retrieve_many
        monkeypatch.setattr(pir, "retrieve_many", lambda *args: decodes.append(1) or retrieve_many(*args))
        if wrong_recon:
            _rebuild_zero_files(monkeypatch)
        report = byzantine_sweep(params, db, scope="exhaustive", seed=3)
        assert len(decodes) == params.m * -(-math.comb(params.k, params.b) // per_chunk)
        assert report.to_json_dict() == _sweep_alone(params, db, "exhaustive", 0, 3)
        if wrong_recon:
            assert len({tuple(case["byzantine_set"]) for case in report.failures}) > per_chunk

    @pytest.mark.parametrize("wrong_recon", [False, True], ids=["right", "zero-files"])
    @pytest.mark.parametrize("budget, per_chunk", [(1, 1), (20, 2), (45, 5)])
    def test_randomized_chunks_keep_the_report(self, monkeypatch, budget, per_chunk, wrong_recon):
        # (7,1,1,5; m=2) queries hold m*delta*s = 8 entries a server: the
        # 23 trials go in chunks of per_chunk clients, one answer call each,
        # and are decoded together
        params = pir.setup(7, 1, 1, 5, m=2)
        assert params.m * params.delta * params.s == 8
        db = pir.random_database(params, SeededStream(19, "db"))
        monkeypatch.setattr(harness, "SWEEP_CHUNK_WORDS", budget)
        calls = []

        def counted(name):
            fn = getattr(pir, name)
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("server_answer", "retrieve_many"):
            monkeypatch.setattr(pir, name, counted(name))
        if wrong_recon:
            _rebuild_zero_files(monkeypatch)
        report = byzantine_sweep(params, db, scope="randomized", trials=23, seed=6)
        assert calls == ["server_answer"] * -(-23 // per_chunk) + ["retrieve_many"]
        assert report.to_json_dict() == _sweep_alone(params, db, "randomized", 23, 6)

    def test_call_counts(self, monkeypatch):
        # (11,1,2,8; m=2): 55 byzantine sets of 100 words each give chunks
        # of 20 sets, 3 per file index; a randomized sweep of up to 170
        # trials (one chunk) is one answer call and one decode
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        params = pir.setup(11, 1, 2, 8, m=2)
        db = pir.random_database(params, 4)
        monkeypatch.setattr(pir, "retrieve_many", counted("decode", pir.retrieve_many))
        report = byzantine_sweep(params, db, scope="exhaustive", seed=2)
        assert (report.cases_total, report.cases_failed) == (11_000, 0)
        assert calls == ["decode"] * 6
        monkeypatch.setattr(pir, "server_answer", counted("answer", pir.server_answer))
        for trials in (1, 7, 60):
            del calls[:]
            report = byzantine_sweep(params, db, scope="randomized", trials=trials, seed=trials)
            assert (report.cases_total, report.cases_failed) == (trials, 0)
            assert calls == ["answer", "decode"]


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

    @pytest.mark.parametrize(
        "trials, message",
        [
            (0, "0 cases, need at least 1"),
            (-1, "-1 cases, need at least 1"),
            (True, "True is not a whole number of cases"),
            (2.0, "2.0 is not a whole number of cases"),
        ],
    )
    def test_randomized_needs_a_case(self, monkeypatch, params_small, db_small, trials, message):
        def no_work(*args):
            raise AssertionError("the sweep started before checking its trials")

        monkeypatch.setattr(pir, "check_dimensions", no_work)
        monkeypatch.setattr(pir, "draw_blinding", no_work)
        with pytest.raises(pir.InvalidParameters) as err:
            byzantine_sweep(params_small, db_small, scope="randomized", trials=trials)
        assert err.value.constraint == "randomized"
        assert str(err.value) == message

    def test_exhaustive_guard_suggests_randomized(self):
        # C(11,2) * 100^2 * 2 = 1.1e6 cases exceeds the guard
        params = pir.setup(11, 1, 2, 8, q_hint=101, m=2)
        db = pir.random_database(params, 1)
        with pytest.raises(EnumerationTooLarge) as err:
            byzantine_sweep(params, db, scope="exhaustive")
        assert "randomized" in str(err.value)

    @pytest.mark.parametrize("scope", ["exhaustive", "randomized"])
    def test_wrong_rebuild_fails_every_case_in_order(self, monkeypatch, scope):
        params = pir.setup(7, 1, 1, 5, m=2)
        db = pir.random_database(params, 3)
        _rebuild_zero_files(monkeypatch)
        report = byzantine_sweep(params, db, scope=scope, trials=30, seed=5)
        assert report.cases_failed == report.cases_total == (84 if scope == "exhaustive" else 30)
        assert len(report.failures) == harness.SWEEP_REPORTED_FAILURES == 20
        if scope == "exhaustive":
            # file index, then byzantine set, then injected values in lexicographic order
            first = [case["byzantine_set"] + case["injected"] for case in report.failures]
            assert all(case["iota"] == 1 for case in report.failures)
            assert first == sorted(first)
            sets = [case["byzantine_set"] for case in report.failures]
            assert sets == [[1]] * 6 + [[2]] * 6 + [[3]] * 6 + [[4]] * 2

    def test_golden_sweeps(self, monkeypatch):
        # reports frozen before sweeps decoded their cases in batches: exhaustive
        # and randomized scopes, and two sweeps whose every case fails, so that
        # the enumeration and the random draw order are pinned too
        with open(DATA / "golden_sweeps.json") as fh:
            cases = json.load(fh)
        for case in cases:
            params = pir.setup(*case["scheme"], m=case["m"])
            db = pir.random_database(params, case["db_seed"])
            with monkeypatch.context() as patch:
                if case["wrong_recon"]:
                    _rebuild_zero_files(patch)
                report = byzantine_sweep(params, db, scope=case["scope"], trials=case["trials"],
                                         seed=case["seed"])
            assert report.to_json_dict() == case["report"], case["scheme"]

    def test_randomized_sweep_makes_one_solve_and_one_encode(self, monkeypatch):
        # (17,1,2,8; m=2), dim 13: the 20 trials' b wrong answers sit on many
        # located sets, and the one decode of the sweep corrects them all with
        # one stacked solve and one re-encode.  With the rebuild zeroed every
        # case fails, and the report lists the first 20 draws of the frozen
        # 50-trial sweep at the same seeds
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        params = pir.setup(17, 1, 2, 8, m=2)
        db = pir.random_database(params, 6)
        monkeypatch.setattr(rscodes.linalg, "solve", counted("solve", rscodes.linalg.solve))
        monkeypatch.setattr(rscodes, "grs_encode", counted("encode", rscodes.grs_encode))
        report = byzantine_sweep(params, db, scope="randomized", trials=20, seed=8)
        assert calls == ["solve", "encode"]
        assert (report.cases_total, report.cases_failed, report.failures) == (20, 0, ())
        del calls[:]
        _rebuild_zero_files(monkeypatch)
        report = byzantine_sweep(params, db, scope="randomized", trials=20, seed=8)
        assert calls == ["solve", "encode"]
        with open(DATA / "golden_sweeps.json") as fh:
            golden = next(case["report"] for case in json.load(fh)
                          if case["scheme"] == [17, 1, 2, 8] and case["wrong_recon"])
        assert report.to_json_dict() == {**golden, "cases_total": 20, "cases_failed": 20,
                                         "failures": golden["failures"][:20]}

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
        tables = [scheme_comparison(k, t, b, r, l=1) for k, t, b, r in ((4, 1, 1, 4), (7, 1, 1, 5))]
        assert [t.k for t in tables] == [4, 7]

    def test_invalid_row_rejected(self):
        with pytest.raises(pir.InvalidParameters):
            scheme_comparison(4, 1, 1, 9)
        with pytest.raises(pir.InvalidParameters):
            scheme_comparison(4, 1, 1, 4, l=0)


def _json_round_trip(payload: dict) -> None:
    """payload must be plain JSON: no NaN, numpy scalar, Fraction, tuple or non-string key."""
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload


def _session(byzantine_set, seed, outcome):
    params = pir.setup(4, 1, 1, 4, m=3)
    adversary = AdversaryModel(byzantine_set=byzantine_set)
    report = run_session(params, pir.random_database(params, 1234), 2, adversary, seed=seed)
    assert ("failed" if report.error else "ok" if report.ok else "wrong file") == outcome
    return [report.to_json_dict(), report.to_json_dict(params.ext.format_element)]


def _leaking_audit(monkeypatch, mode):
    params = pir.setup(4, 1, 1, 4, m=3)
    try:
        leak_at(monkeypatch, params, 1)
        report = privacy_audit(params, mode=mode)
    finally:
        pir._query_tables.cache_clear()
    assert report.verdict == "fail"
    return [report.to_json_dict()]


def _sweep(monkeypatch, scope, wrong_recon):
    params = pir.setup(7, 1, 1, 5, m=2)
    if wrong_recon:
        _rebuild_zero_files(monkeypatch)
    report = byzantine_sweep(params, pir.random_database(params, 3), scope=scope, trials=30, seed=5)
    assert bool(report.failures) == wrong_recon
    return [report.to_json_dict()]


def _one_payload(report):
    return [report.to_json_dict()]


REPORT_KINDS = {
    "session-honest": lambda mp: _session((), 1, "ok"),
    "session-corrected": lambda mp: _session((3,), 1, "ok"),
    "session-failed": lambda mp: _session((1, 2), 3, "failed"),
    "sweep-exhaustive": lambda mp: _sweep(mp, "exhaustive", False),
    "sweep-counterexamples": lambda mp: _sweep(mp, "randomized", True),
    "audit-pass": lambda mp: _one_payload(privacy_audit(pir.setup(4, 1, 1, 4, m=2))),
    "audit-leaking": lambda mp: _leaking_audit(mp, "exhaustive"),
    "audit-leaking-transfer": lambda mp: _leaking_audit(mp, "transfer-matrix"),
    "audit-beyond-threshold": lambda mp: _one_payload(privacy_audit(pir.setup(4, 1, 1, 4), (1, 2))),
    "audit-transfer": lambda mp: _one_payload(privacy_audit(pir.setup(7, 1, 1, 5), mode="transfer-matrix")),
    "table": lambda mp: _one_payload(scheme_comparison(7, 1, 1, 5, l=2)),
    "table-no-live": lambda mp: _one_payload(scheme_comparison(8, 1, 1, 5, q=13)),
    "optimality": lambda mp: [pir.validate_optimality(pir.setup(7, 1, 1, 5)).as_dict()],
}


@pytest.mark.parametrize("kind", REPORT_KINDS)
def test_every_report_kind_survives_json(monkeypatch, kind):
    for payload in REPORT_KINDS[kind](monkeypatch):
        _json_round_trip(payload)


@pytest.mark.parametrize("value", [np.int64(1), Fraction(1, 2), (1, 2), {1: 2}, float("nan")])
def test_json_round_trip_rejects_what_is_not_plain_json(value):
    with pytest.raises((TypeError, ValueError, AssertionError)):
        _json_round_trip({"x": value})


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
