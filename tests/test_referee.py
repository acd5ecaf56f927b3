"""A seeded referee: sessions over a drawn slice of the (k, t, b, r) space.

The slice is drawn once from every valid tuple with k <= 23, t <= 4 and
b <= 3, so it reaches towers and byzantine budgets that no hand-picked
case names.  Each drawn scheme that passes ``setup`` runs trace and
full sessions with 0..b byzantine servers under the random, offset and
default targeted strategies; every one must return the planted file and
flag only byzantine servers.  Two schemes at the largest fields, where
every int64 bound is tightest, must also flag exactly their byzantine
servers.  Each also passes the transfer-matrix
audit, whose verdicts on a sample of subsets are checked against a
t x t elimination over F_{q^s}.
"""

import itertools
import json
import math

import pytest

from conftest import params_from_json_dict

from tracepir import cli, linalg, pir
from tracepir.gf import MAX_FIELD_SIZE, next_prime
from tracepir.harness import AdversaryModel, byzantine_sweep, privacy_audit, run_session
from tracepir.rand import SeededStream

SLICE = 20  # schemes that pass setup
SEED = 2302


def _broken(k, t, b, r) -> str | None:
    """The first scheme constraint the tuple breaks, in setup's order, or None."""
    delta, rem = r - 2 * b - t, k - 2 * b - t
    if delta < 1:
        return "t < r-2b"
    if rem < 1:
        return "2b+t < k"
    if rem % delta:
        return "delta | (k-2b-t)"
    return None


BOX = [(k, t, b, r) for k in range(2, 24) for t in range(1, 5) for b in range(4) for r in range(1, k + 1)]
SPACE = [scheme for scheme in BOX if _broken(*scheme) is None]


def _field_size(k, t, b, r) -> int:
    """q^s for the tuple, q being the least prime that setup may use."""
    delta = r - 2 * b - t
    s = (k - 2 * b - t) // delta
    return next_prime(k + delta + t if s == 1 else k) ** s


@pytest.fixture(scope="module")
def drawn():
    """The first SLICE schemes of a seeded draw without replacement, and the tuples refused on the way."""
    stream = SeededStream(SEED, "referee")
    pool = list(SPACE)
    schemes, refused = [], []
    while len(schemes) < SLICE:
        scheme = pool.pop(stream.randrange(len(pool)))
        try:
            schemes.append(pir.setup(*scheme, m=2))
        except pir.InvalidParameters as exc:
            refused.append((scheme, exc))
    return schemes, refused


def test_slice_covers_the_space(drawn):
    schemes, refused = drawn
    assert {p.s for p in schemes} >= {1, 2, 3} and max(p.s for p in schemes) >= 4
    assert {p.t for p in schemes} >= {1, 4}
    assert {p.b for p in schemes} >= {0, 3}
    assert refused  # the draw crosses the field-size guard


def test_refusals_name_their_constraint(drawn):
    # a valid tuple is refused exactly when its tower exceeds 2^32
    schemes, refused = drawn
    for scheme, exc in refused:
        assert exc.constraint == "field-size-guard", scheme
        assert _field_size(*scheme) > MAX_FIELD_SIZE, scheme
    for p in schemes:
        assert _field_size(p.k, p.t, p.b, p.r) == p.q**p.s <= MAX_FIELD_SIZE
    # tuples outside the space are refused by the first constraint they break
    stream = SeededStream(SEED, "refusals")
    outside = [scheme for scheme in BOX if _broken(*scheme) is not None]
    for i in stream.sample(len(outside), 12):
        scheme = outside[i]
        with pytest.raises(pir.InvalidParameters) as err:
            pir.setup(*scheme, m=2)
        assert err.value.constraint == _broken(*scheme), scheme


def test_cli_params_refuses_what_setup_refuses(drawn, capsys):
    # every refused tuple of the draw, and the sampled tuples outside the
    # space: `tracepir params` exits 2 and names setup's constraint
    _, refused = drawn
    stream = SeededStream(SEED, "refusals")
    outside = [scheme for scheme in BOX if _broken(*scheme) is not None]
    cases = [(scheme, exc.constraint) for scheme, exc in refused]
    cases += [(outside[i], _broken(*outside[i])) for i in stream.sample(len(outside), 12)]
    for scheme, constraint in cases:
        argv = ["params", "--m", "2"]
        for flag, value in zip(("--k", "--t", "--b", "--r"), scheme):
            argv += [flag, str(value)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), scheme
        assert err.startswith(f"error: invalid-parameters [{constraint}]: "), (scheme, err)
        assert err.count("\n") == 1, scheme


@pytest.mark.parametrize("n", range(SLICE))
def test_sessions_return_the_planted_file(drawn, n):
    params = drawn[0][n]
    scheme = (params.k, params.t, params.b, params.r)
    restored = params_from_json_dict(json.loads(json.dumps(pir.params_to_json_dict(params))))
    assert restored == params, scheme
    stream = SeededStream(SEED, f"sessions-{scheme}")
    db = pir.random_database(params, stream.fork("db"))
    for mode, asked in (("trace", params.k), ("full", params.r)):
        for count in range(params.b + 1):
            for strategy in ("random", "offset", "targeted") if count else ("random",):
                byz = tuple(j + 1 for j in stream.sample(asked, count))
                offset = stream.randrange(params.q - 1) + 1
                adversary = AdversaryModel(byzantine_set=byz, strategy=strategy, offset=offset)
                iota = stream.randrange(params.m) + 1
                report = run_session(params, db, iota, adversary, mode=mode, seed=stream.randrange(2**32))
                case = (scheme, mode, byz, strategy)
                assert report.ok, case
                assert set(report.identified_error_positions) <= set(byz), case


@pytest.mark.parametrize("n", range(SLICE))
def test_transfer_matrix_audit_passes(drawn, n):
    # the audit eliminates each subset's (t*s) x (t*s) expansion over F_q;
    # the reference eliminates the t x t matrix of chi values over F_{q^s}
    params = drawn[0][n]
    scheme = (params.k, params.t, params.b, params.r)
    report = privacy_audit(params, mode="transfer-matrix")
    assert report.verdict == "pass", scheme
    assert (report.cases_total, report.cases_failed) == (math.comb(params.k, params.t), 0), scheme
    failing = {tuple(f["subset"]) for f in report.failures}
    table = pir.lagrange_basis_values(params)
    subsets = list(itertools.combinations(range(1, params.k + 1), params.t))
    stream = SeededStream(SEED, f"subsets-{scheme}")
    for i in stream.sample(len(subsets), min(20, len(subsets))):
        matrix = [list(table[j - 1][1]) for j in subsets[i]]
        singular = len(linalg._eliminate(params.ext, matrix, params.t)) < params.t
        assert (subsets[i] in failing) == singular, (scheme, subsets[i])



@pytest.mark.parametrize(
    "scheme, q, s", [((8, 1, 2, 8), 2**31 - 1, 1), ((11, 1, 2, 8), 65521, 2)], ids=["2^31-1", "65521^2"]
)
def test_byzantine_sessions_at_the_largest_fields(scheme, q, s):
    # the largest prime an int64 product of two symbols allows (s = 1) and
    # the largest 16-bit prime, whose square is just under 2^32 (s = 2):
    # every product of the decode and the rebuild is as large as it gets.
    # Random and offset answers always differ from the honest ones, so
    # exactly the byzantine servers asked are flagged
    params = pir.setup(*scheme, q_hint=q, m=2)
    assert (params.q, params.s) == (q, s)
    stream = SeededStream(SEED, f"largest-{q}")
    db = pir.random_database(params, stream.fork("db"))
    for mode, asked in (("trace", params.k), ("full", params.r)):
        for count in range(params.b + 1):
            for strategy in ("random", "offset"):
                byz = tuple(sorted(j + 1 for j in stream.sample(asked, count)))
                offset = stream.randrange(q - 1) + 1
                adversary = AdversaryModel(byzantine_set=byz, strategy=strategy, offset=offset)
                iota = stream.randrange(params.m) + 1
                report = run_session(params, db, iota, adversary, mode=mode, seed=stream.randrange(2**32))
                case = (mode, byz, strategy)
                assert report.ok, case
                assert report.identified_error_positions == byz, case
    # a randomized sweep decodes its cases as one batch, large enough for
    # reduce_mod's division form
    report = byzantine_sweep(params, db, scope="randomized", trials=300, seed=SEED)
    assert (report.cases_total, report.cases_failed) == (300, 0)
