"""One integer-argument rule at every public entry point (``pir.check_int``).

Each row of ROWS is one integer argument of one entry point: a call that
takes the argument's value, a value it accepts, the values outside the
argument's range, what a refusal raises (IndexError, or InvalidParameters
and the constraint it names) and, where the entry point keeps the
argument, how to read it back.  Every row meets every bad class: a bool,
a fractional float, a whole float and each value out of range.  Each is
refused with the message naming the value, and a spy on
``pir.draw_blinding`` records no draw.  A numpy integer gives what the
int gives, is kept as a Python int, and its report serializes to the
same bytes.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from tracepir import pir
from tracepir.harness import AdversaryModel, byzantine_sweep, privacy_audit, run_session, scheme_comparison
from tracepir.pir import InvalidParameters
from tracepir.rand import SeededStream

PARAMS = pir.setup(4, 1, 1, 4, m=3)  # GF(7): k = 4 servers, m = 3 files
DB = pir.random_database(PARAMS, 1234)
BLINDING = pir.draw_blinding(PARAMS, SeededStream(2, "blinding"))
BLINDINGS = pir.draw_blinding(PARAMS, [SeededStream(n, "blinding") for n in (2, 3)])

# name: (call, accepted value, values out of range, refusal, the kept argument)
ROWS = {
    "setup-k": (lambda v: pir.setup(v, 1, 1, 4, m=3), 4, (), "integer", lambda p: p.k),
    "setup-t": (lambda v: pir.setup(4, v, 1, 4, m=3), 1, (0,), "t >= 1", lambda p: p.t),
    "setup-b": (lambda v: pir.setup(4, 1, v, 4, m=3), 1, (-1,), "b >= 0", lambda p: p.b),
    "setup-r": (lambda v: pir.setup(4, 1, 1, v, m=3), 4, (), "integer", lambda p: p.r),
    "setup-m": (lambda v: pir.setup(4, 1, 1, 4, m=v), 3, (0,), "m >= 1", lambda p: p.m),
    "setup-q": (lambda v: pir.setup(4, 1, 1, 4, q_hint=v, m=3), 7, (2**31 + 11,), "q", lambda p: p.q),
    "check_q": (lambda v: pir.check_q(v, 6), 7, (2**31 + 11,), "q", lambda q: q),
    "capacity-t": (lambda v: pir.capacity(v, 1, 5), 1, (), "integer", None),
    "capacity-b": (lambda v: pir.capacity(1, v, 5), 1, (), "integer", None),
    "capacity-k": (lambda v: pir.capacity(1, 1, v), 5, (), "integer", None),
    "capacity-m": (lambda v: pir.capacity(1, 1, 5, m=v), 2, (0,), "m >= 1", None),
    "comparison-t": (lambda v: scheme_comparison(5, v, 1, 5), 1, (), "integer", lambda table: table.t),
    "comparison-l": (lambda v: scheme_comparison(5, 1, 1, 5, l=v), 2, (0,), "l >= 1", lambda table: table.l),
    "adversary-offset": (
        lambda v: AdversaryModel(strategy="offset", offset=v), 3, (), "offset", lambda a: a.offset
    ),
    "session-iota": (lambda v: run_session(PARAMS, DB, v), 2, (0, 4), IndexError, lambda r: r.iota),
    "session-server-id": (
        lambda v: run_session(PARAMS, DB, 1, AdversaryModel(byzantine_set=(v,))),
        2, (0, 5), IndexError, lambda r: r.byzantine_set[0],
    ),
    "session-seed": (lambda v: run_session(PARAMS, DB, 1, seed=v), 5, (), "seed", lambda r: r.seed),
    "audit-server-id": (
        lambda v: privacy_audit(PARAMS, t_subset=(v,)), 1, (0, 5), "subset", lambda r: r.subsets[0][0]
    ),
    "sweep-trials": (
        lambda v: byzantine_sweep(PARAMS, DB, "randomized", trials=v, seed=1),
        3, (0, -1), "randomized", lambda r: r.cases_total,
    ),
    "sweep-seed": (
        lambda v: byzantine_sweep(PARAMS, DB, "randomized", trials=2, seed=v), 5, (), "seed", lambda r: r.seed
    ),
    "gen_queries-iota": (
        lambda v: pir.gen_queries(PARAMS, v, SeededStream(1, "q")).tolist(), 2, (0, 4), IndexError, None
    ),
    "queries_from_blinding-iota": (
        lambda v: pir.queries_from_blinding(PARAMS, v, BLINDING).tolist(), 2, (0, 4), IndexError, None
    ),
    "queries_from_blinding-batch": (
        lambda v: pir.queries_from_blinding(PARAMS, [1, v], BLINDINGS).tolist(), 2, (0, 4), IndexError, None
    ),
    "random_database-seed": (lambda v: pir.random_database(PARAMS, v), 5, (), "seed", None),
}


def _bad_values(good, outside) -> list:
    return [("bool", True), ("fraction", good + 0.5), ("whole-float", float(good))] + [
        (f"outside-{value}", value) for value in outside
    ]


CASES = [
    pytest.param(name, value, id=f"{name}-{kind}")
    for name, (_, good, outside, _, _) in ROWS.items()
    for kind, value in _bad_values(good, outside)
]


@pytest.fixture
def draws(monkeypatch):
    """The calls of ``pir.draw_blinding``, which still draws."""
    calls, draw = [], pir.draw_blinding

    def spy(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(pir, "draw_blinding", spy)
    return calls


@pytest.mark.parametrize("name, value", CASES)
def test_bad_value_is_refused_before_any_draw(draws, name, value):
    call, _, _, refusal, _ = ROWS[name]
    with pytest.raises(IndexError if refusal is IndexError else InvalidParameters) as err:
        call(value)
    if refusal is not IndexError:
        assert err.value.constraint == refusal
    assert repr(value) in str(err.value)
    assert draws == []


@pytest.mark.parametrize("integer", [np.int64, np.uint16])
@pytest.mark.parametrize("name", ROWS)
def test_numpy_integer_is_taken_as_the_int(draws, name, integer):
    call, good, _, _, kept = ROWS[name]
    plain, numpy = call(good), call(integer(good))
    assert numpy == plain
    if kept is not None:
        assert type(kept(numpy)) is int
    if hasattr(plain, "to_json_dict"):
        assert json.dumps(numpy.to_json_dict()) == json.dumps(plain.to_json_dict())


def test_capacity_refuses_a_bool_or_float_m_in_front_of_its_cache():
    # True == 1 and hash(True) == hash(1): a check inside the cached body
    # would be skipped once m = 1 is cached
    assert pir.capacity(1, 1, 5, m=1) == Fraction(3, 5)
    for m in (True, 2.5):
        with pytest.raises(InvalidParameters) as err:
            pir.capacity(1, 1, 5, m=m)
        assert err.value.constraint == "m >= 1"
