"""One integer-argument rule at every public entry point (``linalg.check_int``).

Each row of ROWS is one integer argument of one entry point: a call that
takes the argument's value, a value it accepts, the values outside the
argument's range, what a refusal raises (IndexError, or InvalidParameters
and the constraint it names) and, where the entry point keeps the
argument, how to read it back.  Every row meets every bad class: a bool,
a fractional float, a whole float and each value out of range.  Each is
refused with the message naming the value, and a spy on
``pir.draw_blinding`` records no draw.  A numpy integer gives what the
int gives, is kept as a Python int, and its report serializes to the
same bytes.  The rule's text exists once in the package: an AST scan of
src/tracepir finds no other integer test and no ``int()`` of a parameter.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import tracepir
from tracepir import gf, linalg, pir
from tracepir.harness import AdversaryModel, byzantine_sweep, privacy_audit, run_session, scheme_comparison
from tracepir.pir import InvalidParameters
from tracepir.rand import SeededStream

PARAMS = pir.setup(4, 1, 1, 4, m=3)  # GF(7): k = 4 servers, m = 3 files
DB = pir.random_database(PARAMS, 1234)
BLINDING = pir.draw_blinding(PARAMS, SeededStream(2, "blinding"))
BLINDINGS = pir.draw_blinding(PARAMS, [SeededStream(n, "blinding") for n in (2, 3)])
QUERIES = pir.gen_queries(PARAMS, 2, SeededStream(1, "queries"))
FULL = pir.collect_answers(PARAMS, QUERIES, DB, "full").values  # servers 1..4 = r, honest
SOURCE = Path(__file__).resolve().parent.parent / "src" / "tracepir"


def stream_draws(seed) -> tuple:
    stream = SeededStream(seed, "draws")
    return stream.seed, stream.randrange_array(7, 4).tolist()


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
    "stream-seed": (stream_draws, 5, ("5",), "seed", lambda r: r[0]),
    "server_answer-id": (lambda v: pir.server_answer(PARAMS, v, QUERIES[1], DB), 2, (0, 5), IndexError, None),
    "server_answer-ids": (
        lambda v: pir.server_answer(PARAMS, (1, v), QUERIES[:2], DB), 2, (0, 5), IndexError, None
    ),
    "collect_answers-ids": (
        lambda v: pir.collect_answers(PARAMS, QUERIES, DB, "trace", (1, v)),
        2, (0, 5), IndexError, lambda a: a.server_ids[1],
    ),
    "retrieve_from_r-ids": (
        lambda v: pir.retrieve_from_r(PARAMS, pir.AnswerSet("full", (1, 2, 3, v), FULL)),
        4, (0, 5), IndexError, None,
    ),
    "PrimeField-q": (gf.PrimeField, 7, (1,), "q", lambda field: field.q),
    "optimality-k": (lambda v: pir.validate_optimality((v, 1, 1, 4)), 4, (), "integer", None),
    "optimality-delta": (lambda v: pir.validate_optimality(PARAMS, delta=v), 1, (), "integer", None),
    "optimality-s": (lambda v: pir.validate_optimality(PARAMS, s=v), 1, (), "integer", None),
    "Database.row": (DB.row, 2, (0, 4), IndexError, None),
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


def assert_refused(call, value, refusal):
    with pytest.raises(IndexError if refusal is IndexError else InvalidParameters) as err:
        call(value)
    if refusal is not IndexError:
        assert err.value.constraint == refusal
    assert repr(value) in str(err.value)


@pytest.mark.parametrize("name, value", CASES)
def test_bad_value_is_refused_before_any_draw(draws, name, value):
    call, _, _, refusal, _ = ROWS[name]
    assert_refused(call, value, refusal)
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


# name: (the call, the argument it takes in front of the cache, its cache, refusal);
# True == 1, hash(True) == hash(1) and 1.0 == 1, so a check inside the
# cached body, or a bad key on a cold cache, would decide the verdict
CACHED = {
    "capacity-m": (lambda v: pir.capacity(1, 1, 5, m=v), 1, pir._capacity, "m >= 1"),
    "server_answer-id": (
        lambda v: pir.server_answer(PARAMS, v, QUERIES[0], DB), 1, pir._trace_forms, IndexError
    ),
    "server_answer-ids": (
        lambda v: pir.server_answer(PARAMS, (v, 2), QUERIES[:2], DB), 1, pir._trace_forms, IndexError
    ),
    "retrieve_from_r-ids": (
        lambda v: pir.retrieve_from_r(PARAMS, pir.AnswerSet("full", (v, 2, 3, 4), FULL)),
        1, pir._full_code_tables, IndexError,
    ),
}


@pytest.mark.parametrize("bad", [True, 1.0, 1.5], ids=["bool", "whole-float", "fraction"])
@pytest.mark.parametrize("name", CACHED)
def test_bad_value_is_refused_in_front_of_a_cache(name, bad):
    call, good, cache, refusal = CACHED[name]
    cache.cache_clear()
    for _ in ("cold", "after the int is cached"):
        assert_refused(call, bad, refusal)
        call(good)


def _checks(tree: ast.AST, scope: str = "", params: frozenset = frozenset()):
    """(scope, call) of every ``isinstance(x, int)``, alone or in a tuple, and every
    ``int(p)`` of a parameter p, not annotated str, of the innermost function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _checks(node, f"{scope}.{node.name}".lstrip("."), params)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            names = frozenset(a.arg for a in arguments if getattr(a.annotation, "id", None) != "str")
            inner = scope if isinstance(node, ast.Lambda) else f"{scope}.{node.name}".lstrip(".")
            yield from _checks(node, inner, names)
        else:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                args = node.args
                if node.func.id == "isinstance" and len(args) == 2:
                    kinds = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
                    if any(getattr(kind, "id", None) == "int" for kind in kinds):
                        yield scope, ast.unparse(node)
                if node.func.id == "int" and len(args) == 1 and not node.keywords:
                    if getattr(args[0], "id", None) in params:
                        yield scope, ast.unparse(node)
            yield from _checks(node, scope, params)


# the rule itself; the element validators, which follow the field's own
# contract (a canonical element is a plain int); and the query map's test
# of one file index against a batch of them
ALLOWED = {
    ("linalg.py", "check_int"),
    ("gf.py", "PrimeField.validate"),
    ("gf.py", "ExtField.validate"),
    ("pir.py", "queries_from_blinding"),
}


def test_the_rule_lives_in_linalg_and_pir_re_exports_it():
    assert pir.check_int is linalg.check_int and pir.check_server_ids is linalg.check_server_ids
    assert pir.InvalidParameters is linalg.InvalidParameters is tracepir.InvalidParameters


def test_the_integer_rule_is_written_once():
    found = {
        (path.name, scope, call)
        for path in sorted(SOURCE.glob("*.py"))
        for scope, call in _checks(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {where for where in found if where[:2] not in ALLOWED} == set()
    assert ("linalg.py", "check_int") in {where[:2] for where in found}
