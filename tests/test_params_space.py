"""`pir.setup` pinned over a whole parameter space.

`tests/data/golden_params_space.json` maps every (k, t, b, r) with
3 <= k <= 23, 1 <= t <= 4, 0 <= b <= 3 and 1 <= r <= k, at m = 2, to the
SHA-256 of `json.dumps(params_to_json_dict(setup(k, t, b, r, m=2)),
sort_keys=True)`, or to the constraint `setup` refuses the tuple with.
Tier-1 checks a slice drawn with a fixed seed; `pytest --full-space`
checks every tuple.

The file pins constants that must not change.  To rewrite it after a
deliberate change of the constants, run
`PYTHONPATH=src python tests/test_params_space.py` from the repository root.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from tracepir import pir
from tracepir.rand import SeededStream

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_params_space.json"
SLICE = 500  # tuples drawn for tier-1; 73 of them pass setup


def space():
    return [
        (k, t, b, r)
        for k in range(3, 24)
        for t in range(1, 5)
        for b in range(4)
        for r in range(1, k + 1)
    ]


def pin(k, t, b, r) -> str:
    try:
        params = pir.setup(k, t, b, r, m=2)
    except pir.InvalidParameters as err:
        return f"refused: {err.constraint}"
    text = json.dumps(pir.params_to_json_dict(params), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def key(case) -> str:
    return ",".join(map(str, case))


def mismatches(cases) -> list:
    golden = json.loads(GOLDEN.read_text())["pins"]
    return [(key(c), golden[key(c)], got) for c in cases if (got := pin(*c)) != golden[key(c)]]


def test_golden_covers_the_space():
    golden = json.loads(GOLDEN.read_text())["pins"]
    assert sorted(golden) == sorted(key(c) for c in space())
    assert len(golden) == 4368


def test_params_space_slice():
    cases = space()
    picked = SeededStream(20, "params-space").sample(len(cases), SLICE)
    assert mismatches([cases[i] for i in picked]) == []


def test_params_space_full(request):
    if not request.config.getoption("--full-space"):
        pytest.skip("the whole space takes about 15 s; run with --full-space")
    assert mismatches(space()) == []


if __name__ == "__main__":
    pins = {key(c): pin(*c) for c in space()}
    GOLDEN.write_text(json.dumps({"m": 2, "pins": pins}, indent=0, sort_keys=True) + "\n")
    valid = sum(not v.startswith("refused") for v in pins.values())
    print(f"wrote {len(pins)} pins ({valid} valid) to {GOLDEN}", file=sys.stderr)
