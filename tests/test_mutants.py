"""A mutation referee for the decoder, the F_q kernels, the seeded draws and the irreducible search: every mutant in tests/data/mutants.json must be killed.

`pytest --mutants tests/test_mutants.py` runs it.  A mutant names a
file, an `old` text that occurs exactly once in it, the `new` text that
replaces it, the reason the change is wrong, and the tests that kill it
(`killed_by`).  Each case copies src/, tests/ and pyproject.toml into a
temporary directory, applies the mutant there, and runs its `killed_by`
tests in a child pytest from that directory, where they must fail.  The
unmutated control runs every `killed_by` test and must pass.  The child
exits with WRONG_TREE unless the tracepir its tests imported lies in the
copy: the `pythonpath` setting of pyproject.toml would otherwise put the
real tree first.  Without the option only the file's consistency is
checked, so no mutant silently stops applying when the code under it
changes, and no `killed_by` id names a test that is not there.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = {
    mutant["name"]: mutant
    for mutant in json.loads((ROOT / "tests" / "data" / "mutants.json").read_text(encoding="utf-8"))
}
WRONG_TREE = 97
CHILD = (
    "import os, sys, pytest\n"
    "status = pytest.main(sys.argv[2:])\n"
    "import tracepir\n"
    "inside = os.path.realpath(tracepir.__file__).startswith(os.path.realpath(sys.argv[1]) + os.sep)\n"
    f"sys.exit(status if inside else {WRONG_TREE})\n"
)


def defined_tests(path: Path) -> set:
    """The "function" and "Class::function" ids of the test functions defined in a test file.

    A class has the methods of its bases defined earlier in the file too,
    as pytest collects them: a subclass that reruns a class under a
    fixture names its tests by its own name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, classes = set(), {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            for base in node.bases:
                methods |= classes.get(getattr(base, "id", None), set())
            classes[node.name] = methods
            names.update(f"{node.name}::{method}" for method in methods)
    return {name for name in names if name.rpartition("::")[2].startswith("test_")}


def test_every_mutant_applies_exactly_once():
    # and every killed_by id names a test function of its file, so renaming
    # a killer fails here and not only in the opt-in --mutants run
    assert "control" not in MUTANTS
    for name, mutant in MUTANTS.items():
        assert mutant["old"] != mutant["new"] and mutant["reason"] and mutant["killed_by"], name
        source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        assert source.count(mutant["old"]) == 1, name
        for test in mutant["killed_by"]:
            file, _, function = test.partition("::")
            assert function.partition("[")[0] in defined_tests(ROOT / file), (name, test)


@pytest.mark.parametrize("name", ["control", *MUTANTS])
def test_mutant_is_killed(request, tmp_path, name):
    if not request.config.getoption("--mutants"):
        pytest.skip("each mutant runs a child test session; run with --mutants")
    tree = tmp_path / "tree"
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tree)
    if name == "control":
        tests = sorted({test for mutant in MUTANTS.values() for test in mutant["killed_by"]})
    else:
        mutant = MUTANTS[name]
        path = tree / mutant["file"]
        source = path.read_text(encoding="utf-8")
        path.write_text(source.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        tests = mutant["killed_by"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree / "src" / "tracepir"), "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode != WRONG_TREE, f"the child imported tracepir from outside {tree}"
    # 1 is pytest's "tests failed"; a mutant that breaks collection, or a
    # killed_by id that names no test, proves nothing
    assert child.returncode == (0 if name == "control" else 1), child.stdout[-4000:]
