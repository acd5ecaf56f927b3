"""The benchmark's traced pass still sees every stage it wraps.

`benchmarks/tracing.py` rebinds package names in place, and a wrapper
whose name the package no longer looks up never fires.  The benchmark
reports that as an error, but only when it runs; this test runs the
traced smoke pass of every workload so that such a refactor fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("workload", ["bulk", "small", "verify"])
def test_traced_smoke_pass_has_no_errors(monkeypatch, workload):
    # import the benchmark from its own directory without writing bytecode there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    result = run.trace(workloads.smoke_variant(workloads.WORKLOADS[workload]), 5)
    assert result["errors"] == []
    assert result["failed"] == 0
    if workload == "verify":
        # every word of a verify sweep chunk has its errors on the same servers
        assert result["metrics"]["rscodes.grs_decode.solves_per_call"][0] == 1
        # every verify session re-encodes its one lone dirty word
        assert result["metrics"]["rscodes.grs_encode.calls"][0] == 1
