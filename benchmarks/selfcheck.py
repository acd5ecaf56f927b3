"""Tests of the benchmark itself (not of the package it measures).

Run from the repository root:

    python3 -m pytest -q benchmarks/selfcheck.py

The file name keeps these tests out of the package's own test run.
"""

import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Inputs, Outcome, Runner, SpeedSampler, probe_s, smoke_variant,
)

from tracepir import harness, pir  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = {name: smoke_variant(w) for name, w in WORKLOADS.items()}


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in manifest["end_to_end"]]
    layers = [m["name"] for m in manifest["per_layer"]]
    for name in e2e + layers + [w["name"] for w in manifest["workloads"]]:
        assert NAME.fullmatch(name), name
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for entry in manifest["end_to_end"]:
        assert (entry["unit"], entry["better"]) == run.END_TO_END[entry["name"]]
    for entry in manifest["per_layer"]:
        assert (entry["unit"], entry["better"]) == run.PER_LAYER[entry["name"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_seed_gives_the_same_inputs_twice(name):
    workload = SMOKE[name]
    params = pir.setup(workload.k, workload.t, workload.b, workload.r, m=workload.m)

    def draw(seed):
        inputs = Inputs(workload, seed)
        return (
            inputs.database(params),
            inputs.database(params, *inputs.sweep(0)[0]),
            [(inputs.session(i), inputs.cli(i), inputs.sweep(i)) for i in range(8)],
        )

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_scaling_to_nominal_speed_divides_times_and_multiplies_throughputs():
    assert Outcome("session", 0.5, 1, 0, [], None, slowdown=2.0).scaled() == 0.25
    assert Outcome("cli", 0.5, 1, 0, [], None, slowdown=2.0).scaled() == 0.5 / 2.0 ** 0.65
    assert Outcome("sweep", 100.0, 1, 0, [], None, slowdown=2.0).scaled() == 200.0
    assert Outcome("audit", 100.0, 1, 0, [], None, slowdown=2.0).scaled() == 200.0
    assert 0 < probe_s() < 0.1


def test_sampler_probes_inside_a_call_and_leaves_the_probes_out_of_its_time():
    def busy():
        end = time.perf_counter() + 0.3
        n = 0
        while time.perf_counter() < end:
            n += 1
        return n

    handler = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    result, seconds = sampler.timed(busy)
    assert result > 0
    assert len(sampler.probes) >= 3
    assert 0.2 < seconds < 0.3  # the call ran 0.3 s, minus the probes
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wrappers_are_restored_even_when_the_pass_fails():
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    before = tracing.bound_originals(targets)
    tracer = tracing.Tracer(counting=True)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tracing.bound_originals(targets) != before
            raise RuntimeError("stop")
    after = tracing.bound_originals(targets)
    assert all(before[key] is after[key] for key in before)


def test_the_gate_flags_a_wrong_file():
    runner = Runner(SMOKE["verify"], 3, ROOT)
    iota, seed, byz = runner.inputs.session(0)
    adversary = harness.AdversaryModel(byzantine_set=byz)
    report = harness.run_session(runner.params, runner.db, iota, adversary, seed=seed)
    assert runner.session_errors(report, iota, byz) == []
    wrong = runner.inputs.database(runner.params, "other").row(iota)
    assert runner.session_errors(dataclasses.replace(report, retrieved_file=wrong), iota, byz)
    assert runner.session_errors(report, iota, ())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_its_gate(name):
    result = run.measure(SMOKE[name], 5, seconds=0.5)
    assert result["errors"] == [] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_run_matches_the_untraced_run(name):
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    before = tracing.bound_originals(targets)
    result = run.trace(SMOKE[name], 5)
    after = tracing.bound_originals(targets)
    assert result["errors"] == [] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert all(before[key] is after[key] for key in before)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
