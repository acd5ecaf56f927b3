"""Benchmark of the tracepir package, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload bulk --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
``--workload all`` runs every workload, one fresh process each, one after
another.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is nonzero when any output
check failed.  Each run also writes its full record, and the traced run
its spans, under ``.bench_out/`` in the repository root.

The package is imported from ``src/`` next to this directory and nowhere
else, so the benchmark refuses to run outside a full source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".bench_out"
HARD_LIMIT_S = 140  # no operation starts later; every run ends well inside 180 s

# name -> (unit, better); the order is the order of the printed report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "session_p50_ms": ("ms", "lower"),
    "session_p90_ms": ("ms", "lower"),
    "sweep_cases_per_s": ("cases/s", "higher"),
    "audit_cases_per_s": ("cases/s", "higher"),
    "cli_run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "pir.gen_queries.ms": ("ms", "lower"),
    "pir.queries_from_blinding.ms": ("ms", "lower"),
    "rand.SeededStream.randrange.calls": ("count", "lower"),
    "harness.ServerNode.respond.ms": ("ms", "lower"),
    "pir.server_answer.ms": ("ms", "lower"),
    "kernels.ext_dot.calls": ("count", "lower"),
    "kernels.ext_dot.terms": ("count", "lower"),
    "gf.ExtField.add.calls": ("count", "lower"),
    "gf.ExtField.mul.calls": ("count", "lower"),
    "gf.ExtField.trace.calls": ("count", "lower"),
    "kernels.ext_mul.calls": ("count", "lower"),
    "kernels.ext_pow.calls": ("count", "lower"),
    "kernels.ext_inv.calls": ("count", "lower"),
    "audit.gf.ExtField.add.calls": ("count", "lower"),
    "audit.gf.ExtField.mul.calls": ("count", "lower"),
    "kernels.ext_dot.ns_per_term": ("ns", "lower"),
    "kernels.ext_mul.ns_per_call": ("ns", "lower"),
    "rscodes.grs_decode.ms": ("ms", "lower"),
    "rscodes.grs_decode.solves_per_call": ("count", "lower"),
    "linalg.solve.ms": ("ms", "lower"),
    "rscodes.grs_encode.calls": ("count", "lower"),
    "pir.retrieve_from_k.ms": ("ms", "lower"),
    "pir.retrieve_from_k.self_ms": ("ms", "lower"),
    "polyring.poly_eval.calls": ("count", "lower"),
    "gf.find_irreducibles.s": ("s", "lower"),
    "gf.rabin_irreducible.calls": ("count", "lower"),
    "gf.irreducible_hit_ratio": ("ratio", "higher"),
    "polyring.poly_powmod.calls": ("count", "lower"),
    "pir.setup.self_s": ("s", "lower"),
    "pir.setup.root_evals": ("count", "lower"),
    "pir.setup.root_hit_ratio": ("ratio", "higher"),
    "pir.verify_params.s": ("s", "lower"),
    "gf.dual_basis.s": ("s", "lower"),
    "harness.run_session.self_ms": ("ms", "lower"),
    "rand.SeededStream.fork.calls": ("count", "lower"),
    "harness.run_session.cold_ms": ("ms", "lower"),
    "harness.byzantine_sweep.case_ms": ("ms", "lower"),
    "harness.privacy_audit.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def locate_package(root: Path = ROOT) -> None:
    """Import tracepir from root/src, or exit 2 when the tree lacks it."""
    src = root / "src"
    if not (src / "tracepir" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'tracepir'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import tracepir

    if src not in Path(tracepir.__file__).resolve().parents:
        sys.exit(f"error: tracepir was imported from {tracepir.__file__}, not {src}")


# --- environment ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload, seed: int, root: Path) -> dict:
    import numpy
    import tracepir

    return {
        "workload": workload.name,
        "seed": seed,
        "scheme": {"k": workload.k, "t": workload.t, "b": workload.b, "r": workload.r,
                   "m": workload.m},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": tracepir.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
    }


def pin_to_one_cpu() -> None:
    """Run on one CPU, so the host-speed probe and the work it scales share a core.

    The CLI children inherit the pin.
    """
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


# --- the end-to-end run -----------------------------------------------------------


def tally(outcomes) -> tuple:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    return attempted, failed, errors


def percentile(values, p: int) -> float:
    """The p-th percentile by the inclusive method, which stays inside the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, seed: int, seconds: float, root: Path = ROOT) -> dict:
    """Closed-loop run of the workload's operation mix, nothing traced.

    Every gated time and throughput is scaled to the nominal host speed
    measured by the probe around each operation (see ``workloads.probe_s``
    and NOTES.md); the unscaled medians and the host's slowdown are
    reported beside them, ungated.
    """
    from workloads import Runner, SpeedSampler, schedule

    runner = Runner(workload, seed, root, SpeedSampler())
    runner.run("session", -1)  # warm-up: builds the lazy tables, not measured
    outcomes = schedule(runner, seconds, HARD_LIMIT_S)
    values = {kind: [o.scaled() for o in outs] for kind, outs in outcomes.items()}
    sessions_ms = [v * 1e3 for v in values["session"]]
    metrics = {
        "setup_s": statistics.median(values["setup"]),
        "session_p50_ms": statistics.median(sessions_ms),
        "session_p90_ms": percentile(sessions_ms, 90),
        "sweep_cases_per_s": statistics.median(values["sweep"]),
        "audit_cases_per_s": statistics.median(values["audit"]),
        "cli_run_s": statistics.median(values["cli"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {kind: statistics.median(o.value for o in outs) for kind, outs in outcomes.items()}
    ungated = {
        "unscaled.setup_s": (raw["setup"], "s"),
        "unscaled.session_p50_ms": (raw["session"] * 1e3, "ms"),
        "unscaled.sweep_cases_per_s": (raw["sweep"], "cases/s"),
        "unscaled.audit_cases_per_s": (raw["audit"], "cases/s"),
        "unscaled.cli_run_s": (raw["cli"], "s"),
        "host.slowdown": (statistics.median(o.slowdown for outs in outcomes.values()
                                            for o in outs), "ratio"),
    }
    attempted, failed, errors = tally(o for outs in outcomes.values() for o in outs)
    return {
        "metrics": {name: (value, END_TO_END[name][0]) for name, value in metrics.items()},
        "ungated": ungated,
        "samples": {kind: len(v) for kind, v in values.items()},
        "values": {kind: [o.value for o in outs] for kind, outs in outcomes.items()},
        "slowdowns": {kind: [o.slowdown for o in outs] for kind, outs in outcomes.items()},
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


# --- the traced run ---------------------------------------------------------------


def run_pass(runner, cycle, tracer=None):
    """Run the fixed operation list once; returns (wall seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for kind, i in cycle:
        with tracer.operation(kind) if tracer else contextlib.nullcontext():
            outcomes.append(runner.run(kind, i))
    return time.perf_counter() - start, outcomes


def per_call_ns(fn, units: int, repeats: int = 5, min_time: float = 0.05) -> float:
    """Median nanoseconds per unit of work over `repeats` timed loops."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= min_time:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / (loops * units))
    return statistics.median(samples) * 1e9


def kernel_microbench(runner) -> dict:
    """ext_dot over m*delta terms and ext_mul, on operands drawn from the seed."""
    from tracepir import kernels

    params = runner.params
    ext = params.ext
    red = tuple(-c % ext.q for c in ext.modulus[:ext.s])  # xi^s == red
    stream = runner.inputs.stream("kernels")
    n = params.m * params.delta
    xs = [stream.field_element(ext) for _ in range(n)]
    ys = [stream.field_element(ext) for _ in range(n)]
    pairs = [(stream.field_element(ext), stream.field_element(ext)) for _ in range(256)]
    ext_dot, ext_mul, q = kernels.ext_dot, kernels.ext_mul, ext.q
    if ext_dot(xs, ys, red, q) != ext.dot(xs, ys):
        raise AssertionError("kernel reduction vector does not match the field")

    def muls():
        for a, b in pairs:
            ext_mul(a, b, red, q)

    return {
        "kernels.ext_dot.ns_per_term": per_call_ns(lambda: ext_dot(xs, ys, red, q), n),
        "kernels.ext_mul.ns_per_call": per_call_ns(muls, len(pairs)),
    }


def layer_metrics(runner, spans, counts, traced_outcomes) -> dict:
    med_ms = lambda name: statistics.median(spans.durations(name)) * 1e3  # noqa: E731
    med_s = lambda name: statistics.median(spans.durations(name))  # noqa: E731
    sessions = counts.ops_of("session")
    setups = counts.ops_of("setup")
    audits = counts.ops_of("audit")
    per_session = lambda name: counts.count(name, "session") / sessions  # noqa: E731
    per_audit = lambda name: counts.count(name, "audit") / audits  # noqa: E731
    found = (runner.params.delta + runner.params.t) * setups  # irreducibles per setup
    tested = counts.count("gf.rabin_irreducible", "setup", stage="gf.find_irreducibles")
    root_evals = counts.count("gf.ExtField.eval_base_poly", "setup", stage="pir.setup")
    sweep_cases = [o.attempted for o in traced_outcomes if o.kind == "sweep"]
    sweep_spans = spans.durations("harness.byzantine_sweep")
    return {
        "pir.gen_queries.ms": med_ms("pir.gen_queries"),
        "pir.queries_from_blinding.ms": med_ms("pir.queries_from_blinding"),
        "rand.SeededStream.randrange.calls": per_session("rand.SeededStream.randrange"),
        "harness.ServerNode.respond.ms": med_ms("harness.ServerNode.respond"),
        "pir.server_answer.ms": med_ms("pir.server_answer"),
        "kernels.ext_dot.calls": per_session("kernels.ext_dot"),
        "kernels.ext_dot.terms": per_session("kernels.ext_dot.terms"),
        "gf.ExtField.add.calls": per_session("gf.ExtField.add"),
        "gf.ExtField.mul.calls": per_session("gf.ExtField.mul"),
        "gf.ExtField.trace.calls": per_session("gf.ExtField.trace"),
        "kernels.ext_mul.calls": per_session("kernels.ext_mul"),
        "kernels.ext_pow.calls": per_session("kernels.ext_pow"),
        "kernels.ext_inv.calls": per_session("kernels.ext_inv"),
        "audit.gf.ExtField.add.calls": per_audit("gf.ExtField.add"),
        "audit.gf.ExtField.mul.calls": per_audit("gf.ExtField.mul"),
        "rscodes.grs_decode.ms": med_ms("rscodes.grs_decode"),
        "rscodes.grs_decode.solves_per_call": (
            spans.span_count("linalg.solve") / spans.span_count("rscodes.grs_decode")),
        "linalg.solve.ms": med_ms("linalg.solve"),
        "rscodes.grs_encode.calls": spans.span_count("rscodes.grs_encode", "session") / sessions,
        "pir.retrieve_from_k.ms": med_ms("pir.retrieve_from_k"),
        "pir.retrieve_from_k.self_ms": statistics.median(spans.self_times("pir.retrieve_from_k")) * 1e3,
        "polyring.poly_eval.calls": per_session("polyring.poly_eval"),
        "gf.find_irreducibles.s": med_s("gf.find_irreducibles"),
        "gf.rabin_irreducible.calls": counts.count("gf.rabin_irreducible", "setup") / setups,
        "gf.irreducible_hit_ratio": found / tested,
        "polyring.poly_powmod.calls": counts.count("polyring.poly_powmod", "setup") / setups,
        "pir.setup.self_s": statistics.median(spans.self_times("pir.setup")),
        "pir.setup.root_evals": root_evals / setups,
        "pir.setup.root_hit_ratio": found / root_evals,
        "pir.verify_params.s": med_s("pir.verify_params"),
        "gf.dual_basis.s": med_s("gf.dual_basis"),
        "harness.run_session.self_ms": statistics.median(spans.self_times("harness.run_session")) * 1e3,
        "rand.SeededStream.fork.calls": per_session("rand.SeededStream.fork"),
        "harness.byzantine_sweep.case_ms": statistics.median(
            d / n for d, n in zip(sweep_spans, sweep_cases, strict=True)) * 1e3,
        "harness.privacy_audit.s": med_s("harness.privacy_audit"),
    }


def trace(workload, seed: int, root: Path = ROOT, spans_path: Path | None = None) -> dict:
    """The traced run: the same fixed operations untraced, with spans, with counters."""
    from tracing import COUNT_TARGETS, SPAN_TARGETS, Tracer, bound_originals
    from workloads import Runner

    before = bound_originals(SPAN_TARGETS + COUNT_TARGETS)
    runner = Runner(workload, seed, root)
    cold = runner.run("session", -1)  # first session after setup builds the lazy tables
    cycle = [(kind, i) for kind, n in workload.trace_cycle.items() for i in range(n)]
    plain_s, plain = run_pass(runner, cycle)
    spans = Tracer(counting=False)
    with spans.installed():
        spans_s, traced = run_pass(runner, cycle, spans)
    counts = Tracer(counting=True)
    with counts.installed():
        _, counted = run_pass(runner, cycle, counts)
    after = bound_originals(SPAN_TARGETS + COUNT_TARGETS)

    errors = list(cold.errors)
    for outcomes in (plain, traced, counted):
        errors += tally(outcomes)[2]
    outputs = [[o.output for o in outcomes] for outcomes in (plain, traced, counted)]
    if not outputs[0] == outputs[1] == outputs[2]:
        errors.append("traced outputs differ from the untraced run")
    silent = spans.silent_targets() + counts.silent_targets()
    if silent:
        errors.append(f"wrappers that never fired: {', '.join(silent)}")
    if any(before[key] is not after[key] for key in before):
        errors.append("wrapped names were not restored")

    metrics = {}
    if not errors:
        metrics = layer_metrics(runner, spans, counts, traced)
        metrics["harness.run_session.cold_ms"] = cold.value * 1e3
        metrics["trace.overhead_ratio"] = spans_s / plain_s
        metrics.update(kernel_microbench(runner))
        metrics = {name: (metrics[name], PER_LAYER[name][0]) for name in PER_LAYER}
    if spans_path is not None:
        spans_path.write_text(json.dumps(spans.spans_as_json()))
    attempted, failed, _ = tally(plain + traced + counted + [cold])
    return {
        "metrics": metrics,
        "samples": dict(workload.trace_cycle, passes=3),
        "attempted": attempted,
        "failed": max(failed, int(bool(errors))),
        "errors": errors,
    }


# --- reporting ----------------------------------------------------------------------


def report(env: dict, result: dict, traced: bool) -> int:
    """Print the human-readable record, then the one-line JSON result."""
    print(f"workload {env['workload']}  seed {env['seed']}  scheme {env['scheme']}  "
          f"{'traced' if traced else 'end-to-end'}")
    print("environment " + json.dumps({k: v for k, v in env.items()
                                         if k not in ("workload", "seed", "scheme")}))
    print("samples " + json.dumps(result["samples"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    for name, (value, unit) in result.get("ungated", {}).items():
        print(f"  {name:<38} {value:>14.6g} {unit} (reported, not gated)")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"  {'failed_frac':<38} {frac:>14.6g} ratio ({result['failed']} of {result['attempted']}; "
          "reported, not gated)")
    if traced:
        print("  note: a kernel speed-up can cut a bulk session by at most ext_dot's share "
              "of it (about 15%); see NOTES.md")
    for error in result["errors"][:20]:
        print(f"  check failed: {error}")
    correct = not result["errors"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="bulk, small, verify or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    locate_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    env = environment(workload, args.seed, ROOT)
    pin_to_one_cpu()
    if args.trace:
        result = trace(workload, args.seed, ROOT, out / f"{stem}-spans.json")
    else:
        result = measure(workload, args.seed, args.seconds, ROOT)
    (out / f"{stem}.json").write_text(json.dumps({"environment": env, **result}, indent=1))
    return report(env, result, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
