"""Workload definitions, seeded inputs, timed operations and their checks.

A workload is one scheme plus a traffic mix of five operation kinds:

- ``setup``: one ``pir.setup`` call at the workload's scheme;
- ``session``: one trace-mode ``harness.run_session`` (honest, or with b
  byzantine servers on ``verify``);
- ``sweep``: one ``harness.byzantine_sweep`` over a fresh seeded database;
- ``audit``: one ``harness.privacy_audit``;
- ``cli``: one fresh ``python -m tracepir.cli run`` process.

Every input is derived from the workload seed through ``SeededStream``
labels that name the operation and its index, so the i-th input of a
kind is the same whatever order the scheduler runs operations in.  Every
operation checks its own output; a failed check is recorded, never
raised, so one run reports all of them.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracepir import harness, pir
from tracepir.rand import SeededStream

OP_KINDS = ("setup", "session", "sweep", "audit", "cli")
THROUGHPUT_KINDS = ("sweep", "audit")  # their value is cases per second, not seconds
CLI_TIMEOUT_S = 120

# Other tenants share the host's cores, and the host runs at two speeds
# that last from seconds to many minutes; the slow one takes about 1.7x as
# long for the same pure-Python work.  A fixed loop timed between
# operations measures the speed, and every gated time is scaled to the
# speed at which the loop takes PROBE_NOMINAL_S: the fast state of the
# 2-CPU Xeon host the benchmark was tuned on.  See NOTES.md.
PROBE_NOMINAL_S = 250e-6
SAMPLE_PERIOD_S = 0.05
# A fresh CLI process (interpreter start, imports) slows less than the
# probe: its log time moved 0.65x as far as the log slowdown, measured
# across runs and within them on the same host.
CLI_SLOWDOWN_EXPONENT = 0.65


@dataclass(frozen=True)
class Workload:
    """One scheme and the mix of operations run against it.

    ``weights`` is each kind's share of the measured time; ``min_counts``
    the samples a run needs whatever the time; ``trace_cycle`` the fixed
    operation counts of one pass of the traced run (which has no ``cli``).
    """

    name: str
    k: int
    t: int
    b: int
    r: int
    m: int
    byzantine_sessions: bool
    sweep_scope: str  # "exhaustive" or "randomized"
    sweep_trials: int  # randomized scope only
    audit_mode: str  # "exhaustive" or "transfer-matrix"
    weights: dict = field(default_factory=dict)
    min_counts: dict = field(default_factory=dict)
    trace_cycle: dict = field(default_factory=dict)


# Why each workload exists, and the layer it isolates, is in NOTES.md.
WORKLOADS = {
    "bulk": Workload(
        name="bulk",
        k=13, t=1, b=2, r=9, m=1024,
        byzantine_sessions=False,
        # exhaustive sweep (11.5M cases) and exhaustive audit are beyond the
        # package's own guards at m=1024, so bulk runs their scalable forms
        sweep_scope="randomized",
        sweep_trials=1,
        audit_mode="transfer-matrix",
        weights={"setup": 0.015, "session": 0.70, "sweep": 0.10, "audit": 0.015, "cli": 0.17},
        # >= 100 sessions so that ten samples lie beyond the p90
        min_counts={"setup": 30, "session": 100, "sweep": 8, "audit": 30, "cli": 8},
        trace_cycle={"setup": 3, "session": 12, "sweep": 1, "audit": 3},
    ),
    "small": Workload(
        name="small",
        k=17, t=1, b=2, r=8, m=2,
        byzantine_sessions=False,
        # 17^4 blinding draws exceed the exhaustive-audit guard; the exhaustive
        # sweep (69,632 cases) would take most of a run
        sweep_scope="randomized",
        sweep_trials=20,
        audit_mode="transfer-matrix",
        weights={"setup": 0.14, "session": 0.12, "sweep": 0.12, "audit": 0.04, "cli": 0.58},
        min_counts={"setup": 6, "session": 100, "sweep": 15, "audit": 15, "cli": 8},
        trace_cycle={"setup": 4, "session": 300, "sweep": 1, "audit": 10},
    ),
    "verify": Workload(
        name="verify",
        k=11, t=1, b=2, r=8, m=2,
        byzantine_sessions=True,
        sweep_scope="exhaustive",
        sweep_trials=0,
        audit_mode="exhaustive",
        weights={"setup": 0.03, "session": 0.15, "sweep": 0.45, "audit": 0.07, "cli": 0.30},
        min_counts={"setup": 30, "session": 100, "sweep": 3, "audit": 15, "cli": 15},
        trace_cycle={"setup": 5, "session": 200, "sweep": 1, "audit": 4},
    ),
}


def smoke_variant(workload: Workload) -> Workload:
    """The same traffic at a scheme small enough for a test to run quickly."""
    tiny = {"setup": 2, "session": 3, "sweep": 1, "audit": 1}
    if workload.name == "bulk":
        scheme = dict(m=16)
    else:
        # (7,1,1,5; m=2): s=2 over GF(7), 84 exhaustive sweep cases
        scheme = dict(k=7, t=1, b=1, r=5, m=2)
    return replace(
        workload,
        **scheme,
        sweep_trials=min(workload.sweep_trials, 3),
        min_counts={**tiny, "cli": 1},
        trace_cycle=tiny,
    )


# --- seeded inputs -------------------------------------------------------------


class Inputs:
    """Every input of one workload run, derived from the workload seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed

    def stream(self, *path) -> SeededStream:
        label = "/".join(["bench", self.workload.name, *map(str, path)])
        return SeededStream(self.seed, label)

    def database(self, params, *path):
        return pir.random_database(params, self.stream("db", *path))

    def session(self, i: int, kind: str = "session") -> tuple:
        """(iota, session seed, byzantine set) of the i-th session."""
        w = self.workload
        stream = self.stream(kind, i)
        iota = stream.randrange(w.m) + 1
        seed = stream.getbits(63)
        byz = ()
        if w.byzantine_sessions:
            byz = tuple(j + 1 for j in stream.sample(w.k, w.b))
        return iota, seed, byz

    def cli(self, i: int) -> tuple:
        """(iota, database-and-session seed, byzantine set) of the i-th CLI run."""
        return self.session(i, "cli")

    def sweep(self, i: int) -> tuple:
        """(database path label, sweep seed) of the i-th sweep."""
        return ("sweep", i), self.stream("sweep", i).getbits(63)


# --- host speed ----------------------------------------------------------------


def _probe_work() -> list:
    """Two 10x10 matrix products mod 13: interpreter work like the package's."""
    m = [[(7 * i + 3 * j) % 13 for j in range(10)] for i in range(10)]
    for _ in range(2):
        m = [[sum(x * y for x, y in zip(row, col)) % 13 for col in zip(*m)] for row in m]
    return m


def probe_s() -> float:
    """Host speed now: the median of three timings of the fixed loop.

    The median, because an interrupt can lengthen one timing, while the
    fastest of three would miss slow spells shorter than the probe.
    """
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        timings.append(time.perf_counter() - start)
    return sorted(timings)[1]


class SpeedSampler:
    """Probes the host speed every SAMPLE_PERIOD_S while an operation runs.

    The probe runs in a SIGALRM handler between bytecodes of the
    operation, so an operation of seconds is scaled by the speed it ran
    at, not only by the speed before and after it.  The handler's own time
    is taken out of the operation's time.
    """

    def __init__(self):
        self.probes = []
        self._pauses = []  # (start, end) of each handler run

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe_s())
        self._pauses.append((start, time.perf_counter()))

    def timed(self, call) -> tuple:
        """(result, seconds) of call(), without the probes run inside it."""
        self.probes, self._pauses = [], []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            start = time.perf_counter()
            result = call()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # a handler that began before `end` was read also ended before it
        paused = sum(e - s for s, e in self._pauses if s < end)
        return result, end - start - paused


# --- the operations ------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation measured and whether its output was right."""

    kind: str
    value: float  # seconds for setup/session/cli, cases per second for sweep/audit
    attempted: int
    failed: int
    errors: list
    output: object  # compared between the traced and untraced passes
    slowdown: float = 1.0  # host speed around the operation, as probe time / PROBE_NOMINAL_S

    def scaled(self) -> float:
        """The value at the nominal host speed."""
        if self.kind in THROUGHPUT_KINDS:
            return self.value * self.slowdown
        if self.kind == "cli":
            return self.value / self.slowdown ** CLI_SLOWDOWN_EXPONENT
        return self.value / self.slowdown


class Runner:
    """Runs operations of one workload against one parameter set."""

    def __init__(self, workload: Workload, seed: int, root: Path, sampler=None):
        self.workload = workload
        self.inputs = Inputs(workload, seed)
        self.root = root
        self.sampler = sampler  # a SpeedSampler in the measured run; none when traced
        self.params = self.setup_params()
        self.db = self.inputs.database(self.params)
        self.capacity = pir.capacity(workload.t, workload.b, workload.k)

    def setup_params(self):
        w = self.workload
        return pir.setup(w.k, w.t, w.b, w.r, m=w.m)

    def run(self, kind: str, i: int) -> Outcome:
        return getattr(self, f"op_{kind}")(i)

    def timed(self, call) -> tuple:
        """(result, seconds) of call(), sampling the host speed if measuring."""
        if self.sampler is not None:
            return self.sampler.timed(call)
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start

    def op_setup(self, i: int) -> Outcome:
        params, elapsed = self.timed(self.setup_params)
        errors = [] if params == self.params else ["setup returned different constants"]
        return Outcome("setup", elapsed, 1, len(errors), errors, pir.params_to_json_dict(params))

    def session_errors(self, report, iota: int, byz: tuple) -> list:
        errors = []
        if not report.ok:
            errors.append(f"session not ok: {report.error}")
        if not report.ground_truth_match or report.retrieved_file != self.db.row(iota):
            errors.append("retrieved file differs from the planted row")
        if report.measured_rate != self.capacity:
            errors.append(f"rate {report.measured_rate} != capacity {self.capacity}")
        if tuple(report.identified_error_positions) != tuple(sorted(byz)):
            errors.append(f"flagged {report.identified_error_positions}, corrupted {byz}")
        return errors

    def op_session(self, i: int) -> Outcome:
        iota, seed, byz = self.inputs.session(i)
        adversary = harness.AdversaryModel(byzantine_set=byz) if byz else None
        report, elapsed = self.timed(lambda: harness.run_session(
            self.params, self.db, iota, adversary, mode="trace", seed=seed))
        errors = self.session_errors(report, iota, byz)
        return Outcome("session", elapsed, 1, int(bool(errors)), errors,
                       (report.retrieved_file, report.identified_error_positions))

    def expected_sweep_cases(self) -> int:
        w = self.workload
        if w.sweep_scope == "randomized":
            return w.sweep_trials
        return math.comb(w.k, w.b) * (self.params.q - 1) ** w.b * w.m

    def op_sweep(self, i: int) -> Outcome:
        w = self.workload
        db_path, seed = self.inputs.sweep(i)
        db = self.inputs.database(self.params, *db_path)
        report, elapsed = self.timed(lambda: harness.byzantine_sweep(
            self.params, db, scope=w.sweep_scope, trials=w.sweep_trials, seed=seed))
        errors = []
        if report.cases_failed:
            errors.append(f"sweep: {report.cases_failed} failed cases")
        if report.cases_total != self.expected_sweep_cases():
            errors.append(f"sweep ran {report.cases_total} cases, expected {self.expected_sweep_cases()}")
        return Outcome("sweep", report.cases_total / elapsed, report.cases_total,
                       max(report.cases_failed, int(bool(errors))), errors, report.to_json_dict())

    def op_audit(self, i: int) -> Outcome:
        w = self.workload
        report, elapsed = self.timed(lambda: harness.privacy_audit(self.params, mode=w.audit_mode))
        errors = []
        if report.cases_failed:
            errors.append(f"audit: {report.cases_failed} failed cases")
        if report.verdict != "pass":
            errors.append(f"audit verdict {report.verdict!r}")
        # the transfer-matrix mode certifies by invertibility and has no TV distance
        if w.audit_mode == "exhaustive" and report.max_tv_distance != 0:
            errors.append(f"audit max TV distance {report.max_tv_distance}")
        if report.cases_total < 1:
            errors.append("audit checked no cases")
        return Outcome("audit", report.cases_total / elapsed, max(report.cases_total, 1),
                       max(report.cases_failed, int(bool(errors))), errors, report.to_json_dict())

    def cli_command(self, iota: int, seed: int, byz: tuple) -> list:
        w = self.workload
        cmd = [sys.executable, "-m", "tracepir.cli", "run",
               "--k", str(w.k), "--t", str(w.t), "--b", str(w.b), "--r", str(w.r),
               "--m", str(w.m), "--iota", str(iota), "--random-db", "--seed", str(seed)]
        if byz:
            cmd += ["--byzantine", ",".join(map(str, byz))]
        return cmd

    def op_cli(self, i: int) -> Outcome:
        iota, seed, byz = self.inputs.cli(i)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        # not sampled: on the one pinned CPU the probe would take time from the child
        start = time.perf_counter()
        proc = subprocess.run(self.cli_command(iota, seed, byz), cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        errors = []
        if proc.returncode != 0:
            errors.append(f"cli exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        else:
            try:
                report = json.loads(proc.stdout)
            except ValueError:
                report = {}
            if report.get("ok") is not True:
                errors.append("cli did not print \"ok\": true")
            else:
                # the CLI builds its database from the same seed and label
                db = pir.random_database(self.params, SeededStream(seed, "db"))
                fmt = self.params.ext.format_element
                if report.get("retrieved_file") != [fmt(x) for x in db.row(iota)]:
                    errors.append("cli retrieved the wrong file")
        return Outcome("cli", elapsed, 1, int(bool(errors)), errors, None)


# --- the measured run ---------------------------------------------------------


def schedule(runner: Runner, seconds: float, hard_limit: float) -> dict:
    """Run operations for `seconds`, sharing time by the workload's weights.

    The kind that has used the smallest share of its weight runs next, so
    every kind samples the whole run rather than one stretch of it.  An
    operation that would end past the deadline is not started once its
    kind has its minimum count; no operation starts after `hard_limit`.
    The host-speed probe runs before the first operation and after each
    one; an operation's slowdown is the mean of the probes either side and
    of those its runner's sampler took during it.
    """
    w = runner.workload
    kinds = [k for k in OP_KINDS if w.weights.get(k)]
    spent = dict.fromkeys(kinds, 0.0)
    outcomes = {k: [] for k in kinds}
    sampler = runner.sampler
    start = time.perf_counter()
    before = probe_s()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= hard_limit:
            break
        candidates = []
        for kind in kinds:
            n = len(outcomes[kind])
            if n < w.min_counts.get(kind, 1):
                candidates.append(kind)
            elif elapsed + (spent[kind] / n if n else 0.0) <= seconds:
                candidates.append(kind)
        if not candidates:
            break
        kind = min(candidates, key=lambda k: spent[k] / w.weights[k])
        sampler.probes = []
        t0 = time.perf_counter()
        outcome = runner.run(kind, len(outcomes[kind]))
        spent[kind] += time.perf_counter() - t0
        after = probe_s()
        probes = [before, *sampler.probes, after]
        outcome.slowdown = sum(probes) / len(probes) / PROBE_NOMINAL_S
        outcomes[kind].append(outcome)
        before = after
    return outcomes
