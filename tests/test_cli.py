"""Command-line surface: flags, exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracepir
from conftest import save_database

from tracepir import cli, harness, pir


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ("--k", "4", "--t", "1", "--b", "1", "--r", "4")


class TestParams:
    def test_valid_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "params", *BASE)
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["delta"] == 1
        assert payload["params"]["s"] == 1
        assert payload["params"]["q"] == 7
        assert all(payload["optimality"].values())

    def test_invalid_divisibility_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "params", "--k", "4", "--t", "1", "--b", "1", "--r", "5")
        assert code == 2
        assert "delta | (k-2b-t)" in err
        assert "does not divide" in err

    def test_field_size_guard_exit_2(self, capsys):
        # s = 12 over GF(13) is above the 2^32 field cap
        code, _, err = run_cli(capsys, "params", "--k", "13", "--t", "1", "--b", "0", "--r", "2")
        assert code == 2
        assert "field-size-guard" in err

    def test_extension_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--k", "7", "--t", "1", "--b", "1", "--r", "5")
        assert code == 0
        payload = json.loads(out)
        assert (payload["params"]["delta"], payload["params"]["s"]) == (2, 2)

    @pytest.mark.parametrize("command", ["params", "run", "table"])
    @pytest.mark.parametrize("q", ["9", "1", str(2**31 + 11), "0", "4"])
    def test_q_not_a_usable_prime_exit_2(self, capsys, command, q):
        extra = ("--m", "2", "--random-db") if command == "run" else ()
        code, out, err = run_cli(capsys, command, *BASE, "--q", q, *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: invalid-parameters [q]: q={q} is not a prime below 2^31\n"

    @pytest.mark.parametrize("command", ["params", "table"])
    @pytest.mark.parametrize("q", ["3", "5"])
    def test_q_below_the_setup_minimum_exit_2(self, capsys, command, q):
        # s = 1 at (4,1,1,4): k = 4 beta, 1 chi and 1 alpha point in GF(q)
        code, out, err = run_cli(capsys, command, *BASE, "--q", q)
        assert (code, out) == (2, "")
        assert err == f"error: invalid-parameters [k <= q]: q={q} is below the minimum 6 for these parameters\n"

    def test_missing_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["params", "--k", "4", "--t", "1", "--b", "1"])
        assert err.value.code == 2


class TestRun:
    def test_honest_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "2", "--random-db"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["ground_truth_match"]
        assert payload["measured_rate"] == "1/4"

    def test_single_byzantine_identified(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "1", "--random-db", "--byzantine", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identified_error_positions"] == [2]

    def test_budget_exceeded_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "1", "--random-db", "--byzantine", "1,2"
        )
        assert code == 3
        assert "byzantine-budget-exceeded" in err or "retrieval-mismatch" in err

    def test_database_file_roundtrip(self, capsys, tmp_path):
        params = pir.setup(4, 1, 1, 4, m=3)
        db = pir.random_database(params, 55)
        path = tmp_path / "db.txt"
        save_database(params, db, path)
        code, out, _ = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "3", "--db", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["retrieved_file"] == [
            params.ext.format_element(x) for x in db.row(3)
        ]

    def test_parse_error_exit_4_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nbroken\n3\n")
        code, _, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "1", "--db", str(path)
        )
        assert code == 4
        assert "line 2" in err

    def test_missing_file_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "1", "--db", str(tmp_path / "absent")
        )
        assert code == 4

    def test_iota_out_of_range_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "4", "--random-db"
        )
        assert code == 2

    @pytest.mark.parametrize("offset", ["0", "7", "-14"])
    def test_offset_zero_mod_q_exit_2(self, capsys, offset):
        # q = 7 here, so each of these offsets would leave the answer honest
        code, out, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--random-db", "--byzantine", "2",
            "--strategy", "offset", "--offset", offset
        )
        assert (code, out) == (2, "")
        assert "invalid-parameters [offset]" in err

    def test_offset_nonzero_mod_q_corrupts(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", *BASE, "--m", "3", "--random-db", "--byzantine", "2",
            "--strategy", "offset", "--offset", "8"
        )
        assert code == 0
        assert json.loads(out)["identified_error_positions"] == [2]

    def test_duplicate_byzantine_ids_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--random-db", "--byzantine", "1,1"
        )
        assert (code, out) == (2, "")
        assert "invalid-parameters [byzantine]" in err

    def test_non_ascii_database_exit_4_names_line(self, capsys, tmp_path):
        path = tmp_path / "db.txt"
        path.write_bytes(b"1\n2\xc3\xa9\n3\n")
        code, _, err = run_cli(
            capsys, "run", *BASE, "--m", "3", "--iota", "1", "--db", str(path)
        )
        assert code == 4
        assert "database-parse" in err and "line 2" in err


class TestSweepAudit:
    def test_sweep_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *BASE, "--m", "3", "--random-db")
        assert code == 0
        payload = json.loads(out)
        assert payload["cases_total"] == 72 and payload["cases_failed"] == 0

    def test_sweep_randomized(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--k", "7", "--t", "1", "--b", "1", "--r", "5",
            "--m", "4", "--random-db", "--randomized", "25"
        )
        assert code == 0
        assert json.loads(out)["cases_total"] == 25

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sweep_randomized_needs_a_case_exit_2(self, capsys, count):
        code, out, err = run_cli(
            capsys, "sweep", *BASE, "--m", "3", "--random-db", "--randomized", count
        )
        assert (code, out) == (2, "")
        assert "invalid-parameters [randomized]" in err

    def test_sweep_guard_exit_5(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--k", "11", "--t", "1", "--b", "2", "--r", "8",
            "--q", "101", "--m", "2", "--random-db"
        )
        assert code == 5
        assert "guard-exceeded" in err

    def test_audit_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "audit", *BASE, "--m", "2", "--exhaustive")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["max_tv_distance"] == "0"

    def test_audit_exhaustive_one_file_exit_2(self, capsys):
        # the default m = 1 leaves no pair of file indices to compare
        code, out, err = run_cli(capsys, "audit", *BASE)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameters [m >= 2]")

    def test_audit_transfer_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--k", "7", "--t", "1", "--b", "1", "--r", "5",
            "--m", "4", "--transfer-matrix"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_audit_modes_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["audit", *BASE, "--m", "2", "--exhaustive", "--transfer-matrix"])
        assert err.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("subset", ["1,1", "", "9"])
    def test_audit_bad_subset_exit_2(self, capsys, subset):
        code, out, err = run_cli(
            capsys, "audit", "--k", "7", "--t", "1", "--b", "1", "--r", "5",
            "--m", "2", "--transfer-matrix", "--subset", subset
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameters [subset]: ")

    def test_audit_transfer_matrix_below_t_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "audit", "--k", "10", "--t", "2", "--b", "1", "--r", "7",
            "--m", "2", "--transfer-matrix", "--subset", "3"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameters [subset]: [3] has fewer than t=2 servers")
        assert err.count("\n") == 1

    def test_audit_beyond_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", *BASE, "--m", "2", "--subset", "1,2"
        )
        assert code == 0
        assert "beyond threshold" in json.loads(out)["verdict"]


class TestTable:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", *BASE, "--l", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["Pi1", "Pi2", "A1", "A2"]
        assert lines[1].startswith("File size")
        assert lines[-1].startswith("Byzantine-resistance")

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", *BASE, "--l", "1", "--out", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("scheme,")

    def test_json_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", *BASE, "--l", "2", "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert [c["scheme"] for c in payload["columns"]] == ["Pi1", "Pi2", "A1", "A2"]
        assert payload["l"] == 2

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--k", "4", "--t", "3", "--b", "1", "--r", "4")
        assert code == 2


class TestSelftest:
    def test_quick_criteria_subset(self, capsys):
        # every criterion but 6, the decoder oracle comparison, which takes seconds
        code, out, _ = run_cli(capsys, "selftest", "--criteria", "1,2,3,4,5,7,8,9,10")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert [line.split(":")[0] for line in lines] == [
            f"PASS criterion {n}" for n in (1, 2, 3, 4, 5, 7, 8, 9, 10)
        ]

    def test_failed_criterion_exit_1(self, capsys, monkeypatch):
        # criterion 9 must catch setup output flagged non-optimal
        flagged = pir.OptimalityReport(False, False, False, False, False)
        monkeypatch.setattr(pir, "validate_optimality", lambda *args, **kwargs: flagged)
        code, out, _ = run_cli(capsys, "selftest", "--criteria", "8,9")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS criterion 8", "FAIL criterion 9"
        ]


@pytest.mark.parametrize(
    "argv,code",
    [
        (("run", *BASE, "--m", "3", "--iota", "4"), 2),
        (("run", *BASE, "--m", "3", "--byzantine", "5"), 2),
        (("run", *BASE, "--m", "3", "--byzantine", "1,1"), 2),
        (("run", *BASE, "--m", "3", "--byzantine", "2", "--strategy", "offset", "--offset", "7"), 2),
        (("sweep", "--k", "11", "--t", "1", "--b", "2", "--r", "8", "--q", "101", "--m", "2"), 5),
    ],
)
@pytest.mark.parametrize("source", ["--random-db", "--db"])
def test_refusals_come_before_the_database(capsys, monkeypatch, tmp_path, argv, code, source):
    def no_database(*args):
        raise AssertionError("a database was built or read before the refusal")

    monkeypatch.setattr(pir, "random_database", no_database)
    monkeypatch.setattr(pir, "load_database", no_database)
    db = ("--random-db",) if source == "--random-db" else ("--db", str(tmp_path / "absent"))
    assert run_cli(capsys, *argv, *db)[:2] == (code, "")


@pytest.mark.parametrize("command", [("run",), ("sweep",), ("sweep", "--randomized", "1")])
@pytest.mark.parametrize("source", ["--random-db", "--db"])
def test_query_size_guard_comes_before_the_database(capsys, monkeypatch, tmp_path, command, source):
    # BASE at m=3 has k*m*delta*s = 4*3*1*1 = 12 query entries.  The limit
    # is patched just below that, so a broken guard builds a tiny database.
    def no_database(*args):
        raise AssertionError("a database was built or read before the refusal")

    monkeypatch.setattr(harness, "QUERY_ENTRIES_LIMIT", 11)
    monkeypatch.setattr(pir, "random_database", no_database)
    monkeypatch.setattr(pir, "load_database", no_database)
    db = ("--random-db",) if source == "--random-db" else ("--db", str(tmp_path / "absent"))
    code, out, err = run_cli(capsys, *command, *BASE, "--m", "3", *db)
    assert (code, out) == (5, "")
    assert err == "error: guard-exceeded: 12 query entries (k*m*delta*s) exceed 11\n"


@pytest.mark.parametrize("command", [("run",), ("sweep",), ("sweep", "--randomized", "1")])
def test_query_size_guard_admits_its_limit(capsys, monkeypatch, command):
    monkeypatch.setattr(harness, "QUERY_ENTRIES_LIMIT", 12)
    assert run_cli(capsys, *command, *BASE, "--m", "3", "--random-db")[0] == 0


def test_exhaustive_audit_at_m_1024_refused_before_any_query(capsys, monkeypatch):
    # 13^2 draws per entry pass the draw guard, but the audit's arrays at
    # m=1024 do not fit: the histograms kept for the pairs alone would hold
    # 1024^2 * 13 * 4 * 13^2 = 9.2 * 10^9 int64 counts, 74 GB
    def no_query(*args):
        raise AssertionError("a query was drawn before the refusal")

    monkeypatch.setattr(harness, "queries_from_blinding", no_query)
    code, out, err = run_cli(capsys, "audit", "--k", "13", "--t", "1", "--b", "2", "--r", "9", "--m", "1024")
    assert (code, out) == (5, "")
    assert err.startswith("error: guard-exceeded: ") and f"exceed {harness.QUERY_ENTRIES_LIMIT}\n" in err


def test_bad_iota_outranks_a_bad_database_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\nbroken\n3\n")
    code, out, err = run_cli(capsys, "run", *BASE, "--m", "3", "--iota", "4", "--db", str(path))
    assert (code, out) == (2, "")
    assert "invalid-parameters [iota]" in err


def _child_env():
    """Environment whose child imports the package this test imported, whatever PYTHONPATH says."""
    src = str(Path(tracepir.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _replay_golden(capsys, name):
    with open(Path(__file__).parent / "data" / name) as fh:
        cases = json.load(fh)
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"].split())
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_golden_cli_stdout(capsys):
    # stdout and exit codes of `run` frozen at commit 79ee429: trace and
    # full mode, every strategy, b and b + 1 byzantine servers (some above r
    # in full mode), all servers byzantine, and (13,1,2,9; m=1024).  The
    # three full-mode entries with byzantine ids above r were regenerated
    # when reports stopped naming servers that full mode never asks
    _replay_golden(capsys, "golden_cli.json")


def test_full_mode_byzantine_above_r_reported_honest(capsys):
    # servers 9 and 10 lie above r = 8, so no answer is corrupted
    code, out, _ = run_cli(
        capsys, "run", "--k", "11", "--t", "1", "--b", "2", "--r", "8", "--m", "2", "--random-db",
        "--mode", "full", "--byzantine", "9,10", "--strategy", "offset", "--offset", "3",
    )
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["byzantine_set"] == [] and report["strategy"] == "honest"
    assert report["identified_error_positions"] == []


def test_golden_cli_reports_stdout(capsys):
    # stdout and exit codes of `params`, `sweep`, `audit` and `table` frozen
    # at commit 6cec125: params at s = 1 and 2; exhaustive and randomized
    # sweeps; exhaustive, transfer-matrix, beyond-threshold and t = 2 audits;
    # tables in text, csv and json, at (8,1,1,5), where setup refuses and no
    # column is live, and at an explicit --q
    _replay_golden(capsys, "golden_cli_reports.json")


def test_cli_import_leaves_selftest_out():
    code = "import sys, tracepir.cli; sys.exit('tracepir.selftest' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_child_env()).returncode == 0


def test_identical_invocations_byte_identical_stdout():
    cmd = [
        sys.executable, "-m", "tracepir.cli", "run",
        "--k", "4", "--t", "1", "--b", "1", "--r", "4",
        "--m", "3", "--iota", "2", "--random-db", "--seed", "0xBEEF",
    ]
    env = _child_env()
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # not empty
