"""Command-line surface: flags, exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracepir
from tracepir import cli, pir


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
        pir.save_database(params, db, path)
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
        code, out, _ = run_cli(capsys, "selftest", "--criteria", "3,4,8,9")
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line] or out.splitlines()
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)


def test_identical_invocations_byte_identical_stdout():
    cmd = [
        sys.executable, "-m", "tracepir.cli", "run",
        "--k", "4", "--t", "1", "--b", "1", "--r", "4",
        "--m", "3", "--iota", "2", "--random-db", "--seed", "0xBEEF",
    ]
    # the child imports the package this test imported, whatever PYTHONPATH says
    src = str(Path(tracepir.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # not empty
