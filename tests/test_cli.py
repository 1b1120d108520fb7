import json
import subprocess
import sys

import pytest

from springer.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_xn_ground_truth(capsys):
    code, out, _ = run_cli(["xn", "--N", "5"], capsys)
    assert code == 0
    assert json.loads(out) == [[5], [1, 2, 2]]
    code, out, _ = run_cli(["xn", "--N", "4"], capsys)
    assert json.loads(out) == [[2, 2], [1, 3]]
    code, out, _ = run_cli(["xn", "--N", "2"], capsys)
    assert json.loads(out) == []


def test_series_spin(capsys):
    code, out, _ = run_cli(["series", "--group", "spin", "--N", "14"], capsys)
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "-2"]


def test_series_sl(capsys):
    code, out, _ = run_cli(["series", "--group", "sl", "--n", "6", "--q", "5"], capsys)
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()[1:]]
    assert rows == [["1", "true"], ["2", "true"], ["3", "true"], ["6", "true"]]


def test_split_command(capsys):
    code, out, _ = run_cli(["split", "--group", "sl", "--lambda", "1,2", "--q", "3"], capsys)
    assert code == 0
    assert "check u_preserves_form: pass" in out
    assert "check jordan_type: [1, 2]" in out
    code, out, _ = run_cli(["split", "--group", "so", "--lambda", "1,2,2", "--q", "3"], capsys)
    assert code == 0
    assert "check x_skew_adjoint: pass" in out


def test_flags_command(capsys):
    code, out, _ = run_cli(
        ["flags", "--group", "sl", "--lambda", "1,2", "--d", "1", "--q", "3", "--orbits"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("flag_id")
    assert len(lines) == 1 + 19  # golden flag count for (1,2), d=1 over F_9
    orbits = {l.split("\t")[5] for l in lines[1:]}
    assert orbits == {"0", "1", "2"}


def test_restrict_command(capsys):
    code, out, _ = run_cli(["restrict", "--n", "4", "--d", "1"], capsys)
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        la, lap, case, mult = line.split("\t")
        rows[(la, lap)] = (case, mult)
    assert rows[("[1, 3]", "[1, 1]")] == ("I", "1")
    assert rows[("[2, 2]", "[1, 1]")] == ("II", "1")
    assert rows[("[1, 3]", "[2]")] == ("III", "2")


def test_tables_command_tsv_and_json(capsys):
    code, out, _ = run_cli(["tables", "--group", "sl", "--n", "6", "--q", "5", "--xi-order", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("lambda\trho")
    code, out, _ = run_cli(
        ["tables", "--group", "sl", "--n", "6", "--q", "5", "--xi-order", "2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "sl" and doc["q"] == 5
    assert {tuple(r["lambda"]) for r in doc["rows"]} == {(2, 4), (2, 2, 2), (6,)}


def test_tables_refusal_exit_code(capsys):
    code, out, err = run_cli(["tables", "--group", "sl", "--n", "6", "--q", "3", "--xi-order", "6"], capsys)
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "NotFStableError"


def test_spin_default_omega_is_i_for_N_2_mod_4(capsys):
    # the center is Z/4 there, so omega acts by i or -i and "1" would
    # leave every fiber empty
    for N, q in (("6", "5"), ("10", "3")):
        code, default_out, err = run_cli(["tables", "--group", "spin", "--N", N, "--q", q], capsys)
        assert code == 0, (N, q, err)
        code, omega_i_out, _ = run_cli(["tables", "--group", "spin", "--N", N, "--q", q, "--omega", "i"], capsys)
        assert code == 0
        assert default_out == omega_i_out, (N, q)


def test_invariant_failure_exit_3():
    # (1,3,7) at q = 3 fails the identity-class row check
    proc = subprocess.run(
        [sys.executable, "-m", "springer.cli", "tables", "--group", "spin", "--N", "11", "--q", "3", "--extension", "plus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    report = json.loads(proc.stderr)
    assert report == {"error": "AssertionError", "message": "identity-class value differs from the dimension"}


def test_verify_spin_series(capsys):
    code, out, _ = run_cli(["verify", "--suite", "spin-series", "--N-max", "20"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["results"]) == 18


def test_determinism(capsys):
    a = run_cli(["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "2", "--format", "json"], capsys)
    b = run_cli(["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "2", "--format", "json"], capsys)
    assert a == b


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "springer.cli", "xn", "--N", "5"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [[5], [1, 2, 2]]


def test_usage_error_exit_2(capsys):
    for argv in (
        ["series"],
        ["series", "--group", "spin"],
        ["series", "--group", "sl", "--n", "4"],
        ["tables", "--group", "spin", "--q", "3"],
        ["tables", "--group", "sl", "--n", "4", "--q", "3"],
        ["restrict", "--n", "1", "--d", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err, argv


def test_negative_omega_usage_error_names_the_attached_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--group", "spin", "--N", "10", "--q", "3", "--omega", "-i"])
    assert exc.value.code == 2
    assert "--omega=-i" in capsys.readouterr().err
    code, out, _ = run_cli(["tables", "--group", "spin", "--N", "10", "--q", "3", "--omega=-i"], capsys)
    assert code == 0 and out.startswith("lambda\t")
