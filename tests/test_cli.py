import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springer import component_groups as cg
from springer import tables as tb
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


def test_sl_table_of_an_order_not_dividing_n_is_the_header(capsys):
    # no partition of 97 has only even parts; the table is known empty
    # without walking the p(97) > 10^8 partitions of 97
    start = time.perf_counter()
    code, out, err = run_cli(["tables", "--group", "sl", "--n", "97", "--q", "5", "--xi-order", "2"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert out == "lambda\trho\textension\tdim\tclass_rep\tclass_size\tvalue\n"


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


def test_invariant_failure_exit_3(monkeypatch, capsys):
    # a library self-check that fails inside a table build
    def fail(A):
        raise AssertionError("twisted classes do not cover the group")

    monkeypatch.setattr(tb, "twisted_classes", fail)
    code, out, err = run_cli(["tables", "--group", "sl", "--n", "6", "--q", "5", "--xi-order", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report == {"error": "AssertionError", "message": "twisted classes do not cover the group"}


def test_output_writes_the_bytes_stdout_gets(tmp_path, capsys):
    argv = ["flags", "--group", "sl", "--lambda", "1,2", "--q", "3", "--orbits"]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    path = tmp_path / "out.tsv"
    code, out, err = run_cli(argv + ["--output", str(path)], capsys)
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == stdout.encode()


def test_unwritable_output_is_one_json_refusal(tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(["xn", "--N", "5", "--output", str(path)], capsys)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "FileNotFoundError" and str(path) in report["message"]


def test_verify_spin_series(capsys):
    code, out, _ = run_cli(["verify", "--suite", "spin-series", "--N-max", "20"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["results"]) == 18


def test_verify_restriction_to_n_max_7(capsys):
    # (1^7) alone has 597,871 lines over F_9; at d = 1 the suite types one
    # line per centralizer orbit, so n = 7 runs as fast as n = 6
    code, out, err = run_cli(["verify", "--suite", "restriction", "--n-max", "7"], capsys)
    assert code == 0 and err == ""
    assert out == '{"ok": true, "results": [{"checked": "all", "n_max": 7}], "suite": "restriction"}\n'


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
        ["flags", "--group", "sl", "--lambda", "1,2", "--d", "2", "--q", "3"],  # printed only the header
        ["flags", "--group", "sl", "--lambda", "1", "--d", "1", "--q", "3", "--orbits"],
        ["flags", "--group", "so", "--lambda", "1,2,2", "--d", "2", "--q", "3"],  # printed the --d 1 rows
        ["flags", "--group", "so", "--lambda", "1,2,2", "--q", "3", "--orbits"],  # printed - for every orbit
        # options the chosen group or suite ignored
        ["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "2", "--N", "4"],
        ["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "2", "--omega", "1"],
        ["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "2", "--extension", "plus"],
        ["tables", "--group", "spin", "--N", "8", "--q", "3", "--n", "8"],
        ["tables", "--group", "spin", "--N", "8", "--q", "3", "--xi-order", "2"],
        ["tables", "--group", "spin", "--N", "9", "--q", "3", "--omega", "1"],
        ["series", "--group", "spin", "--N", "14", "--q", "3"],
        ["series", "--group", "spin", "--N", "14", "--n", "4"],
        ["series", "--group", "sl", "--n", "6", "--q", "5", "--N", "6"],
        ["verify", "--suite", "restriction", "--N-max", "20"],
        ["verify", "--suite", "spin-series", "--n-max", "6"],
        # bounds that checked nothing and printed "ok": true
        ["verify", "--suite", "restriction", "--n-max", "1"],
        ["verify", "--suite", "spin-series", "--N-max", "2"],
        # parts that are not integers
        ["split", "--group", "sl", "--lambda", "a", "--q", "3"],
        ["flags", "--group", "sl", "--lambda", "1,3", "--lambda-prime", "1,x", "--q", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err, argv


def test_flag_budget_refuses_before_building_flags(capsys):
    # (1^5), d = 1 over F_9: 7,381 lines W, each under 820 candidate W'
    start = time.perf_counter()
    code, out, err = run_cli(["flags", "--group", "sl", "--lambda", "1,1,1,1,1", "--d", "1", "--q", "3"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "VarietyBudgetError", "message": "flag count exceeds budget 1000000"}


def test_order_three_flags_finish_quickly(capsys):
    # (3,3), d = 3 over F_9: 810 flags over 810 cyclic W; the former sweep
    # of every generator in ker x^3 with deduplication took 46 s
    # (Python 3.11, 2 CPUs)
    start = time.perf_counter()
    code, out, err = run_cli(["flags", "--group", "sl", "--lambda", "3,3", "--d", "3", "--q", "3"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 810


def test_negative_omega_usage_error_names_the_attached_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--group", "spin", "--N", "10", "--q", "3", "--omega", "-i"])
    assert exc.value.code == 2
    assert "--omega=-i" in capsys.readouterr().err
    code, out, _ = run_cli(["tables", "--group", "spin", "--N", "10", "--q", "3", "--omega=-i"], capsys)
    assert code == 0 and out.startswith("lambda\t")


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--group", "sl", "--n", "0", "--q", "3", "--xi-order", "1"],  # p'-part of 0 never ended
        ["tables", "--group", "sl", "--n", "-3", "--q", "3", "--xi-order", "1"],
        ["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "0"],  # division by zero
        ["tables", "--group", "sl", "--n", "4", "--q", "3", "--xi-order", "-2"],  # printed an object address
        ["restrict", "--n", "4", "--d", "0"],  # division by zero
        ["restrict", "--n", "4", "--d", "-1"],
        ["flags", "--group", "sl", "--lambda", "1,2", "--d", "0", "--q", "3"],  # printed only the header
        ["flags", "--group", "sl", "--lambda", "1,2", "--d", "-1", "--q", "3"],
        ["tables", "--group", "spin", "--N", "0", "--q", "3"],  # printed a table for N = 0
    ],
)
def test_integers_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "Traceback" not in err and " at 0x" not in err


# for each subcommand that takes --q: a usage error, then a run that only
# q makes invalid (the tables runs would print only a header)
Q_ORDER_CASES = [
    ("series --group sl --N 4 --q {q}", "series --group sl --n 4 --q {q}"),
    ("split --group sl --q {q}", "split --group sl --lambda 1,2 --q {q}"),
    ("flags --group sl --lambda 1,2 --d 2 --q {q}", "flags --group so --lambda 3 --q {q}"),
    ("tables --group sl --q {q}", "tables --group sl --n 5 --q {q} --xi-order 2"),
    ("tables --group spin --N 5 --q {q} --xi-order 2", "tables --group spin --N 2 --q {q}"),
]


@pytest.mark.parametrize("q", (0, 1, 6, -3))
@pytest.mark.parametrize("usage, valid", Q_ORDER_CASES)
def test_usage_is_checked_before_q_and_q_before_any_work(usage, valid, q, capsys):
    with pytest.raises(SystemExit) as exc:
        main(usage.format(q=q).split())
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    code, out, err = run_cli(valid.format(q=q).split(), capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"{q} is not a prime power"}


def test_p_prime_part_refuses_orders_below_one():
    for n in (0, -4):
        with pytest.raises(ValueError, match="group order"):
            cg.p_prime_part(n, 3)


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


@st.composite
def table_argvs(draw):
    q = draw(st.sampled_from(PRIME_POWERS))
    if draw(st.booleans()):
        N = draw(st.integers(1, 20))
        argv = ["tables", "--group", "spin", "--N", str(N), "--q", str(q)]
        omega = draw(st.sampled_from((None, "1", "-1", "i", "-i") if N % 2 == 0 else (None,)))
        if omega is not None:
            argv.append(f"--omega={omega}")
        extension = draw(st.sampled_from((None, "plus", "minus", "trivial")))
        if extension is not None:
            argv += ["--extension", extension]
    else:
        n = draw(st.integers(1, 20))
        argv = ["tables", "--group", "sl", "--n", str(n), "--q", str(q), "--xi-order", str(draw(st.integers(1, n)))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=60, deadline=None)
@given(table_argvs())
def test_valid_arguments_print_rows_or_one_json_refusal(argv):
    # capsys cannot be reset between hypothesis examples, so capture here
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1], argv
    code, out, err = runs[0]
    if code == 0:
        assert err == "" and out, argv
    else:
        assert out == "" and err.count("\n") == 1, argv
        assert set(json.loads(err)) == {"error", "message"}, argv
