"""Byte-identity sweep of the command line against its recorded output.

    python3 tests/cli_sweep.py PATH/TO/src             # compare
    python3 tests/cli_sweep.py PATH/TO/src --record    # rewrite the record

Imports ``springer`` from the given ``src/`` directory and runs a fixed
list of invocations in one process.  Each gives one tab-separated line:
the argv, the exit code, the sha256 of stdout and the last line of
stderr (empty when there is none).  The lines are compared with
``tests/cli_sweep.txt``: only the lines that differ are printed, the
recorded one with "-" and the new one with "+", and the exit status is 1
if any differ.  ``--record`` writes the lines to that file instead.  A
change that alters output on purpose re-records the file and lists the
changed lines.

The list is:
- every golden digest of ``tests/test_golden.py`` and the refusals that
  file checks;
- every invocation of ``perfbench/expected.json``;
- SL ``flags`` for every lambda of n <= 5 and every d with 2d <= n, at
  q in {2, 3, 4}, and again with ``--orbits`` for n <= 4;
- SO ``flags`` for every lambda in X~_N, 2 <= N <= 9, at q in {3, 5};
- spin ``tables`` for 3 <= N <= 21 at q in {3, 5, 7}, and with each
  ``--extension`` at q = 3;
- every subcommand that parses q, at prime powers that are not primes:
  ``split`` at q in {4, 8, 9, 25, 27} on both sides, SL ``tables`` at q
  in {4, 8, 9}, SL ``series`` at q in {8, 9}, SO ``flags`` at q = 9;
- ``verify --suite spin-series --N-max 80``;
- SL ``tables`` for every n <= 24 and every divisor d of n, at q in
  {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32};
- fields too large for lookup tables: ``split --group sl --lambda
  1,2,3`` at q in {37, 49, 101}, ``split --group so --lambda 1,2,2`` at
  q = 1031, and SL ``flags`` at q = 37, plain and with ``--orbits``;
- the twisted SL Hermitian form one block at a time: ``split --group
  sl --lambda h`` for 1 <= h <= 12 at q in {2, 3, 4, 5, 7, 8, 9, 25, 27,
  37, 101}, and ``--lambda 1,2,3,4,5,6`` at q in {2, 3, 9};
- for each subcommand that takes ``--q``, at q in {0, 1, 6, -3}:
  invocations whose usage is wrong and invocations that only q makes
  invalid, including ``tables`` runs that would print only a header.

It is not a test module, so pytest does not collect it.  The whole list
takes about a minute; ``flags --group sl --lambda 1,1,1,1 --d 1 --q 3``
and its ``--orbits`` run are most of that.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "cli_sweep.txt"


def _golden() -> list[str]:
    tree = ast.parse((HERE / "test_golden.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "GOLDEN")
    return [argv for argv, _ in ast.literal_eval(node.value)]


def invocations(pt) -> list[str]:
    """The argv strings, each once, in run order; pt is springer.partitions."""
    out = _golden()
    out += ["split --group so --lambda 3,3 --q 3"]
    out += ["tables --group spin --N 21 --q 3" + e for e in ("", " --extension plus", " --extension minus", " --extension trivial")]
    out += list(json.loads((HERE.parent / "perfbench" / "expected.json").read_text()))
    for q in (2, 3, 4):
        for n in range(2, 6):
            for lam in pt.partitions_of(n):
                for d in range(1, n // 2 + 1):
                    argv = f"flags --group sl --lambda {','.join(map(str, lam))} --d {d} --q {q}"
                    out += [argv] + ([argv + " --orbits"] if n <= 4 else [])
    for q in (3, 5):
        for N in range(2, 10):
            out += [f"flags --group so --lambda {','.join(map(str, lam))} --q {q}" for lam in pt.enumerate_XN(N, tilde=True)]
    for q in (3, 5, 7):
        out += [f"tables --group spin --N {N} --q {q}" for N in range(3, 22)]
    out += [f"tables --group spin --N {N} --q 3 --extension {e}" for N in range(3, 22) for e in ("plus", "minus")]
    for q in (4, 8, 9, 25, 27):
        out += [f"split --group sl --lambda {lam} --q {q}" for lam in ("1", "1,2", "3", "1,1,2", "4", "2,3")]
        out += [f"split --group so --lambda {lam} --q {q}" for lam in ("1", "3", "2,2", "1,2,2", "1,3,5")]
    for q in (4, 8, 9):
        out += [f"tables --group sl --n {n} --q {q} --xi-order {d}" for n in (4, 6, 10, 12) for d in (1, 2, 3, 5, 9)]
    for q in (8, 9):
        out += [f"series --group sl --n {n} --q {q}" for n in range(1, 19)]
    for N in range(2, 8):
        out += [f"flags --group so --lambda {','.join(map(str, lam))} --q 9" for lam in pt.enumerate_XN(N, tilde=True)]
    out += ["verify --suite spin-series --N-max 80"]
    for q in (0, 1, 6, -3):
        out += [
            f"series --group sl --n 4 --N 4 --q {q}",
            f"series --group sl --n 4 --q {q}",
            f"split --group sl --q {q}",
            f"split --group sl --lambda 1,2 --q {q}",
            f"split --group so --lambda 2 --q {q}",
            f"flags --group sl --lambda 1,2 --d 2 --q {q}",
            f"flags --group so --lambda 3 --q {q} --orbits",
            f"flags --group sl --lambda 1,2 --q {q}",
            f"flags --group so --lambda 3 --q {q}",
            f"tables --group sl --q {q}",
            f"tables --group spin --N 5 --q {q} --xi-order 2",
            f"tables --group sl --n 4 --q {q} --xi-order 2",
            f"tables --group sl --n 5 --q {q} --xi-order 2",
            f"tables --group spin --N 5 --q {q}",
            f"tables --group spin --N 2 --q {q}",
        ]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32):
        out += [f"tables --group sl --n {n} --q {q} --xi-order {d}" for n in range(1, 25) for d in range(1, n + 1) if n % d == 0]
    out += [f"split --group sl --lambda 1,2,3 --q {q}" for q in (37, 49, 101)]
    out += ["split --group so --lambda 1,2,2 --q 1031"]
    out += ["flags --group sl --lambda 2 --q 37", "flags --group sl --lambda 3 --q 37 --orbits"]
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 37, 101):
        out += [f"split --group sl --lambda {h} --q {q}" for h in range(1, 13)]
    out += [f"split --group sl --lambda 1,2,3,4,5,6 --q {q}" for q in (2, 3, 9)]
    return list(dict.fromkeys(out))


def run(main, argv: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    last = (stderr.getvalue().rstrip("\n").splitlines() or [""])[-1]
    return f"{argv}\t{code}\t{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}\t{last}"


def sweep(src: Path) -> list[str]:
    sys.path.insert(0, str(src.resolve()))
    from springer import partitions as pt
    from springer.cli import main

    if not Path(pt.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"springer was imported from {pt.__file__}, not from {src}")
    return [run(main, argv) for argv in invocations(pt)]


def differences(recorded: list[str], lines: list[str]) -> list[str]:
    """"-" recorded and "+" new lines, for each argv whose line differs or
    that only one side has, in the order of the new run."""
    old = {line.split("\t", 1)[0]: line for line in recorded}
    new = {line.split("\t", 1)[0]: line for line in lines}
    out = []
    for argv in list(new) + [a for a in old if a not in new]:
        if old.get(argv) != new.get(argv):
            out += [f"- {old[argv]}"] if argv in old else []
            out += [f"+ {new[argv]}"] if argv in new else []
    return out


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[2:] not in ([], ["--record"]):
        raise SystemExit(__doc__)
    lines = sweep(Path(sys.argv[1]))
    if sys.argv[2:]:
        RECORD.write_text("".join(line + "\n" for line in lines))
    else:
        diff = differences(RECORD.read_text().splitlines(), lines)
        print("\n".join(diff) if diff else f"{len(lines)} invocations match {RECORD.name}")
        sys.exit(1 if diff else 0)
