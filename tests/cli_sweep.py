"""Byte-identity sweep of the command line, for comparing two checkouts.

    python3 tests/cli_sweep.py PATH/TO/src > sweep.txt

Imports ``springer`` from the given ``src/`` directory and runs a fixed
list of invocations in one process.  Each prints one tab-separated line:
the argv, the exit code, the sha256 of stdout and the last line of
stderr (empty when there is none).  Running this script against the
``src/`` of two checkouts and diffing the outputs shows every invocation
whose bytes differ.

The list is:
- every golden digest of ``tests/test_golden.py`` and the refusals that
  file checks;
- every invocation of ``perfbench/expected.json``;
- SL ``flags`` for every lambda of n <= 5 and every d with 2d <= n, at
  q in {2, 3, 4}, and again with ``--orbits`` for n <= 4;
- SO ``flags`` for every lambda in X~_N, 2 <= N <= 9, at q in {3, 5};
- spin ``tables`` for 3 <= N <= 21 at q in {3, 5, 7}, and with each
  ``--extension`` at q = 3.

It is not a test module, so pytest does not collect it.  The whole list
takes a few minutes; ``flags --group sl --lambda 1,1,1,1 --d 1 --q 3``
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


def sweep(src: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    from springer import partitions as pt
    from springer.cli import main

    if not Path(pt.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"springer was imported from {pt.__file__}, not from {src}")
    for argv in invocations(pt):
        print(run(main, argv), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sweep(Path(sys.argv[1]))
