"""One benchmark child: import the CLI, optionally trace it, run one argv.

Usage: child.py MODE FD ARGV_JSON

MODE is ``probe`` (import only), ``run`` (call ``springer.cli.main``) or
``trace`` (the same with the layer wrappers of ``tracer.py`` installed).
The child's stdout and stderr belong to the CLI alone; the timing report
goes as one JSON object to the inherited pipe FD:

- ``ready``: CLOCK_MONOTONIC when ``springer.cli`` was imported;
- ``rc``: the CLI's exit status;
- ``wall_s``: time from the call into ``cli.main`` to its return;
- ``rss_mb``: the child's peak resident set size;
- ``trace``: the tracer's aggregates (``trace`` mode only).
"""

import json
import os
import resource
import sys
import time


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def main() -> int:
    mode, fd, argv = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    import springer.cli

    report = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    rc = 0
    if mode != "probe":
        tracer = None
        if mode == "trace":
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = springer.cli.main(argv)
        except SystemExit as exc:
            rc = _exit_code(exc.code)
        report["wall_s"] = time.perf_counter() - t0
        sys.stdout.flush()
        report["rc"] = rc
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            report["trace"] = tracer.snapshot()
    with os.fdopen(fd, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
