"""End-to-end benchmark of the springer CLI, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload restriction --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record

Every invocation runs in a fresh child interpreter, one at a time, so
each pays the cold caches a CLI user pays.  The seed only orders the
invocations inside a sample.  Each child's stdout digest, exit status
and (empty) stderr are checked against ``expected.json``, recorded with
``--record``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"


# Spin tables with N = 2 (mod 4) or q = 3 (mod 4), and --orbits types past
# the enumeration budget, are left out: they hit known defects whose fixes
# will change their output bytes.
_SPIN_N = (13, 15, 16, 17, 19, 20, 21, 23, 24, 25, 27, 28)

WORKLOADS: dict[str, list[list[str]]] = {
    # stratum counting: split -> varieties -> flinalg echelon -> ffield add
    "restriction": [["verify", "--suite", "restriction", "--n-max", "6"]],
    # centralizer units and orbits (small square products and determinants),
    # plus the W'-side SL and the SO flag enumerations without orbits
    "flags": [
        ["flags", "--group", "sl", "--lambda", lam, "--d", "1", "--q", "3", "--orbits"] for lam in ("1,2", "3", "4")
    ]
    + [
        ["flags", "--group", "sl", "--lambda", "1,2,3", "--d", "1", "--q", "3"],
        ["flags", "--group", "so", "--lambda", "1,2,2,5", "--q", "3"],
    ],
    # exact cyclotomic and partition work; touches neither ffield nor flinalg
    "tables": [
        ["tables", "--group", "spin", "--N", str(N), "--q", "5"] + (["--omega", "1", "--extension", "plus"] if N % 2 == 0 else [])
        for N in _SPIN_N
    ]
    + [
        ["tables", "--group", "sl", "--n", "24", "--q", str(q), "--xi-order", str(xi)]
        for q, xi in ((11, 2), (5, 3), (5, 6))
    ]
    + [["verify", "--suite", "spin-series", "--N-max", "40"]],
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
INVOCATION_TIMEOUT_S = 90.0
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
SETUP_PROBES = 12


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def child_env() -> dict[str, str]:
    """The caller's environment without interpreter or springer settings,
    plus a pinned hash seed and the checkout's sources on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SPRINGER_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Invocation:
    argv: list[str]
    rc: int | None = None
    stdout: bytes = b""
    stderr: bytes = b""
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    trace: dict | None = None
    error: str | None = None
    digest: str = field(init=False, default="")


def invoke(argv: list[str], mode: str, timeout: float) -> Invocation:
    """Run one child in MODE (probe, run or trace) and collect its report."""
    inv = Invocation(argv)
    r, w = os.pipe()
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(w), json.dumps(argv)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(w,), env=child_env(), cwd=ROOT
        )
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as report_pipe:
        try:
            inv.stdout, inv.stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            inv.error = f"timeout after {timeout:.0f} s"
            return inv
        raw = report_pipe.read()
    inv.digest = hashlib.sha256(inv.stdout).hexdigest()
    try:
        report = json.loads(raw)
    except ValueError:
        inv.error = f"no report (exit {proc.returncode}): {inv.stderr[-300:].decode(errors='replace')}"
        return inv
    inv.setup_s = report["ready"] - spawned
    inv.rc = report.get("rc", proc.returncode)
    inv.wall_s = report.get("wall_s")
    inv.rss_mb = report.get("rss_mb")
    inv.trace = report.get("trace")
    return inv


def failure(inv: Invocation, expected: dict) -> str | None:
    """Why an invocation's output is wrong, or None if it is right."""
    if inv.error:
        return inv.error
    if inv.rc != 0:
        return f"exit status {inv.rc}"
    if inv.stderr:
        return f"stderr: {inv.stderr[:200].decode(errors='replace')}"
    want = expected.get(_key(inv.argv))
    if want is None:
        return "no recorded digest"
    if inv.digest != want["sha256"]:
        return "stdout digest differs from the recorded one"
    if inv.argv[0] == "verify" and json.loads(inv.stdout).get("ok") is not True:
        return 'verify report lacks "ok": true'
    return None


class Runner:
    """Runs samples of one workload; no invocation outlives DEADLINE
    (a time.monotonic value)."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.invocations = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.expected = json.loads(EXPECTED.read_text())
        self.attempted = 0
        self.failures: list[str] = []

    def timeout(self) -> float:
        return min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic())

    def sample(self, mode: str) -> list[Invocation]:
        """All invocations once, in a seed-drawn order; failures are recorded."""
        out = []
        for argv in self.rng.sample(self.invocations, len(self.invocations)):
            inv = invoke(argv, mode, self.timeout())
            self.attempted += 1
            reason = failure(inv, self.expected)
            if reason:
                self.failures.append(f"{_key(argv)} [{mode}]: {reason}")
            out.append(inv)
        return out

    def probes(self, count: int) -> list[float]:
        """Spawn-to-import-ready times of children that only import the CLI."""
        times = []
        for _ in range(count):
            inv = invoke([], "probe", self.timeout())
            if inv.setup_s is None:
                raise SystemExit(f"perfbench: cannot import springer.cli: {inv.error}")
            times.append(inv.setup_s)
        return times


def _wall(sample: list[Invocation]) -> float:
    return sum(inv.wall_s or 0.0 for inv in sample)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, int]:
    """wall_s, setup_s and peak_rss_mb over as many samples as fit in SECONDS."""
    setups = runner.probes(SETUP_PROBES)
    samples: list[list[Invocation]] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        samples.append(runner.sample("run"))
        took = time.monotonic() - t0
        if runner.failures or time.monotonic() - start + took > seconds:
            break
    invs = [inv for s in samples for inv in s]
    setups += [inv.setup_s for inv in invs if inv.setup_s is not None]
    metrics = {
        "wall_s": statistics.median(_wall(s) for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max((inv.rss_mb or 0.0) for inv in invs),
    }
    return metrics, len(samples)


def per_layer(runner: Runner, seed: int) -> dict:
    """One untraced and one traced sample, then the microbenchmarks."""
    plain = runner.sample("run")
    traced = runner.sample("trace")
    plain_digests = {_key(i.argv): i.digest for i in plain}
    for inv in traced:
        if inv.digest != plain_digests[_key(inv.argv)]:
            runner.failures.append(f"{_key(inv.argv)}: traced stdout differs from untraced")
    metrics = layer_metrics([inv.trace for inv in traced if inv.trace])
    metrics["trace.overhead_s"] = _wall(traced) - _wall(plain)
    metrics.update(microbenchmarks(seed, runner.timeout()))
    return metrics


def layer_metrics(traces: list[dict]) -> dict:
    """Sum the children's tracer aggregates into named per-layer metrics."""
    calls = {n: sum(t["calls"][n] for t in traces) for n in tracer.SPAN_NAMES + tracer.COUNTER_NAMES}
    self_s = {n: sum(t["self_s"][n] for t in traces) for n in tracer.SPAN_NAMES}
    counts = {n: sum(t["counts"][n] for t in traces) for n in tracer.COUNT_NAMES}
    out = {}
    for name in tracer.COUNTER_NAMES:
        out[f"{name}.calls"] = calls[name]
    for name in tracer.SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for mod, funcs in tracer.SPANS.items():
        out[f"{mod}.self_s"] = sum(self_s[f"{mod}.{f}"] for f in funcs)
    out.update({name: n for name, n in counts.items() if name != "varieties.unit_candidates"})
    out["varieties.stratum_hit_ratio"] = _ratio(counts["varieties.stratum_hits"], counts["varieties.subspaces"])
    out["varieties.unit_ratio"] = _ratio(counts["varieties.units"], counts["varieties.unit_candidates"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def microbenchmarks(seed: int, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "micro.py"), str(seed)],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0), check=True,
    )
    return json.loads(proc.stdout)


def environment(workload: str, seed: int) -> dict:
    """What a result depends on besides the benchmark: revision, Python, cores."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = git.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed, time.monotonic() + RUN_BUDGET_S)
    context = environment(workload, seed)
    if trace:
        values = per_layer(runner, seed)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    else:
        values, context["samples"] = end_to_end(runner, seconds)
        units = END_TO_END_UNITS
    failed = len(runner.failures)
    context["failed_ratio"] = failed / max(runner.attempted, 1)
    for reason in runner.failures:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(context, sort_keys=True))
    if not trace:
        shown = [f"{name} {values[name]:.4f} {unit}" for name, unit in units.items()]
        shown.append(f"failed_ratio {context['failed_ratio']:.4f} ({failed}/{runner.attempted})")
        print(f"{workload}: " + "  ".join(shown))
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record() -> None:
    """Write expected.json from the current program: one untraced run of
    every invocation, each of which must pass every check but the digest."""
    expected = {}
    for argvs in WORKLOADS.values():
        for argv in argvs:
            inv = invoke(argv, "run", INVOCATION_TIMEOUT_S)
            entry = {"sha256": inv.digest, "bytes": len(inv.stdout)}
            reason = failure(inv, {_key(argv): entry})
            if reason:
                raise SystemExit(f"perfbench: cannot record {_key(argv)}: {reason}")
            expected[_key(argv)] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="record the expected output digests and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "springer" / "cli.py").is_file():
        print(f"perfbench: no springer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{n}": m for w, p in parts.items() for n, m in p["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
