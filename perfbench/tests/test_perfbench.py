"""Self-checks of the benchmark itself (not part of the library's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/tests

The traced checks run every workload traced twice and untraced once,
which takes a few minutes.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]
import micro  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# The workload meant to exercise each wrapped name and result count.
HOME = {
    "restriction": (
        "cli.main",
        "ffield.add",
        "ffield.mul",
        "ffield.neg",
        "ffield.inv",
        "flinalg.rref",
        "flinalg.echelon_basis",
        "flinalg.mat_vec",
        "varieties.cyclic_subspaces",
        "varieties.quotient_type",
        "varieties.horizontal_strip_drops",
        "varieties.sl_stratum_analysis",
        "split.build_sl_split",
        "restriction.restriction_crosscheck_sl",
        "restriction.branch_two_step",
        "partitions.partitions_of",
        "varieties.subspaces",
        "varieties.stratum_hits",
    ),
    "flags": (
        "flinalg.nullspace",
        "flinalg.mat_mul",
        "flinalg.det",
        "flinalg.jordan_partition",
        "varieties.enumerate_flags_sl",
        "varieties.enumerate_flags_so",
        "varieties.centralizer_units",
        "varieties.orbit_decomposition",
        "split.build_so_split",
        "varieties.units",
        "varieties.orbits",
        "varieties.flags",
    ),
    "tables": (
        "tables.y0_row_spin",
        "tables.y0_row_sl",
        "component_groups.build_spin_gamma",
        "component_groups.spin_irreducibles",
        "component_groups.extend_character",
        "component_groups.twisted_classes",
        "component_groups.cmat_mul",
        "cyclotomic.add",
        "cyclotomic.mul",
        "partitions.enumerate_XN",
        "partitions.multiplicities",
        "series.verify_series_cardinality",
        "tables.rows",
    ),
}


@functools.cache
def samples(workload: str):
    """One untraced and two traced samples of a workload, in that order."""
    runner = run.Runner(workload, seed=0, deadline=float("inf"))
    out = (runner.sample("run"), runner.sample("trace"), runner.sample("trace"))
    assert runner.failures == []
    return out


def _merged(sample, part: str) -> dict:
    totals: dict = {}
    for inv in sample:
        for name, value in inv.trace[part].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def test_every_wrapped_name_has_a_home_workload():
    homed = {name for names in HOME.values() for name in names}
    wrapped = set(tracer.SPAN_NAMES + tracer.COUNTER_NAMES + tracer.COUNT_NAMES) - {"varieties.unit_candidates"}
    assert homed == wrapped


def test_benchmark_json_names_every_per_layer_metric():
    zero = {
        "calls": dict.fromkeys(tracer.SPAN_NAMES + tracer.COUNTER_NAMES, 0),
        "self_s": dict.fromkeys(tracer.SPAN_NAMES, 0.0),
        "counts": dict.fromkeys(tracer.COUNT_NAMES, 0),
    }
    micro_names = {f"ffield.{op}_ns.{q}" for op in ("add", "mul", "inv") for q in micro.FIELDS}
    micro_names |= {"flinalg.rref_us.8x8", "flinalg.nullspace_us.8x8", "cyclotomic.mul_ns"}
    produced = set(run.layer_metrics([zero])) | micro_names | {"trace.overhead_s"}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_every_invocation_has_a_recorded_digest():
    expected = json.loads(run.EXPECTED.read_text())
    assert set(expected) == {run._key(argv) for argvs in run.WORKLOADS.values() for argv in argvs}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_output_is_byte_identical(workload):
    plain, traced, _ = samples(workload)
    assert {run._key(i.argv): i.digest for i in traced} == {run._key(i.argv): i.digest for i in plain}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat(workload):
    _, first, second = samples(workload)
    assert _merged(first, "calls") == _merged(second, "calls")
    assert _merged(first, "counts") == _merged(second, "counts")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_wrapped_names_are_reached_on_their_home_workload(workload):
    _, traced, _ = samples(workload)
    seen = _merged(traced, "calls") | _merged(traced, "counts")
    assert [name for name in HOME[workload] if not seen[name]] == []
