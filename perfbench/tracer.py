"""Layer tracing from outside the library, by wrapping its public functions.

A span wrapper counts calls and accumulates self time: a span's duration
minus the durations of wrapped callees nested inside it.  A counter
wrapper only counts calls; it is used for the scalar methods of
``FieldSpec`` and ``Cyc``, whose sub-microsecond bodies a timer would
swamp, so their time lands in the calling span's self time.  Result
hooks add counts read from return values.

Aggregates live in memory (there are millions of calls) and are read
once, by ``snapshot``, when the traced invocation ends.

``install`` replaces the function in its home module and every other
binding of the same object in a ``springer`` module (``from`` imports,
class attribute aliases such as ``Cyc.__rmul__``), so callers that
imported the name directly are traced too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# module -> functions timed as spans
SPANS = {
    "flinalg": ("rref", "echelon_basis", "nullspace", "mat_vec", "mat_mul", "det", "jordan_partition"),
    "varieties": (
        "cyclic_subspaces",
        "quotient_type",
        "horizontal_strip_drops",
        "sl_stratum_analysis",
        "enumerate_flags_sl",
        "enumerate_flags_so",
        "centralizer_units",
        "orbit_decomposition",
    ),
    "split": ("build_sl_split", "build_so_split"),
    "restriction": ("restriction_crosscheck_sl", "branch_two_step"),
    "tables": ("y0_row_spin", "y0_row_sl"),
    "component_groups": ("build_spin_gamma", "spin_irreducibles", "extend_character", "twisted_classes", "cmat_mul"),
    "partitions": ("partitions_of", "enumerate_XN", "multiplicities"),
    "series": ("verify_series_cardinality",),
    "cli": ("main",),
}

# module -> (class, {metric name: method}) counted without timing
COUNTERS = {
    "ffield": ("FieldSpec", {"add": "add", "mul": "mul", "neg": "neg", "inv": "inv"}),
    "cyclotomic": ("Cyc", {"add": "__add__", "mul": "__mul__"}),
}


def _q_power_dim(result, args) -> int:
    return args[1].q ** result.dimension


# span name -> ((count name, value read from the result and arguments), ...)
RESULT_COUNTS = {
    "varieties.cyclic_subspaces": (("varieties.subspaces", lambda r, a: len(r)),),
    "varieties.sl_stratum_analysis": (("varieties.stratum_hits", lambda r, a: r.total_generators),),
    "varieties.centralizer_units": (
        ("varieties.units", lambda r, a: len(r.units)),
        ("varieties.unit_candidates", _q_power_dim),
    ),
    "varieties.orbit_decomposition": (("varieties.orbits", lambda r, a: len(r.orbits)),),
    "varieties.enumerate_flags_sl": (("varieties.flags", lambda r, a: len(r)),),
    "varieties.enumerate_flags_so": (("varieties.flags", lambda r, a: len(r)),),
    "tables.y0_row_spin": (("tables.rows", lambda r, a: 1),),
    "tables.y0_row_sl": (("tables.rows", lambda r, a: 1),),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in SPANS.items() for f in fs)
COUNTER_NAMES = tuple(f"{m}.{name}" for m, (_, methods) in COUNTERS.items() for name in methods)
COUNT_NAMES = tuple(sorted({name for hooks in RESULT_COUNTS.values() for name, _ in hooks}))


class Tracer:
    def __init__(self) -> None:
        self._stack: list[float] = []  # time covered by wrapped callees, one entry per open span
        self._spans = {name: [0, 0.0] for name in SPAN_NAMES}  # [calls, self seconds]
        self._counters = {name: [0] for name in COUNTER_NAMES}
        self._counts = {name: 0 for name in COUNT_NAMES}

    def _span(self, name: str, fn):
        cell = self._spans[name]
        stack = self._stack
        perf = time.perf_counter
        hooks = RESULT_COUNTS.get(name, ())
        counts = self._counts

        def close(t0: float) -> None:
            dt = perf() - t0
            cell[1] += dt - stack.pop()
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            # Each resumption is a span: the generator's work happens
            # while the caller iterates, not when it is called.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf()
                    try:
                        value = next(it)
                    except StopIteration:
                        close(t0)
                        break
                    except BaseException:
                        close(t0)
                        raise
                    close(t0)
                    yield value

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(t0)
            for count_name, read in hooks:
                counts[count_name] += read(result, args)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        cell = self._counters[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a springer module binds it."""
        for mod in SPANS:
            importlib.import_module(f"springer.{mod}")
        for mod in COUNTERS:
            importlib.import_module(f"springer.{mod}")
        namespaces = [vars(m) for name, m in sorted(sys.modules.items()) if name.startswith("springer.")]
        for mod, funcs in SPANS.items():
            home = sys.modules[f"springer.{mod}"]
            for func in funcs:
                orig = getattr(home, func)
                _rebind(namespaces, orig, self._span(f"{mod}.{func}", orig))
        for mod, (cls_name, methods) in COUNTERS.items():
            cls = getattr(sys.modules[f"springer.{mod}"], cls_name)
            for name, method in methods.items():
                orig = cls.__dict__[method]
                wrapped = self._counter(f"{mod}.{name}", orig)
                for attr, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, attr, wrapped)

    def snapshot(self) -> dict:
        return {
            "calls": {name: cell[0] for name, cell in self._spans.items()}
            | {name: cell[0] for name, cell in self._counters.items()},
            "self_s": {name: cell[1] for name, cell in self._spans.items()},
            "counts": dict(self._counts),
        }


def _rebind(namespaces: list[dict], orig, wrapped) -> None:
    for ns in namespaces:
        for attr, value in list(ns.items()):
            if value is orig:
                ns[attr] = wrapped
