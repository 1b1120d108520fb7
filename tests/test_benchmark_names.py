"""The names the benchmark's tracer wraps exist in the library, and its
result hooks read what those functions return.

``perfbench/tracer.py`` wraps library functions and methods by name, and
its ``install`` fails on a missing one, so a traced benchmark run breaks
when a wrapped name leaves ``src/``.  Its result hooks read fields of the
return value and positions of the arguments, so a traced run also breaks
when a hooked function's signature or result changes.  The tracer module
is loaded by path and only read: nothing is installed or wrapped here.
"""

import importlib
import importlib.util
from pathlib import Path

from springer import split as sp
from springer import varieties as vr

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    missing = [
        f"{mod}.{func}"
        for mod, funcs in _tracer().SPANS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"springer.{mod}"), func, None))
    ]
    assert missing == []


def test_every_counted_method_is_defined_on_its_class():
    missing = []
    for mod, (cls_name, methods) in _tracer().COUNTERS.items():
        cls = getattr(importlib.import_module(f"springer.{mod}"), cls_name)
        missing += [f"{mod}.{cls_name}.{method}" for method in methods.values() if method not in cls.__dict__]
    assert missing == []


def test_every_result_hook_counts_a_small_call():
    sl = sp.build_sl_split((1, 2), 3)
    so = sp.build_so_split((1, 2, 2), 3)
    K = sl.field
    flags = vr.enumerate_flags_sl(sl, 1, [(1,)])
    args = {
        "varieties.cyclic_subspaces": (K, sl.nilpotent, 1),
        "varieties.sl_stratum_analysis": (sl, 1),
        "varieties.centralizer_units": (sl.la, K),
        "varieties.orbit_decomposition": (flags, vr.centralizer_units(sl.la, K), K),
        "varieties.enumerate_flags_sl": (sl, 1, [(1,)]),
        "varieties.enumerate_flags_so": (so,),
        "tables.y0_row_spin": ((1, 3), 5),
        "tables.y0_row_sl": ((2,), 2, 3),
    }
    hooks = _tracer().RESULT_COUNTS
    assert set(args) == set(hooks)
    for name, counts in hooks.items():
        mod, func = name.split(".")
        result = getattr(importlib.import_module(f"springer.{mod}"), func)(*args[name])
        for count, hook in counts:
            value = hook(result, args[name])
            assert isinstance(value, int) and value >= 0, (name, count, value)
