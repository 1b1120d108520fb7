"""The names the benchmark's tracer wraps exist in the library.

``perfbench/tracer.py`` wraps library functions and methods by name, and
its ``install`` fails on a missing one, so a traced benchmark run breaks
when a wrapped name leaves ``src/``.  The tracer module is loaded by path
and only read: nothing is installed or wrapped here.
"""

import importlib
import importlib.util
from pathlib import Path

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
