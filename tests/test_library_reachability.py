"""The library holds only what the command line runs.

Every top-level function and class of ``springer``, and every method of
those classes, must be reachable by name from ``cli.main``; machinery
only tests call belongs next to them.  The walk is by name on the
parsed sources, so one reference keeps every definition of that name.
Module-level statements other than imports count as reached, and so do
the dunder methods of a reached class.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "springer"

# definitions kept although no CLI path names them
ALLOWED: dict[str, str] = {}


def _names(nodes) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreachable() -> set[str]:
    defs = {}  # qualified name -> (bare name, owning class or None, code it runs)
    referenced = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, None, [node])
            elif isinstance(node, ast.ClassDef):
                cls = f"{path.stem}.{node.name}"
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                for m in methods:
                    defs[f"{cls}.{m.name}"] = (m.name, cls, [m])
                own = node.bases + node.decorator_list + [n for n in node.body if n not in methods]
                defs[cls] = (node.name, None, own)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced |= _names([node])
    reached = {"cli.main"}
    referenced |= _names(defs["cli.main"][2])
    grew = True
    while grew:
        grew = False
        for qual, (name, owner, code) in defs.items():
            visible = owner is None or owner in reached
            dunder = owner is not None and name.startswith("__") and name.endswith("__")
            if qual not in reached and visible and (dunder or name in referenced):
                reached.add(qual)
                referenced |= _names(code)
                grew = True
    return set(defs) - reached


def test_every_library_definition_is_reached_from_the_cli():
    missing = unreachable() - set(ALLOWED)
    assert not missing, "not reachable from cli.main (move to tests/ or delete): " + ", ".join(sorted(missing))


def test_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 8
    assert set(ALLOWED) <= unreachable(), "allowlisted names that are gone or that the CLI now reaches"
