"""The mutant list of tests/mutants.py cannot drift out of date unseen.

No mutant runs here: each snippet must occur exactly once in its file
under src/, each replacement must differ from its snippet, each named
test must be a test function of its file (found in the parsed source,
with no pytest collection), and every self-check in src/ (a raise of
AssertionError, or a `check` line that `split` prints) must have a
mutant per occurrence.
"""

import ast
from collections import Counter
from pathlib import Path

from mutants import MUTANTS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "springer"


def _self_checks() -> list[str]:
    """The source text of every self-check in src/, once per occurrence."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", "") == "AssertionError":
                out.append(ast.get_source_segment(text, node))
            elif isinstance(node, ast.FunctionDef) and node.name == "cmd_split":
                for n in ast.walk(node):
                    if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "append":
                        line = n.args[0]
                        head = line.values[0] if isinstance(line, ast.JoinedStr) else line
                        if isinstance(head, ast.Constant) and str(head.value).startswith("check "):
                            out.append(ast.get_source_segment(text, line))
    return out


def test_each_snippet_occurs_once_and_each_replacement_differs():
    for m in MUTANTS:
        assert (SRC / m.file).read_text().count(m.snippet) == 1, (m.site, m.file, m.snippet)
        assert m.replacement != m.snippet, m.site


def test_each_named_test_exists():
    defined = {}
    for m in MUTANTS:
        assert m.tests, m.site
        for node_id in m.tests:
            path, *names = node_id.split("[")[0].split("::")
            if path not in defined:
                tree = ast.parse((REPO / path).read_text())
                defined[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert len(names) == 1 and names[0] in defined[path], (m.site, node_id)


def test_every_self_check_has_its_mutants():
    sites = Counter(_self_checks())
    assert sum(sites.values()) == 30  # 23 raises and 7 printed check lines
    covered = Counter()
    for m in MUTANTS:
        matches = [text for text in sites if m.site in text]
        assert len(matches) == 1, (m.site, matches)
        covered[matches[0]] += 1
        if m.trips:  # a printed line names the assertion behind it
            assert len([text for text in sites if m.trips in text and "raise" in text]) == 1, (m.site, m.trips)
    missing = {text: n - covered[text] for text, n in sites.items() if covered[text] < n}
    assert not missing, f"self-checks without a mutant: {missing}"
