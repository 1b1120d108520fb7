"""Mutation sweep: every self-check of the library can fail.

    python3 tests/mutants.py PATH/TO/src

A self-check is a ``raise AssertionError`` in ``src/`` or a ``check``
line that ``springer split`` prints.  Each mutant below names the check
it proves (``site``: text of that raise or printed line), a file under
``springer/``, an exact snippet of it and the snippet's replacement, the
pytest node ids that must fail, and the message the failing run must
show (``trips``: the site itself unless given; for a printed line, the
assertion behind it).  The fault goes into the computation the check
guards, never into the check, so a caught mutant shows that the check
tells a wrong result from a right one.

Each mutant is applied alone to a fresh copy of the given ``src/`` in a
temporary directory, and pytest runs only its tests with that copy first
on the import path.  The mutant is caught when pytest reports a failure
and its output holds the message; every other mutant survives, and is
listed with its reason.  The exit status is 1 when any survives.

``tests/test_mutants.py`` checks, without running any mutant, that each
snippet occurs exactly once, that each replacement differs from it, that
each named test exists, and that every site in ``src/`` has its mutants.
It is not a test module, so pytest does not collect it.  The whole list
runs in under a minute on two CPUs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    site: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    trips: str = ""


SPLIT = "tests/test_split.py::"
VARIETIES = "tests/test_varieties.py::"
TABLES = "tests/test_tables.py::"
GROUPS = "tests/test_component_groups.py::"
CYCLOTOMIC = "tests/test_cyclotomic.py::"
GOLDEN = "tests/test_golden.py::test_cli_stdout_digest"

# the shift both builders take, with no link on its first or on its last
# chain: x stays skew-adjoint and u - 1 keeps the form, so only the
# Jordan-type checks can see it
SHIFT = "for chain in jordan_chains(la_parts):\n        for a in chain[1:]:"
FIRST_CHAIN_LOST = (SHIFT, SHIFT.replace("(la_parts):", "(la_parts)[1:]:"))
LAST_CHAIN_LOST = (SHIFT, SHIFT.replace("(la_parts):", "(la_parts)[:-1]:"))

MUTANTS: tuple[Mutant, ...] = (
    # -- split: the orthogonal builder
    Mutant(
        "assembled form is not symmetric non-degenerate",
        "split.py",
        "rows[r][c] = rows[c][r] = K.scalar((-1) ** ((a - 1) % 2))",
        "rows[r][c] = K.scalar((-1) ** ((a - 1) % 2))",
        (SPLIT + "test_build_so_split_even_pair_22",),
    ),
    Mutant(
        "x is not skew-adjoint for the form",
        "split.py",
        "K.scalar((-1) ** ((delta - a) % 2))",
        "K.scalar((-1) ** (delta % 2))",
        (SPLIT + "test_build_so_split_block_3",),
    ),
    Mutant(
        "x is not of the Jordan type of the partition",
        "split.py",
        *FIRST_CHAIN_LOST,
        (SPLIT + "test_build_so_split_block_3",),
    ),
    # -- split: the twisted SL builder
    Mutant(
        "form is degenerate",
        "split.py",
        "for i, row in zip(chain, block):",
        "for i, row in zip(chain[1:], block):",
        (SPLIT + "test_build_sl_split_examples",),
    ),
    Mutant(
        "form is not Hermitian",
        "split.py",
        "for j, c in zip(chain, row):",
        "for j, c in zip(reversed(chain), row):",
        (SPLIT + "test_build_sl_split_examples",),
    ),
    Mutant(
        "u does not preserve the sesquilinear form",
        "split.py",
        "u = la.mat_add(K2, x, la.identity(K2, n))",
        "u = la.mat_add(K2, la.transpose(x), la.identity(K2, n))",
        (SPLIT + "test_sl_split_antidiagonal_signs",),
    ),
    Mutant(
        "u - 1 is not of the Jordan type of the partition",
        "split.py",
        *FIRST_CHAIN_LOST,
        (SPLIT + "test_build_sl_split_examples",),
    ),
    # -- split: the check lines it prints, each backed by a builder assertion
    Mutant(
        "check form_hermitian",
        "split.py",
        "gamma = K2.inv(K2.scalar(2))",
        "gamma = 1",
        (GOLDEN + "[split --group sl --lambda 1,2,3 --q 3]",),
        "form is not Hermitian",
    ),
    Mutant(
        "check u_preserves_form",
        "split.py",
        "r = {a: K2.neg(B[a][level - 1 - a])",
        "r = {a: 0",
        (GOLDEN + "[split --group sl --lambda 1,2,3 --q 3]",),
        "u does not preserve the sesquilinear form",
    ),
    Mutant(
        "check jordan_type",
        "split.py",
        *LAST_CHAIN_LOST,
        (GOLDEN + "[split --group sl --lambda 1,1,2 --q 9]",),
        "u - 1 is not of the Jordan type of the partition",
    ),
    Mutant(
        "check fixed_by_twisted_frobenius",
        "split.py",
        "u = la.mat_add(K2, x, la.identity(K2, n))",
        "u = la.mat_add(K2, la.mat_add(K2, x, x), la.identity(K2, n))",
        (GOLDEN + "[split --group sl --lambda 1,2,3 --q 3]",),
        "u does not preserve the sesquilinear form",
    ),
    Mutant(
        "check form_symmetric_nondegenerate",
        "split.py",
        "for a in range(1, h + 1):\n                rows[chain[h - a]]",
        "for a in range(1, h):\n                rows[chain[h - a]]",
        (GOLDEN + "[split --group so --lambda 1,3,5 --q 5]",),
        "assembled form is not symmetric non-degenerate",
    ),
    Mutant(
        "check x_skew_adjoint",
        "split.py",
        "rows[r][c] = rows[c][r] = K.scalar((-1) ** ((a - 1) % 2))",
        "rows[r][c] = rows[c][r] = K.scalar(1)",
        (GOLDEN + "[split --group so --lambda 1,2,2,5 --q 3]",),
        "x is not skew-adjoint for the form",
    ),
    Mutant(
        "check jordan_type",
        "split.py",
        *LAST_CHAIN_LOST,
        (GOLDEN + "[split --group so --lambda 1,3,5 --q 5]",),
        "x is not of the Jordan type of the partition",
    ),
    # -- varieties
    Mutant(
        "cyclic subspaces where",
        "varieties.py",
        "la.extend_basis(K, kernels[j - 1] + (c_orbit[d - j],), layer)",
        "la.extend_basis(K, kernels[j - 1], layer)",
        (VARIETIES + "test_cyclic_subspaces_match_brute_force",),
    ),
    Mutant(
        "lines in the orbits where",
        "varieties.py",
        "{len(chain): chain[0] for chain in jordan_chains(data.la)}.items()",
        "[(len(chain), chain[0]) for chain in jordan_chains(data.la)]",
        (VARIETIES + "test_line_strata_by_orbit_match_the_walk",),
    ),
    Mutant(
        "a centralizer generator does not commute with x",
        "varieties.py",
        "entries = [(ca[i - 1 - m], cb[len(cb) - 1 - m]) for m in range(i)]",
        "entries = [(cb[len(cb) - 1 - m], ca[i - 1 - m]) for m in range(i)]",
        (VARIETIES + "test_centralizer_generators_generate_the_unit_group",),
    ),
    Mutant(
        "a centralizer unit maps a flag off the list",
        "varieties.py",
        "transposes = [la.transpose(g) for g in units.units]",
        "transposes = list(units.units)",
        (VARIETIES + "test_orbit_decomposition_case_III",),
    ),
    Mutant(
        "orbit invariant is not constant",
        "varieties.py",
        "if any(u):",
        "if u[0]:",
        (GOLDEN + "[flags --group sl --lambda 1,1,2 --d 1 --q 3 --orbits]",),
    ),
    # -- component groups
    Mutant(
        "not monomial: a row has",
        "component_groups.py",
        "sx = ((z, o), (o, z))",
        "sx = ((o, o), (o, z))",
        (TABLES + "test_y0_spin_dim2_row",),
    ),
    Mutant(
        "is not a fourth root of unity",
        "component_groups.py",
        "phase_of = {ring.root_of_unity(4, k).coeffs: k for k in range(4)}",
        "phase_of = {ring.root_of_unity(4, k).coeffs: k for k in range(3)}",
        (GROUPS + "test_extend_character_spin_nontrivial_tau",),
    ),
    Mutant(
        "matrix model violates the group law",
        "component_groups.py",
        "out.append(base[k] if s == 1 else cmat_scale(R.i(), base[k]))",
        "out.append(base[k])",
        (TABLES + "test_y0_spin_dim2_row",),
    ),
    Mutant(
        "negative-central character is not irreducible",
        "component_groups.py",
        "nq = r // 2 if r % 2 == 0 else (r - 1) // 2",
        "nq = r // 2 if r % 2 == 0 else (r + 1) // 2",
        (TABLES + "test_y0_spin_dim2_row",),
    ),
    Mutant(
        "tau is not conjugation by an even word",
        "component_groups.py",
        "(G.flip_mask, G.flip_mask ^ ((1 << G.r) - 1))",
        "(G.flip_mask, G.flip_mask ^ ((1 << G.r) - 2))",
        (TABLES + "test_twisted_extensions_are_orthonormal_and_opposite",),
    ),
    Mutant(
        "the word intertwiner does not square to 1",
        "component_groups.py",
        "s = u + (u + G.mul(w, w)[0]) % 2",
        "s = u + (u + G.mul(w, G.inv(w))[0]) % 2",
        (GROUPS + "test_word_intertwiner_matches_the_matrix_unit_search",),
    ),
    Mutant(
        "the word intertwiner does not conjugate rho to rho after tau",
        "component_groups.py",
        "(G.flip_mask, G.flip_mask ^ ((1 << G.r) - 1))",
        "(G.exp_mask, G.exp_mask ^ ((1 << G.r) - 1))",
        (TABLES + "test_twisted_extensions_are_orthonormal_and_opposite",),
    ),
    # -- tables
    Mutant(
        "extension value is not constant on a twisted class",
        "component_groups.py",
        "if (s ^ G.flip_mask) in (0, full):",
        "if (s ^ G.flip_mask) == 0:",
        (TABLES + "test_y0_spin_omega_selection",),
    ),
    Mutant(
        "identity-class value differs from the dimension",
        "component_groups.py",
        'return [ExtendedChar(label="trivial", coset_values=chi.values)]',
        'return [ExtendedChar(label="trivial", coset_values={g: chi.values[G.mul(g, G.epsilon())] for g in G.elements})]',
        (TABLES + "test_y0_spin_dim2_row",),
    ),
    Mutant(
        "odd exponent sum",
        "tables.py",
        "dim_l = k * d * d - 1",
        "dim_l = k * d * d",
        (TABLES + "test_y0_sl_24_example",),
    ),
    # -- cyclotomic arithmetic
    Mutant(
        "division by a monic polynomial left a remainder",
        "cyclotomic.py",
        "num = [-1] + [0] * (n - 1) + [1]",
        "num = [1] + [0] * (n - 1) + [1]",
        (CYCLOTOMIC + "test_i_squared",),
    ),
    Mutant(
        "coefficients for a ring of degree",
        "cyclotomic.py",
        "return Cyc(self, (0,) * self.degree)",
        "return Cyc(self, (0,) * (self.degree + 1))",
        (CYCLOTOMIC + "test_geometric_sum_vanishes",),
    ),
)


def apply(src: Path, dest: Path, m: Mutant) -> None:
    """Copy src to dest and put the mutant in; its snippet must occur once."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    path = dest / "springer" / m.file
    text = path.read_text()
    if text.count(m.snippet) != 1:
        raise SystemExit(f"{m.file}: the snippet for {m.site!r} occurs {text.count(m.snippet)} times")
    path.write_text(text.replace(m.snippet, m.replacement))


def run(src: Path, m: Mutant) -> str:
    """Empty when the mutant is caught, else why it survived."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        apply(src, copy, m)
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--tb=short", *m.tests]
        try:
            done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"no result within {TIMEOUT_S} s"
    if done.returncode != 1:
        return f"pytest exited {done.returncode}" + (": the tests passed" if done.returncode == 0 else "")
    message = m.trips or m.site
    if message not in done.stdout + done.stderr:
        return f"the tests failed without {message!r}"
    return ""


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    src = Path(argv[0]).resolve()
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(lambda m: run(src, m), MUTANTS))
    for m, why in zip(MUTANTS, outcomes):
        print(f"{'SURVIVED' if why else 'caught'}\t{m.site}\t{m.file}\t{why}")
    survivors = sum(map(bool, outcomes))
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
