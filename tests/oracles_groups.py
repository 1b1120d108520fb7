"""Brute-force checks on the component-group models and the table rows.

The package builds only the characters a table row needs (on the spin
side, those with xi(eps) = -1; on the cyclic side, the one lifting the
central character); here every character of a cyclic group is listed,
the spin characters trivial on eps are added, and the whole character table of the spin model is assembled and
checked to be one (class count, completeness, exact orthonormality),
with conjugacy classes, commutators and the action of tau found by
running over every element.  The elementary abelian 2-group (the
orthogonal quotient) and its sign characters, the orthogonality of
finished table rows and the dimension of a nilpotent's commutant are
references for the tests too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from springer.component_groups import CyclicGroup, IrrChar, SpinGamma, char_inner, spin_irreducibles
from springer.cyclotomic import CycRing
from springer.partitions import Partition, check_partition

# ---------------------------------------------------------------------------
# group structure by running over every element


def is_abelian(G) -> bool:
    return all(G.mul(g, h) == G.mul(h, g) for g in G.elements for h in G.elements)


def tau_is_identity_on_group(G) -> bool:
    return all(G.tau(g) == g for g in G.elements)


def conjugacy_classes(G) -> list[tuple]:
    seen = set()
    classes = []
    for g in G.elements:
        if g in seen:
            continue
        orbit = {G.mul(G.mul(h, g), G.inv(h)) for h in G.elements}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def commutator_subgroup(G) -> set:
    out = set()
    for g in G.elements:
        for h in G.elements:
            out.add(G.mul(G.mul(g, h), G.inv(G.mul(h, g))))
    return out


def tau_order(G) -> int:
    """Least k >= 1 with tau^k the identity on every element."""
    start = list(G.elements)
    images = [G.tau(g) for g in start]
    k = 1
    while images != start:
        images = [G.tau(g) for g in images]
        k += 1
    return k


def class_sizes(classes) -> tuple[int, ...]:
    """Sizes of the twisted classes that component_groups.twisted_classes returns."""
    return tuple(len(members) for _, members in classes)


# ---------------------------------------------------------------------------
# every character of a cyclic group


def cyclic_characters(G: CyclicGroup) -> list[IrrChar]:
    """chi_j(a) = zeta_m^(j a) for j = 0 .. m-1."""
    ring = CycRing(4 * G.m)
    return [
        IrrChar(label=f"chi{j}", dim=1, ring=ring, values={a: ring.root_of_unity(G.m, j * a) for a in G.elements})
        for j in range(G.m)
    ]


# ---------------------------------------------------------------------------
# the elementary abelian 2-group


class ElemAbelian2:
    """(Z/2)^rank on bitmasks (the product is XOR), with a permutation
    action of tau on coordinates."""

    def __init__(self, rank: int, tau_perm: Optional[Sequence[int]] = None):
        self.rank = rank
        self.tau_perm = tuple(tau_perm) if tau_perm is not None else tuple(range(rank))
        if sorted(self.tau_perm) != list(range(rank)):
            raise ValueError("tau_perm must be a permutation of the coordinates")
        self.elements = list(range(1 << rank))

    def tau(self, a: int) -> int:
        out = 0
        for i in range(self.rank):
            if a >> i & 1:
                out |= 1 << self.tau_perm[i]
        return out


def elem_abelian_characters(G: ElemAbelian2, ring: Optional[CycRing] = None) -> list[IrrChar]:
    if ring is None:
        ring = CycRing(4)
    out = []
    for t in range(1 << G.rank):
        vals = {a: ring.from_int((-1) ** (bin(a & t).count("1") % 2)) for a in G.elements}
        out.append(IrrChar(label=f"sgn[{t:0{max(G.rank, 1)}b}]", dim=1, ring=ring, values=vals))
    return out


# ---------------------------------------------------------------------------
# whole-table verification


def spin_linear_characters(G: SpinGamma, ring: CycRing) -> list[IrrChar]:
    """Characters trivial on epsilon: the dual of the even-mask 2-group."""
    r = G.r
    out = []
    seen = set()
    for t_mask in range(1 << r):
        key = min(t_mask, t_mask ^ ((1 << r) - 1)) if r > 0 else 0
        if key in seen:
            continue
        seen.add(key)
        vals = {(a, s): ring.from_int((-1) ** (bin(s & key).count("1") % 2)) for a, s in G.elements}
        out.append(IrrChar(label=f"lin[{key:0{max(r, 1)}b}]", dim=1, ring=ring, values=vals))
    return out


@dataclass(frozen=True)
class TableReport:
    order: int
    num_classes: int
    dims: tuple[int, ...]
    sum_dim_sq: int
    orthonormal: bool


def spin_character_table_report(G: SpinGamma) -> TableReport:
    """Assemble the full character table and verify it is one.

    The positive-central characters are the linear functionals of the
    quotient 2-group, the negative-central ones come from the library's
    matrix models; the report confirms class count, completeness and exact
    orthonormality, which pins the table uniquely.
    """
    ring = CycRing(4)
    chars = spin_linear_characters(G, ring) + spin_irreducibles(G)
    ortho = True
    for i in range(len(chars)):
        for j in range(len(chars)):
            expect = Fraction(1 if i == j else 0)
            if char_inner(G, chars[i].values, chars[j].values) != expect:
                ortho = False
    dims = tuple(c.dim for c in chars)
    return TableReport(
        order=G.order,
        num_classes=len(conjugacy_classes(G)),
        dims=dims,
        sum_dim_sq=sum(d * d for d in dims),
        orthonormal=ortho,
    )


def row_orthogonality(rows) -> bool:
    """Exact orthogonality of distinct tables.GreenBasisRow rows over the
    same class set (meaningful when tau acts trivially, where the
    twisted classes are plain conjugacy classes)."""
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i == j or rows[i].classes != rows[j].classes:
                continue
            s = rows[i].values[0].ring.zero()
            for (rep, size), vi, vj in zip(rows[i].classes, rows[i].values, rows[j].values):
                s = s + vi * vj.conj() * size
            if not s.is_zero():
                return False
    return True


def centralizer_algebra_dimension(la: Partition) -> int:
    """dim of {m : m x = x m} for x nilpotent of type la (any field)."""
    la = check_partition(la)
    return sum(min(a, b) for a in la for b in la)
