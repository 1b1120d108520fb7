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

The twisted side has three references: the character table of
A x| <tau>, computed numerically by Burnside's algorithm, whose
irreducibles over a tau-stable character restrict on the coset A tau to
its extensions; the twisted classes closed under every element of A
rather than read off in closed form; and the intertwiner found by averaging
matrix units over the group on dense matrices and normalized by a
rational square root, rather than read off as a Clifford word.  The
Clifford sign rule and tau, which the model computes by popcounts, are
also counted here one generator index at a time.

Two table paths that the package shortcuts are kept here in full: the
checked spin model construction run afresh for one group, where the
package builds it once per epsilon-signature and shares it, and the SL
table read off every partition of n with a part not divisible by d
dropped, where the package scales the partitions of n/d.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from springer.component_groups import (
    CyclicGroup,
    ExtendedChar,
    IrrChar,
    SpinGamma,
    _spin_negative_representations,
    char_inner,
    cmat_mul,
    cmat_scale,
    spin_irreducibles,
    word_mul,
)
from springer.cyclotomic import CycRing
from springer.partitions import Partition, check_partition, partitions_of
from springer.tables import GreenBasisRow, y0_row_sl

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


# ---------------------------------------------------------------------------
# the character table of A x| <tau>, numerically


class TauExtended:
    """A x| <tau> for an involution tau of A: pairs (g, k) with k mod 2,
    (g, k)(h, l) = (g tau^k(h), k + l), so (1, 1) conjugates (h, 0) to
    (tau(h), 0)."""

    def __init__(self, G):
        if any(G.tau(G.tau(g)) != g for g in G.elements):
            raise ValueError("tau is not an involution")
        self.G = G
        self.elements = [(g, k) for k in (0, 1) for g in G.elements]
        self.order = len(self.elements)

    def mul(self, x, y):
        (g, k), (h, l) = x, y
        return self.G.mul(g, self.G.tau(h) if k else h), (k + l) % 2

    def inv(self, x):
        g, k = x
        return (self.G.tau(self.G.inv(g)) if k else self.G.inv(g)), k


def character_table(G, seed: int = 0) -> list[dict]:
    """Every irreducible character of G as an element -> complex map.

    Burnside's algorithm: the class sums span the center of the group
    algebra, each central character w satisfies
    w(C_i) w(C_j) = sum_l a_ijl w(C_l) with a_ijl the number of x in C_i
    with x^-1 z_l in C_j (z_l a fixed member of C_l), so the vectors
    (w(C_l))_l are the common eigenvectors of the matrices (a_ijl)_jl;
    a random combination of them separates the eigenvalues.  Then
    chi(z_l) = chi(1) w(C_l) / |C_l|, with chi(1) fixed by sum |chi|^2 = |G|.
    """
    import numpy as np

    classes = conjugacy_classes(G)
    index = {g: i for i, c in enumerate(classes) for g in c}
    k = len(classes)
    a = np.zeros((k, k, k))
    for l, cl in enumerate(classes):
        z = cl[0]
        for i, ci in enumerate(classes):
            for x in ci:
                a[i, index[G.mul(G.inv(x), z)], l] += 1
    coeffs = np.random.default_rng(seed).standard_normal(k)
    values, vectors = np.linalg.eig(np.tensordot(coeffs, a, axes=1))
    if min(abs(u - v) for i, u in enumerate(values) for v in values[i + 1 :]) < 1e-6:
        raise AssertionError("the random class-sum combination repeats an eigenvalue")
    sizes = np.array([len(c) for c in classes])
    e = next(g for g in G.elements if G.mul(g, g) == g)
    one = index[e]
    out = []
    for col in vectors.T:
        w = col / col[one]
        dim = np.sqrt(G.order / np.sum(abs(w) ** 2 / sizes))
        chi = dim * w / sizes
        out.append({g: complex(chi[index[g]]) for g in G.elements})
    if abs(sum(abs(chi[e]) ** 2 for chi in out) - G.order) > 1e-6:
        raise AssertionError("the squared degrees do not sum to the group order")
    return out


def to_complex(x) -> complex:
    """A cyclotomic value evaluated at zeta_n = exp(2 pi i / n)."""
    return sum(c * cmath.exp(2j * cmath.pi * k / x.ring.n) for k, c in enumerate(x.coeffs))


def coset_restrictions_over(G, chi: IrrChar) -> list[dict]:
    """The characters of A x| <tau> lying over chi, read on the coset A tau:
    g -> value at (g, 1), for each irreducible whose restriction to A is chi."""
    over = []
    for psi in character_table(TauExtended(G)):
        if all(cmath.isclose(psi[(g, 0)], to_complex(v), abs_tol=1e-9) for g, v in chi.values.items()):
            over.append({g: psi[(g, 1)] for g in G.elements})
    return over


# ---------------------------------------------------------------------------
# the Clifford sign rule bit by bit


def merge_sign_by_loops(G: SpinGamma, s_mask: int, t_mask: int) -> int:
    """Exponent of epsilon produced when sorting x_S x_T, counted one
    generator index at a time: inversions, then contractions x_i^2."""
    exp = 0
    for t in range(G.r):
        if t_mask >> t & 1:
            exp += bin(s_mask >> (t + 1)).count("1")
    both = s_mask & t_mask
    for i in range(G.r):
        if both >> i & 1:
            exp += G.exponents[i]
    return exp % 2


def tau_by_loops(G: SpinGamma, g) -> tuple:
    """tau on (a, S): one epsilon per generator in S that tau negates."""
    a, s = g
    flips = sum(1 for i in range(G.r) if (s >> i & 1) and G.tau_signs[i] == -1)
    return ((a + flips) % 2, s)


# ---------------------------------------------------------------------------
# twisted classes by running over every element


def twisted_classes_by_all_b(G) -> tuple:
    """Orbits of a -> b a tau(b)^{-1} on A tau, closed under every b in A,
    as (representative, members) pairs in representative order."""
    seen = set()
    classes = []
    for a in G.elements:
        if a in seen:
            continue
        orbit = set()
        frontier = {a}
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            for b in G.elements:
                y = G.mul(G.mul(b, x), G.inv(G.tau(b)))
                if y not in orbit:
                    frontier.add(y)
        members = tuple(sorted(orbit))
        seen |= orbit
        classes.append((members[0], members))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


# ---------------------------------------------------------------------------
# the intertwiner by a search over matrix units, on dense matrices


def dense(rep, g, ring: CycRing) -> tuple:
    """The matrix of g in a monomial spin model, with entries in ring
    (whose order 4 divides)."""
    units = [ring.root_of_unity(4, k) for k in range(4)]
    zero = ring.zero()
    return tuple(tuple(units[p] if j == c else zero for j in range(rep.dim)) for c, p in zip(*rep.word(g)))


def cmat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def cmat_trace(a):
    s = a[0][0].ring.zero()
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def cmat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def _squarefree_split(m: int) -> tuple[int, int]:
    """m = f * s^2 with f squarefree; returns (f, s)."""
    f, s = 1, 1
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    return f * m, s


def sqrt_rational(ring: CycRing, r: Fraction):
    """A square root of the rational r inside the ring, if one exists.

    Covers rational squares, their negatives (via i when 4 | order) and
    the 2 * square family (via zeta_8 + zeta_8^{-1} when 8 | order).
    """
    r = Fraction(r)
    if r == 0:
        return ring.zero()
    f, s = _squarefree_split(abs(r.numerator) * r.denominator)
    base = Fraction(s, r.denominator)
    if f == 1:
        val = ring.one() * base
    elif f == 2 and ring.n % 8 == 0:
        val = (ring.root_of_unity(8) + ring.root_of_unity(8, -1)) * base
    else:
        return None
    if r < 0:
        if ring.n % 4 != 0:
            return None
        val = ring.i() * val
    return val


def find_intertwiner(G: SpinGamma, rep, ring: CycRing):
    """T with T rho(g) T^{-1} = rho(tau g) and T^2 = 1: the average of
    rho(tau g) E rho(g)^{-1} over g for the first matrix unit E that
    gives a nonzero sum, scaled by the principal square root of the
    inverse of its scalar square."""
    dim = rep.dim
    for ei in range(dim):
        for ej in range(dim):
            M = tuple(
                tuple(ring.one() if (i, j) == (ei, ej) else ring.zero() for j in range(dim)) for i in range(dim)
            )
            S = None
            for g in G.elements:
                term = cmat_mul(cmat_mul(dense(rep, G.tau(g), ring), M), dense(rep, G.inv(g), ring))
                S = term if S is None else cmat_add(S, term)
            if not cmat_is_zero(S):
                S2 = cmat_mul(S, S)
                c = S2[0][0]
                for i in range(dim):
                    for j in range(dim):
                        expect = c if i == j else ring.zero()
                        if not (S2[i][j] - expect).is_zero():
                            raise AssertionError("intertwiner square is not scalar")
                cr = c.as_rational()
                if cr is None:
                    raise AssertionError("intertwiner square is not rational in this ring")
                gamma = sqrt_rational(ring, Fraction(1, 1) / cr)
                if gamma is None:
                    raise AssertionError("normalizing scalar has no square root in the ring")
                return cmat_scale(gamma, S)
    raise AssertionError("no nonzero intertwiner found")


def extend_by_search(chi: IrrChar, G: SpinGamma) -> list[ExtendedChar]:
    """Both extensions of a tau-stable spin character with tau nontrivial,
    through the searched intertwiner: value tr(rho(g) (+-T)) at g tau,
    labelled plus and minus and ordered by serialized value vector."""
    ring = CycRing(lcm(8, chi.ring.n))
    T = find_intertwiner(G, chi.rep, ring)
    out = []
    for sign, label in ((1, "plus"), (-1, "minus")):
        Ts = cmat_scale(ring.from_int(sign), T)
        values = {g: cmat_trace(cmat_mul(dense(chi.rep, g, ring), Ts)) for g in G.elements}
        out.append(ExtendedChar(label=label, coset_values=values))
    out.sort(key=lambda e: tuple(tuple(str(c) for c in v.coeffs) for v in e.coset_values.values()))
    return out


# ---------------------------------------------------------------------------
# table paths without the package's shortcuts


def spin_irreducibles_uncached(G: SpinGamma) -> list[IrrChar]:
    """The checked model construction of spin_irreducibles, run for G
    itself instead of read from the models shared per G.exponents."""
    ring = CycRing(4)
    models = []
    for rep in _spin_negative_representations(G, ring):
        for s in G.generators():
            ws = rep.word(s)
            for h in G.elements:
                if word_mul(ws, rep.word(h)) != rep.word(G.mul(s, h)):
                    raise AssertionError("matrix model violates the group law")
        chi = rep.character()
        if char_inner(G, chi, chi) != 1:
            raise AssertionError("negative-central character is not irreducible")
        models.append((rep, chi))
    if len(models) == 1:
        labels = ["neg"]
    else:
        w = G.full_word()
        models.sort(key=lambda m: tuple(str(c) for c in m[1][w].coeffs))
        labels = [f"neg[xI={chi[w]!r}]" for _, chi in models]
    return [
        IrrChar(label=label, dim=chi[G.identity()].as_int(), ring=ring, values=chi, rep=rep)
        for label, (rep, chi) in zip(labels, models)
    ]


def y0_table_sl_by_filter(n: int, xi_order: int, q: int) -> list[GreenBasisRow]:
    """The order-d SL table from every partition of n, keeping those whose
    parts d divides."""
    return [y0_row_sl(la, xi_order, q) for la in partitions_of(n) if all(x % xi_order == 0 for x in la)]
