"""Brute-force flag varieties over small finite fields.

For a split SL unipotent u and a divisor d this module enumerates the
pairs (W in W') with dim W = d, dim W' = n - d, both x-stable for
x = u - 1, x regular nilpotent on W and on V/W', and x of prescribed
type on W'/W.  For split orthogonal data it enumerates the x-stable
totally isotropic planes with prescribed type on the perp quotient.

Subspaces are canonical reduced echelon bases.  The d-dimensional
x-stable subspaces with regular restriction are exactly the x-cyclic
spans <x^{d-1} v, ..., v>, so the generator v is what gets enumerated,
stratified along the kernel filtration and quotiented by the exact
redundancy (scalars and shifts by x W): the walk yields each subspace
once for every d, nothing scans the full Grassmannian and nothing is
deduplicated.
Generators that differ by an element of ker x share x W, so x W is put
in echelon form once per such block, and each W of the block is one
pivot step on top of it.
The count is known in closed form before the walk, so an instance
above the budget raises rather than crawling, and the walk is checked
to yield exactly that many subspaces.  The budget is the one constant
DEFAULT_BUDGET, which every enumeration reads when it is called; no
caller passes a budget of its own.

The Jordan type of x on V/W is attached to every flag; its ranks come
from W's rows in the quotient coordinates of V/im x^k.  The images of
the split shift are coordinate subspaces, read off its Jordan chains
once per partition with no elimination, so those coordinates are a
projection.  The level sets of that type are the strata that mirror the
centralizer orbits.
Stratum counting is also available without materializing the W' side:
the fibre over W is nonempty exactly when the target type is a
horizontal d-strip drop of the type of V/W (the horizontal-strip rule,
itself verified against brute force in the test suite).  That tally is
taken once per (lambda, d) and serves every target type lambda'.  For
d = 1 it walks no subspace: W is a line of ker x, its type is constant
on each orbit of the centralizer units (the Hall number
g^lambda_{nu,(1)}(Q) counts the lines of type nu; Macdonald, ch. II
section 4), so each orbit is typed once, at a chain bottom, and sized in
closed form.  For d >= 2 every W is walked.

The centralizer of x acts on each flag list.  Its orbits are closures
under a small generating set of the unit group, read off the Jordan
chains of x; the unit group itself is never enumerated, so orbits need
no budget.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterator, Sequence

from . import flinalg as la
from .ffield import FieldSpec
from .partitions import Partition, normalize
from .split import SplitSLData, SplitSOData, jordan_chains, jordan_shift

DEFAULT_BUDGET = 10**6  # read at call time; only tests lower it


class VarietyBudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured budget."""


# ---------------------------------------------------------------------------
# kernel filtration and cyclic subspaces


def _subspace_count(Q: int, kd: int, kdm1: int, d: int) -> int:
    """Number of d-dimensional x-cyclic subspaces for an x over F_Q with
    dim ker x^d = kd and dim ker x^(d-1) = kdm1: a line of generators
    modulo ker x^(d-1), times the shifts in ker x^(d-1) modulo x W."""
    lines = (Q ** (kd - kdm1) - 1) // (Q - 1)
    return lines * Q ** max(kdm1 - d + 1, 0)


def cyclic_subspaces(K: FieldSpec, x: la.Matrix, d: int) -> list[la.Matrix]:
    """All d-dimensional x-stable W with x|_W regular nilpotent, each once,
    as a sorted list of echelon bases.

    W is the span of the x-orbit of a generator v = c + w, with c a line
    representative of the complement C of ker x^(d-1) in ker x^d and w in
    ker x^(d-1); two generators give the same W exactly when their c
    agree and their w differ by an element of x W.  Layer j of the kernel
    filtration (rows extending ker x^(j-1) to ker x^j) holds x^(d-j) c
    modulo ker x^(j-1), so dropping the row it replaces from each layer
    leaves rows whose span meets x W in 0 and has the complementary
    dimension: w runs over that span.

    The kept layer-1 rows lie in ker x, so x W = <x v, ..., x^(d-1) v>
    depends only on the slow part v0 of v (c plus the rows of layers 2
    and up) and is fixed across the block of generators v0 + (layer-1
    combination).  Per block, x W is put in echelon form once, and v0
    and the layer-1 rows are reduced against it once; the reduction v'
    of each generator is then a running sum of those remainders, 0 at
    every pivot of x W.  W's echelon basis is x W's rows with v' scaled
    to 1 at its first nonzero entry, that column cleared from them, and
    v' in pivot order: one pivot step per W, no elimination.  Nothing is
    deduplicated.  For d = 1, W is a line of ker x, and the line
    representatives of its echelon basis come in increasing order.
    """
    n = len(x)
    if d < 1 or d > n:
        return []
    kernels, power = [(), la.nullspace(K, x)], x  # kernels[j] = ker x^j
    while len(kernels) <= d:
        power = la.mat_mul(K, power, x)
        kernels.append(la.nullspace(K, power))
    comp = la.extend_basis(K, kernels[d - 1], kernels[d])
    if not comp:
        return []
    count = _subspace_count(K.q, len(kernels[d]), len(kernels[d - 1]), d)
    if count > DEFAULT_BUDGET:
        what = "candidate lines" if d == 1 else "candidates"
        raise VarietyBudgetError(f"{count} {what} exceed budget {DEFAULT_BUDGET}")
    if d == 1:
        out = [(c,) for c in la.line_representatives(K, comp)]
    else:

        def orbit(v: la.Vector) -> list[la.Vector]:
            vs = [v]
            while len(vs) < d:
                vs.append(la.mat_vec(K, x, vs[-1]))
            return vs

        layers = [la.extend_basis(K, kernels[j - 1], kernels[j]) for j in range(1, d)]
        out = []
        for c in la.line_representatives(K, comp):
            c_orbit = orbit(c)
            kept = [la.extend_basis(K, kernels[j - 1] + (c_orbit[d - j],), layer) for j, layer in enumerate(layers, 1)]
            slow = sum(kept[1:], ())
            for v0 in la.span_vectors(K, slow + (c,), [K.elements()] * len(slow) + [(1,)]):
                xw, pivots = la.rref(K, orbit(v0)[1:])
                rows = tuple(la.reduce(K, w, xw, pivots) for w in kept[0]) + (la.reduce(K, v0, xw, pivots),)
                for v in la.span_vectors(K, rows, [K.elements()] * len(kept[0]) + [(1,)]):
                    lead = next(t for t, a in enumerate(v) if a)
                    r = bisect(pivots, lead)
                    basis = [list(row) for row in xw[:r] + (v,) + xw[r:]]
                    la.pivot(K, basis, r, lead)
                    out.append(la.mat(basis))
        out.sort()
    if len(out) != count:
        raise AssertionError(f"{len(out)} cyclic subspaces where {count} exist")
    return out


# ---------------------------------------------------------------------------
# quotient Jordan types


def quotient_type(K: FieldSpec, x: la.Matrix, w_basis: la.Matrix, pow_images: list) -> Partition:
    """Jordan type of x on V / span(w_basis), from rank arithmetic.

    The rank of x^k on V/W is dim(im x^k + W) - dim W: dim im x^k plus
    the rank of W's rows in V/im x^k.  The images are coordinate
    subspaces, read off the Jordan chains by power_images with no
    elimination, so a row's coordinates there are its entries at the
    coordinates outside im x^k: a projection, with no field operation.  Ranks of 0 or 1 are counted without elimination,
    and the ranks stop at the first zero.
    """
    d = len(w_basis)
    ranks = [len(x) - d]
    for dim, free in pow_images:
        rows = []
        for v in w_basis:
            u = [v[c] for c in free]
            if any(u):
                rows.append(u)
        rank = min(len(rows), 1) if len(rows) < 2 or len(free) < 2 else len(la.rref(K, rows)[0])
        ranks.append(dim + rank - d)
        if not ranks[-1]:
            break
    return la.partition_from_ranks(tuple(ranks) + (0,))


def power_images(la_parts: Partition) -> list:
    """For each nonzero im(x^k), k >= 1, of x = jordan_shift(la_parts): its
    dimension and the coordinates outside it, in increasing order.  x^k
    sends e^j_a to e^j_{a-k}, so im x^k is spanned by the bottom h - k
    vectors of each chain of length h, and the top k of each chain (all
    of a shorter one) lie outside."""
    chains = jordan_chains(la_parts)
    out = []
    for k in range(1, max(la_parts, default=0)):
        free = tuple(c for chain in chains for c in chain[-k:])
        out.append((sum(la_parts) - len(free), free))
    return out


def single_row_drops(nu: Partition, d: int) -> set[Partition]:
    """Partitions obtained by shortening exactly one row by d.

    These label the principal strata of the flag varieties below, the
    ones whose transporter pieces have full dimension and so carry the
    restriction multiplicity.  Mixed horizontal-strip labels also occur
    as nonempty strata when d > 1 (e.g. type (2,4), d = 2, target (2):
    the drop (1,3) shows up with (q^2-1)^2 points) but contribute no
    top components.
    """
    out = set()
    for idx in range(len(nu)):
        parts = list(nu)
        parts[idx] -= d
        if parts[idx] >= 0:
            out.add(normalize(parts))
    return out


def horizontal_strip_drops(nu: Partition, d: int) -> set[Partition]:
    """Partitions mu in nu with nu/mu a horizontal d-strip.

    These are exactly the Jordan types of x on V/W over the x-cyclic
    d-dimensional subspaces W (verified against brute force in the test
    suite), and dually the types of x on a corank-d subspace with
    regular quotient.
    """
    desc = sorted(nu, reverse=True)
    out: set[Partition] = set()

    def rec(i: int, remaining: int, acc: list[int]):
        if i == len(desc):
            if remaining == 0:
                out.add(normalize(acc))
            return
        below = desc[i + 1] if i + 1 < len(desc) else 0
        # interlacing: below <= mu_i <= nu_i
        for mu_i in range(below, desc[i] + 1):
            drop = desc[i] - mu_i
            if drop <= remaining:
                rec(i + 1, remaining - drop, acc + [mu_i])

    rec(0, d, [])
    return out


# ---------------------------------------------------------------------------
# SL flags


@dataclass(frozen=True)
class Flag:
    W: la.Matrix
    Wp: la.Matrix
    type_quotient: Partition  # x on W'/W
    type_mod_W: Partition  # x on V/W (the stratum invariant)


def enumerate_flags_sl(data: SplitSLData, d: int, laps: Collection[Partition]) -> list[Flag]:
    """All flags (W in W') for the split unipotent whose W'/W type is one
    of laps, marked with types.

    Target types of the wrong size are dropped, and none left gives an
    empty list.  Instances above the candidate budget raise
    VarietyBudgetError, and so do those whose W' candidates, summed over
    the W with a wanted type, exceed it, before any W' is built: x on V/W
    has type nu, so dim ker x^k there is sum_i min(nu_i, k).
    """
    K = data.field
    x = data.nilpotent
    n = len(x)
    laps = {tuple(lap) for lap in laps if sum(lap) == n - 2 * d}
    if not laps:
        return []
    pows = power_images(data.la)
    kept, dual_count = [], 0
    for w in cyclic_subspaces(K, x, d):
        nu = quotient_type(K, x, w, pows)
        if wanted := laps & horizontal_strip_drops(nu, d):
            kept.append((w, nu, wanted))
            kd, kdm1 = (sum(min(part, k) for part in nu) for k in (d, d - 1))
            dual_count += _subspace_count(K.q, kd, kdm1, d)
    if dual_count > DEFAULT_BUDGET:
        raise VarietyBudgetError(f"flag count exceeds budget {DEFAULT_BUDGET}")
    flags = []
    for w, nu, wanted in kept:
        for wp, lap in _completions(K, x, w, d, wanted):
            flags.append(Flag(W=w, Wp=wp, type_quotient=lap, type_mod_W=nu))
    flags.sort(key=lambda f: (f.W, f.Wp))
    return flags


def _completions(
    K: FieldSpec, x: la.Matrix, w: la.Matrix, d: int, laps: Collection[Partition]
) -> Iterator[tuple[la.Matrix, Partition]]:
    """Every W' over W with x of a type in laps on W'/W and regular on
    V/W', paired with that type.

    Enumerated through the quotient V/W: W'/W must be x-stable of the
    target type with regular quotient, so it is the annihilator of a
    d-dimensional cyclic subspace U for the transpose action; work in
    quotient coordinates.  Each W' the walk yields is such an
    annihilator, so V/W' is dual to U, on which x^T is regular: x is
    regular on V/W', and that is not checked again.  The type on W'/W is
    subquotient_type of the lifted W' over W, the routine that types
    E-perp/E for the SO flags.  enumerate_flags_sl has already refused
    any variety whose W' candidates exceed the budget.
    """
    n = len(x)
    qact, compl = la.quotient_action(K, x, w)
    for u_dual in cyclic_subspaces(K, la.transpose(qact), d):
        # lift: quotient coordinate t is the standard coordinate compl[t]
        lifted = []
        for vbar in la.nullspace(K, u_dual):
            v = [0] * n
            for c, coord in zip(compl, vbar):
                v[c] = coord
            lifted.append(tuple(v))
        wp = la.echelon_basis(K, tuple(lifted) + w)
        if (mid := la.subquotient_type(K, x, wp, w)) in laps:
            yield wp, mid


# -- strata without materializing the fibres


@dataclass(frozen=True)
class StratumReport:
    la: Partition
    d: int
    strata: tuple  # tuple of (nu, number of W) over every x-cyclic W, sorted
    total_generators: int
    drops: dict = field(compare=False, repr=False)  # nu -> horizontal_strip_drops(nu, d)

    def principal_types(self, lap: Partition) -> tuple[Partition, ...]:
        """Strata whose fibre over W is nonempty for the W'/W type lap
        (lap is a horizontal-strip drop of nu) and whose invariant is a
        single-row drop of the ambient type: the carriers of the
        isotypic pieces in the one- or two-orbit description of the flag
        variety."""
        lap = tuple(lap)
        allowed = single_row_drops(self.la, self.d)
        return tuple(nu for nu, _ in self.strata if lap in self.drops[nu] and nu in allowed)


def sl_stratum_analysis(data: SplitSLData, d: int) -> StratumReport:
    """Level sets of the V/W Jordan type over the W side of the variety.

    Counts, per type nu, the cyclic subspaces W with V/W of type nu;
    the report answers every W'/W type through the horizontal-strip
    rule, computed once per distinct nu.

    For d = 1, W is a line <c> of ker x, which the chain bottoms span,
    and its type depends only on the shortest chain m in c's support:
    the lines with a given m form one orbit of the centralizer units,
    (Q^r_m - Q^r_(m+1)) / (Q - 1) of them with r_m = #{parts >= m}, so
    each orbit is typed once, at the bottom of a chain of length m, and
    the orbit sizes must add up to the number of lines.  For d >= 2
    every W is walked.
    """
    K = data.field
    x = data.nilpotent
    pows = power_images(data.la)
    if d == 1:
        Q = K.q
        counts = Counter()
        for m, bottom in {len(chain): chain[0] for chain in jordan_chains(data.la)}.items():
            r_m, r_above = (sum(h >= k for h in data.la) for k in (m, m + 1))
            c = tuple(int(t == bottom) for t in range(len(x)))
            counts[quotient_type(K, x, (c,), pows)] += (Q**r_m - Q**r_above) // (Q - 1)
        lines = _subspace_count(Q, len(data.la), 0, 1)
        if sum(counts.values()) != lines:
            raise AssertionError(f"{sum(counts.values())} lines in the orbits where {lines} exist")
    else:
        counts = Counter(quotient_type(K, x, w, pows) for w in cyclic_subspaces(K, x, d))
    return StratumReport(
        la=data.la,
        d=d,
        strata=tuple(sorted(counts.items())),
        total_generators=sum(counts.values()),
        drops={nu: horizontal_strip_drops(nu, d) for nu in counts},
    )


# ---------------------------------------------------------------------------
# SO flags


@dataclass(frozen=True)
class SOFlag:
    E: la.Matrix
    Eperp: la.Matrix
    type_mid: Partition  # x on Eperp/E


def _so_flag(data: SplitSOData, E: la.Matrix) -> SOFlag:
    K = data.field
    eperp = la.nullspace(K, la.mat_mul(K, E, data.form))
    return SOFlag(E=E, Eperp=eperp, type_mid=la.subquotient_type(K, data.nilpotent, eperp, E))


def enumerate_flags_so(data: SplitSOData) -> list[SOFlag]:
    """x-stable totally isotropic planes E with x|_E != 0, in echelon
    order, each with the type of x on Eperp/E."""
    K, form = data.field, data.form
    out = []
    for E in cyclic_subspaces(K, data.nilpotent, 2):
        a, b = E
        # the form is symmetric: (a, a) and (a, b) = (b, a) off form.a, then (b, b)
        if any(la.mat_vec(K, E, la.mat_vec(K, form, a))) or la.mat_vec(K, (b,), la.mat_vec(K, form, b))[0]:
            continue
        out.append(_so_flag(data, E))
    return out


# ---------------------------------------------------------------------------
# centralizer units and orbits


@dataclass(frozen=True)
class CentralizerUnits:
    dimension: int  # of the commutant {m : m x = x m}
    units: tuple  # generators of its unit group


def centralizer_units(la_parts: Partition, K: FieldSpec) -> CentralizerUnits:
    """Generators of the unit group of the commutant C of x = jordan_shift(la_parts).

    For chains a, b of lengths h_a, h_b and 1 <= i <= min(h_a, h_b), the
    map E(a, b, i) that sends the top of chain b to position i of chain a
    (and commutes with x) runs over a basis of C.  Those with h_a = h_b
    and i = h_a span the Levi factor, one M_{m_h}(K) per chain length h;
    the rest span the radical J, and so do its powers, since a product of
    basis maps is a basis map or 0.  So C^x = (prod GL_{m_h}(K)) (1 + J)
    is generated by the scaling of each chain by the primitive element g
    of K and by 1 + c E for every other E, with c in the F_p-basis
    1, g, ..., g^(k-1) of K.

    dimension counts the maps E(a, b, i), sum of min(h_a, h_b), which is
    dim C over any field; its reference, the commutant as a nullspace,
    is in tests/oracles_flags.py.  Each generator must commute with x.
    """
    x = jordan_shift(la_parts)
    n = len(x)
    chains = jordan_chains(la_parts)
    powers = [1]
    for _ in range(1, K.k):
        powers.append(K.mul(powers[-1], K.primitive))
    gens = []

    def with_entries(entries, c):
        g = [[int(r == s) for s in range(n)] for r in range(n)]
        for r, s in entries:
            g[r][s] = c
        return la.mat(g)

    for ca in chains:
        for cb in chains:
            for i in range(1, min(len(ca), len(cb)) + 1):
                if ca is cb and i == len(ca):
                    gens.append(with_entries([(r, r) for r in ca], K.primitive))
                else:
                    entries = [(ca[i - 1 - m], cb[len(cb) - 1 - m]) for m in range(i)]
                    gens.extend(with_entries(entries, c) for c in powers)
    for g in gens:
        if la.mat_mul(K, g, x) != la.mat_mul(K, x, g):
            raise AssertionError("a centralizer generator does not commute with x")
    return CentralizerUnits(dimension=sum(min(a, b) for a in la_parts for b in la_parts), units=tuple(gens))


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple  # tuple of (tuple of flags, invariant type)


def orbit_decomposition(flags: Sequence[Flag], units: CentralizerUnits, K: FieldSpec) -> OrbitDecomposition:
    """Orbits of the group generated by units on the flag list, with their
    V/W type.

    Each orbit is the closure of the least remaining flag under the
    generators (the group is finite, so no inverses are needed).  Every
    image is checked to be on the list, and the invariant to be constant
    along each orbit.
    """
    index = {(f.W, f.Wp): f for f in flags}
    remaining = set(index.keys())
    transposes = [la.transpose(g) for g in units.units]
    images: dict = {}  # subspace -> its images under the generators; many flags share a W or a W'

    def images_of(sub: la.Matrix) -> list[la.Matrix]:
        if sub not in images:
            images[sub] = [la.echelon_basis(K, la.mat_mul(K, sub, gt)) for gt in transposes]
        return images[sub]

    orbits = []
    while remaining:
        seed = min(remaining)
        orbit_keys = {seed}
        frontier = [seed]
        while frontier:
            w, wp = frontier.pop()
            for key in zip(images_of(w), images_of(wp)):
                if key not in orbit_keys:
                    if key not in index:
                        raise AssertionError("a centralizer unit maps a flag off the list")
                    orbit_keys.add(key)
                    frontier.append(key)
        types = {index[k].type_mod_W for k in orbit_keys}
        if len(types) != 1:
            raise AssertionError("orbit invariant is not constant")
        orbits.append((tuple(sorted(orbit_keys)), types.pop()))
        remaining -= orbit_keys
    return OrbitDecomposition(orbits=tuple(orbits))


# ---------------------------------------------------------------------------
# F-stability of flags


def is_f_stable(data: SplitSLData, *bases: la.Matrix) -> bool:
    """Whether the q-power map, q = p^qexp, fixes the span of each echelon
    basis over F_{q^2}: it keeps the pivot pattern, so exactly when it
    fixes every entry.  The twisted SL flag Frobenius composes it with a
    duality through the Hermitian form, which carries a flag of
    q-rational subspaces to a flag of q-rational subspaces.  (Split
    orthogonal data lives over F_q itself, so there the answer is always
    true, and cli.cmd_flags prints it as a constant.)"""
    K, qexp = data.field, data.qexp
    return all(K.frobenius(c, qexp) == c for basis in bases for row in basis for c in row)
