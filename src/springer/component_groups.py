"""The component groups of unipotent centralizers on the spin side.

The model is the Clifford-type 2-group generated by the odd-block
products, with its Frobenius automorphism tau.  (On the special linear
side the group is cyclic and its rows have a closed form, which
tables.y0_row_sl writes out directly.)

A character is a dict from group elements, in group element order, to
exact cyclotomic values; an extension to the coset A tau is the same
kind of dict, read at g tau.

The spin characters with xi(eps) = -1 come from monomial matrices: the
generators are Kronecker products of Pauli matrices scaled by 1 or i,
so every word has one nonzero entry per row, a fourth root of unity,
and is stored as a column index and a phase mod 4 per row.  Each such
character keeps its model.  On SpinGamma, tau is conjugation by an even
word, so the intertwiner of a twisted extension is that word's matrix
times a fourth root of unity.  The models depend only on the epsilon
exponents of the generators, so a process builds one checked model set
per epsilon-signature and shares it across partitions and tau-signs;
the group law and irreducibility are verified exactly for each set.

SpinGamma keeps its arithmetic in closed form: it multiplies bitmasks
by popcounts, and its twisted classes are read off without closing
orbits, by one sign parity per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .cyclotomic import Cyc, CycRing
from .partitions import Partition, check_partition, is_in_XN, odd_part_positions

Element = tuple[int, int]  # SpinGamma: (epsilon power, generator bitmask)
Word = tuple[tuple[int, ...], tuple[int, ...]]  # monomial matrix: (columns, phases mod 4)

# ---------------------------------------------------------------------------
# small exact matrices over a cyclotomic ring


def cmat_identity(R: CycRing, n: int) -> tuple:
    return tuple(tuple(R.one() if i == j else R.zero() for j in range(n)) for i in range(n))


def cmat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[0][0].ring.zero()
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def cmat_scale(c: Cyc, a):
    return tuple(tuple(c * x for x in row) for row in a)


def cmat_kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            row = []
            for xa in ra:
                for xb in rb:
                    row.append(xa * xb)
            out.append(tuple(row))
    return tuple(out)


def _pauli(R: CycRing):
    z, o, i = R.zero(), R.one(), R.i()
    sx = ((z, o), (o, z))
    sy = ((z, -i), (i, z))
    sz = ((o, z), (z, -o))
    return sx, sy, sz


def anticommuting_matrices(signs: Sequence[int], R: CycRing) -> list:
    """Matrices X_1..X_r, pairwise anticommuting, X_k^2 = signs[k] * I, for
    r >= 1 signs of +-1 (both callers build them so).

    Jordan-Wigner pairs on floor(r/2) qubits; an odd r gets its last
    matrix as the scaled product of the others (so a single generator is
    a 1 x 1 scalar).  The representation dimension is 2^floor(r/2) for
    even r and 2^((r-1)/2) for odd r.
    """
    r = len(signs)
    sx, sy, sz = _pauli(R)
    nq = r // 2 if r % 2 == 0 else (r - 1) // 2

    if nq == 0:
        # r == 1: a scalar generator
        x = ((R.one(),),) if signs[0] == 1 else ((R.i(),),)
        return [x]

    def site(op, k):
        mats = [sz] * k + [op] + [cmat_identity(R, 2)] * (nq - k - 1)
        out = mats[0]
        for mm in mats[1:]:
            out = cmat_kron(out, mm)
        return out

    base = []
    for k in range(nq):
        base.append(site(sx, k))
        base.append(site(sy, k))
    if r % 2 == 1:
        prod = base[0]
        for mm in base[1:]:
            prod = cmat_mul(prod, mm)
        # prod squares to a scalar +-1; fix to +1 with i if needed
        if cmat_mul(prod, prod)[0][0] == R.one():
            base.append(prod)
        else:
            base.append(cmat_scale(R.i(), prod))
    out = []
    for k, s in enumerate(signs):
        out.append(base[k] if s == 1 else cmat_scale(R.i(), base[k]))
    return out


# ---------------------------------------------------------------------------
# the group


class SpinGamma:
    """Even words in the odd-block generators, with epsilon adjoined.

    Elements are pairs (a, S): epsilon^a times the ascending product of
    the generators in the bitmask S (S of even popcount).  Multiplication
    is the Clifford sign rule; the test suite checks the model against
    the in-algebra construction.
    """

    def __init__(self, la_parts: Partition, tau_signs: Sequence[int]):
        la_parts = check_partition(la_parts)
        if not is_in_XN(la_parts):
            raise ValueError(f"{la_parts} is not in X_N")
        self.la_parts = la_parts
        self.positions = tuple(odd_part_positions(la_parts))
        self.parts = tuple(la_parts[j - 1] for j in self.positions)
        self.r = len(self.parts)
        self.exponents = tuple((h * (h - 1) // 2) % 2 for h in self.parts)
        if len(tau_signs) != self.r or any(s not in (1, -1) for s in tau_signs):
            raise ValueError("tau_signs must be a +-1 vector, one per odd part")
        self.tau_signs = tuple(tau_signs)
        # bits of the generators that tau negates, and of those with x_k^2 = eps
        self.flip_mask = sum(1 << k for k, sign in enumerate(self.tau_signs) if sign == -1)
        self.exp_mask = sum(1 << k for k, e in enumerate(self.exponents) if e)
        self.elements: list[Element] = [
            (a, mask) for mask in range(1 << self.r) if mask.bit_count() % 2 == 0 for a in (0, 1)
        ]

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> Element:
        return (0, 0)

    def epsilon(self) -> Element:
        return (1, 0)

    def generators(self) -> list[Element]:
        """epsilon and the products x_i x_(i+1): x_i x_j is the product of
        those from i to j - 1 times a power of epsilon, so they generate."""
        return [self.epsilon()] + [(0, 3 << i) for i in range(self.r - 1)]

    def _merge_sign(self, s_mask: int, t_mask: int) -> int:
        """Exponent of epsilon produced when sorting x_S x_T: one per
        contraction x_k^2 = eps and one per pair s in S, t in T with s > t."""
        exp = (s_mask & t_mask & self.exp_mask).bit_count()
        while t_mask:
            low = t_mask & -t_mask
            exp += (s_mask >> low.bit_length()).bit_count()
            t_mask ^= low
        return exp % 2

    def mul(self, g: Element, h: Element) -> Element:
        a, s = g
        b, t = h
        return ((a + b + self._merge_sign(s, t)) % 2, s ^ t)

    def inv(self, g: Element) -> Element:
        a, s = g
        return ((a + self._merge_sign(s, s)) % 2, s)

    def tau(self, g: Element) -> Element:
        a, s = g
        return ((a + (s & self.flip_mask).bit_count()) % 2, s)

    def full_word(self) -> Element:
        """The distinguished even word: all generators in increasing order."""
        if self.r % 2:
            raise ValueError("the full word is odd for an odd number of generators")
        return (0, (1 << self.r) - 1)


def build_spin_gamma(la_parts: Partition, tau_signs: Sequence[int]) -> SpinGamma:
    """The component-group model attached to a partition in X_N."""
    return SpinGamma(la_parts, tau_signs)


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class IrrChar:
    label: str
    dim: int
    ring: CycRing
    values: dict  # element -> Cyc, in group element order
    rep: Optional["SpinRepresentation"] = None  # the matrix model of a spin character


def char_inner(G, chi: dict, psi: dict) -> Optional[Fraction]:
    """<chi, psi> = (1/|G|) sum chi(g) conj(psi(g)), or None if that is
    not rational (and so equal to no integer a caller compares it with)."""
    ring = next(iter(chi.values())).ring
    s = ring.zero()
    for g in G.elements:
        s = s + chi[g] * psi[g].conj()
    return (s / G.order).as_rational()


def monomial(mat, ring: CycRing) -> Word:
    """(columns, phases) of a matrix whose rows each hold one nonzero
    entry, a fourth root of unity: row k holds i^phases[k] in column
    columns[k]."""
    phase_of = {ring.root_of_unity(4, k).coeffs: k for k in range(4)}
    columns, phases = [], []
    for row in mat:
        nonzero = [(j, x) for j, x in enumerate(row) if not x.is_zero()]
        if len(nonzero) != 1:
            raise AssertionError(f"not monomial: a row has {len(nonzero)} nonzero entries")
        j, x = nonzero[0]
        if x.ring != ring or x.coeffs not in phase_of:
            raise AssertionError(f"monomial entry {x!r} is not a fourth root of unity")
        columns.append(j)
        phases.append(phase_of[x.coeffs])
    return tuple(columns), tuple(phases)


def word_mul(a: Word, b: Word) -> Word:
    """Product of monomial matrices: row k of ab is row columns_a[k] of b,
    scaled by the entry of a."""
    ca, pa = a
    cb, pb = b
    return tuple(cb[c] for c in ca), tuple((p + pb[c]) % 4 for c, p in zip(ca, pa))


class SpinRepresentation:
    """A xi(eps) = -1 irreducible of SpinGamma by monomial matrices.

    The generator matrices are converted once to (columns, phases); each
    word x_S is then a product of index lookups, and its trace counts the
    phases on the fixed points of the columns.

    G is the group the model was first built for.  spin_irreducibles
    shares the model with every SpinGamma of the same exponents, whatever
    its partition and tau-signs.  That is sound because the model and its
    checks read only G.r and G.exponents (the elements, the product and
    the generators), and tau enters only through the G that
    extend_character is given.
    """

    def __init__(self, G: SpinGamma, ring: CycRing, gen_mats: list):
        self.G = G
        self.ring = ring
        self.gen_mats = gen_mats  # dense, one per generator index
        self.gens = [monomial(m, ring) for m in gen_mats]
        self.dim = len(gen_mats[0]) if gen_mats else 1
        self._cache: dict[Element, Word] = {}

    def word(self, g: Element) -> Word:
        if g in self._cache:
            return self._cache[g]
        a, s = g
        if a:
            columns, phases = self.word((0, s))
            out = columns, tuple((p + 2) % 4 for p in phases)
        elif s:
            # the word x_S is x_i x_{S - i} for its least index i; the
            # shorter words are cached too, so each word costs one product
            low = s & -s
            out = word_mul(self.gens[low.bit_length() - 1], self.word((0, s ^ low)))
        else:
            out = tuple(range(self.dim)), (0,) * self.dim
        self._cache[g] = out
        return out

    def trace(self, g: Element, ring: Optional[CycRing] = None, phase: int = 0) -> Cyc:
        """i^phase tr rho(g), in ring (the model's own by default; its order
        must be a multiple of 4)."""
        ring = ring or self.ring
        counts = [0, 0, 0, 0]
        for k, (c, p) in enumerate(zip(*self.word(g))):
            if c == k:
                counts[(p + phase) % 4] += 1
        re, im = counts[0] - counts[2], counts[1] - counts[3]
        return Cyc(ring, [re * a + im * b for a, b in zip(ring.one().coeffs, ring.i().coeffs)])

    def character(self) -> dict[Element, Cyc]:
        return {g: self.trace(g) for g in self.G.elements}


def _spin_negative_representations(G: SpinGamma, ring: CycRing) -> list[SpinRepresentation]:
    """Matrix models of the xi(eps) = -1 irreducibles.

    Odd generator count: one representation, built from anticommuting
    matrices for the generators themselves.  Even count > 0: two, built
    from the reduced generators z_k = x_k x_last (an odd family), whose
    chirality sign distinguishes the two.  Count 0: the sign character
    of {1, eps}.
    """
    r = G.r
    if r == 0:
        return [SpinRepresentation(G, ring, [])]
    if r % 2 == 1:
        signs = [1 if e == 0 else -1 for e in G.exponents]
        mats = anticommuting_matrices(signs, ring)
        return [SpinRepresentation(G, ring, mats)]
    # even r: the reduced generators z_k = x_k x_last (k < last) form an
    # odd family.  Only even words are evaluated, so it suffices that
    # pairs come out right: with c^2 = (-1)^(e_last + 1), X_k = c z_k and
    # X_last = c^-1 I give X_a X_last = z_a and X_a X_b = c^2 z_a z_b,
    # the images of x_a x_last and x_a x_b.
    last = r - 1
    e_last = G.exponents[last]
    z_signs = [(-1) ** ((1 + G.exponents[k] + e_last) % 2) for k in range(r - 1)]
    c, c_inv = (ring.one(), ring.one()) if e_last % 2 else (ring.i(), -ring.i())
    reps = []
    for variant in (1, -1):
        zmats = anticommuting_matrices(z_signs, ring)
        if variant == -1:
            # flip the chirality generator (the odd-count completion)
            zmats[-1] = cmat_scale(ring.from_int(-1), zmats[-1])
        mats = [cmat_scale(c, z) for z in zmats]
        mats.append(cmat_scale(c_inv, cmat_identity(ring, len(zmats[0]))))
        reps.append(SpinRepresentation(G, ring, mats))
    return reps


# G.exponents -> the checked irreducibles with xi(eps) = -1
_SPIN_MODELS: dict[tuple[int, ...], list[IrrChar]] = {}


def spin_irreducibles(G: SpinGamma) -> list[IrrChar]:
    """The irreducible characters with xi(eps) = -1, each with its model.

    Built and checked once per process for each G.exponents, the only
    data they depend on (see SpinRepresentation).
    """
    if G.exponents in _SPIN_MODELS:
        return list(_SPIN_MODELS[G.exponents])
    ring = CycRing(4)
    models = []
    # checking the group law on (generator, anything) pairs suffices:
    # the property is closed under left multiplication by generators
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
        # deterministic labels from the value on the full even word
        w = G.full_word()
        models.sort(key=lambda m: tuple(str(c) for c in m[1][w].coeffs))
        labels = [f"neg[xI={chi[w]!r}]" for _, chi in models]
    _SPIN_MODELS[G.exponents] = [
        IrrChar(label=label, dim=chi[G.identity()].as_int(), ring=ring, values=chi, rep=rep)
        for label, (rep, chi) in zip(labels, models)
    ]
    return list(_SPIN_MODELS[G.exponents])


# ---------------------------------------------------------------------------
# twisted classes and extensions


def twisted_classes(G: SpinGamma) -> tuple:
    """Orbits of a -> b a tau(b)^{-1} on the coset A tau, as
    (representative, members) pairs in representative order.

    eps acts trivially and x_i x_j sends (e, S) to eps^(v_i + v_j) (e, S),
    where v_k = [k in S] + [tau negates x_k] mod 2.  So (e, S) is alone
    in its class when v is constant, that is when S xor F is empty or
    full for F the negated generators (always so for r < 2), and
    otherwise its class is {(0, S), (1, S)}.
    """
    full = (1 << G.r) - 1
    classes = []
    for e, s in G.elements:
        if (s ^ G.flip_mask) in (0, full):
            classes.append(((e, s), ((e, s),)))
        elif e == 0:
            classes.append(((0, s), ((0, s), (1, s))))
    return tuple(sorted(classes))


def is_tau_stable(G: SpinGamma, chi: IrrChar) -> bool:
    return all(chi.values[G.tau(g)] == v for g, v in chi.values.items())


@dataclass(frozen=True)
class ExtendedChar:
    label: str
    coset_values: dict  # element g -> value at g*tau, in group element order


def extend_character(chi: IrrChar, G: SpinGamma) -> list[ExtendedChar]:
    """Extensions of a tau-stable character to the coset A tau.

    A linear character, or any character when tau is trivial, gets the
    trivial extension (value at g tau equals chi(g)).  A character of
    higher dimension with nontrivial tau has two, through T and -T, where
    T rho(g) T^{-1} = rho(tau g) and T^2 = 1; it is a spin character, so
    it carries its model chi.rep.  There tau is conjugation by the even word
    w = x_F, F the generators that tau negates (or the complement when F
    is odd), so T = i^s rho(w): s is u or u + 1 for u the phase of the
    column-0 entry of rho(w^{-1}), with the parity of the epsilon power
    of w^2.  That makes T^2 = 1 and gives T the phase of the average of
    rho(tau g) E_00 rho(g)^{-1} over A.  The value at g tau is
    +-i^s tr rho(g w).  The two are labelled plus and minus and ordered by
    their values; selecting between them needs restriction-side data,
    which this module does not consume.
    """
    if not is_tau_stable(G, chi):
        raise ValueError("character is not tau-stable")
    trivial_tau = all(G.tau(g) == g for g in G.elements)
    if chi.dim == 1 or trivial_tau:
        return [ExtendedChar(label="trivial", coset_values=chi.values)]
    rep = chi.rep
    even = [f for f in (G.flip_mask, G.flip_mask ^ ((1 << G.r) - 1)) if f.bit_count() % 2 == 0]
    if not even:
        raise AssertionError("tau is not conjugation by an even word, so rho is not tau-stable")
    w = (0, even[0])
    columns, phases = rep.word(G.inv(w))
    u = phases[columns.index(0)]
    s = u + (u + G.mul(w, w)[0]) % 2
    columns, phases = rep.word(w)
    T = columns, tuple((p + s) % 4 for p in phases)
    if word_mul(T, T) != rep.word(G.identity()):
        raise AssertionError("the word intertwiner does not square to 1")
    if any(word_mul(T, rep.word(x)) != word_mul(rep.word(G.tau(x)), T) for x in G.generators()):
        raise AssertionError("the word intertwiner does not conjugate rho to rho after tau")
    ring = CycRing(lcm(8, chi.ring.n))
    out = [
        ExtendedChar(label=label, coset_values={g: rep.trace(G.mul(g, w), ring, s + shift) for g in G.elements})
        for label, shift in (("plus", 0), ("minus", 2))
    ]
    # deterministic order: by serialized value vector
    out.sort(key=lambda e: tuple(tuple(str(c) for c in v.coeffs) for v in e.coset_values.values()))
    return out
