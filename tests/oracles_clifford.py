"""The in-algebra Clifford model: the reference for the spin side.

C(V) is taken for a symmetric bilinear form on an N-dimensional space.
Elements are sparse maps from basis monomials e_S (factors in increasing
index order) to coefficients in F_{q^2}; the defining relation
v v' + v' v = 2 (v, v') rewrites any product to that normal order.

Coefficients live in the quadratic extension of the base field so that
a square root of -1 and square roots of base-field scalars are always
available.  The Frobenius twist fixes the chosen basis of V and raises
coefficients to the q-th power, which is how sign behaviour of the
center and of the block generators is detected.

The package computes none of this at run time: its component-group
model (`component_groups.SpinGamma`) and its F-signs, the closed form
`tables.spin_tau_signs`, are checked here against two references.  The
first orthonormalizes each odd block over F_{q^2} and reads each sign as
the product of the F-eigenvalues of that basis (`spin_frobenius_signs`).
The second multiplies the block generators out inside C(V)
(`gamma_generators`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional, Sequence

from oracles_flags import gram, subfield_elements

from springer import flinalg as la
from springer.ffield import FieldSpec, make_field
from springer.partitions import Partition, check_partition, delta_index, is_in_XN
from springer.split import SplitSOData, split_so_form

Word = tuple[int, ...]  # strictly increasing 0-based basis indices

# algebra dimension 2^N; exhaustive operations stay below this
MAX_N = 13


# ---------------------------------------------------------------------------
# the block layout of the split orthogonal space


@dataclass(frozen=True)
class SOBlock:
    """One constituent of the split orthogonal space for a partition."""

    kind: str  # "odd" or "even_pair"
    positions: tuple[int, ...]  # 1-based part indices in the partition
    size: int  # dimension of the block (h or 2h)
    start: int  # first global 0-based coordinate
    delta: Optional[int]  # the exponent index for odd blocks


def so_blocks(la_parts: Partition) -> list[SOBlock]:
    """The coordinate layout: each odd part is a block of its own, each
    pair of equal even parts one block holding both chains."""
    la_parts = check_partition(la_parts)
    blocks = []
    start = 0
    j = 1
    k = len(la_parts)
    while j <= k:
        h = la_parts[j - 1]
        if h % 2 == 1:
            blocks.append(SOBlock("odd", (j,), h, start, delta_index(la_parts, j)))
            start += h
            j += 1
        else:
            if j + 1 > k or la_parts[j] != h:
                raise ValueError(f"even part {h} at index {j} has no partner")
            blocks.append(SOBlock("even_pair", (j, j + 1), 2 * h, start, None))
            start += 2 * h
            j += 2
    return blocks


def split_so_form_by_blocks(la_parts: Partition, K: FieldSpec) -> la.Matrix:
    """The split symmetric form assembled block by block over so_blocks:
    (e_{h+1-a}, e_a) = (-1)^(delta - a) on an odd block, and
    (e^j_{h+1-a}, e^{j+1}_a) = (-1)^(a-1) both ways on an even pair."""
    N = sum(la_parts)
    rows = [[0] * N for _ in range(N)]
    for b in so_blocks(la_parts):
        if b.kind == "odd":
            h = b.size
            for a in range(1, h + 1):
                rows[b.start + (h - a)][b.start + (a - 1)] = K.scalar((-1) ** ((b.delta - a) % 2))
        else:
            h = b.size // 2
            for a in range(1, h + 1):
                val = K.scalar((-1) ** ((a - 1) % 2))
                r = b.start + (h - a)  # e^j_{h-a+1}
                cidx = b.start + h + (a - 1)  # e^{j+1}_a
                rows[r][cidx] = val
                rows[cidx][r] = val
    return la.mat(rows)


def least_nonsquare_in_subfield(K: FieldSpec, d: int) -> int:
    """Least encoded element of F_{p^d} inside K that is not a square there."""
    e = (K.p**d - 1) // 2
    for a in subfield_elements(K, d):
        if a and K.pow(a, e) != 1:
            return a
    raise ValueError("no non-square in subfield (p = 2?)")


def sqrt(K: FieldSpec, a: int) -> Optional[int]:
    """A square root of a in K, or None.  Brute scan; fields are small."""
    if a == 0:
        return 0
    for x in range(1, K.q):
        if K.mul(x, x) == a:
            return x
    return None


def zeta4(K: FieldSpec) -> Optional[int]:
    """Least element of K with square -1, if -1 is a square."""
    return sqrt(K, K.neg(1))


@dataclass(frozen=True)
class QuadSpace:
    """An N-dimensional quadratic space with a declared Frobenius twist.

    field is F_{q^2} (encoded ints), qexp the exponent with p^qexp = q.
    The basis is fixed by F; the twist only enters through form entries
    such as the non-square scalar of the non-split form.
    """

    N: int
    field: FieldSpec
    qexp: int
    form: la.Matrix
    twist: str = "custom"

    def __post_init__(self):
        if self.N < 1 or self.N > MAX_N:
            raise ValueError(f"dimension {self.N} outside supported range 1..{MAX_N}")
        K = self.field
        if la.transpose(self.form) != self.form:
            raise ValueError("form is not symmetric")
        if la.det(K, self.form) == 0:
            raise ValueError("form is degenerate")
        for row in self.form:
            for c in row:
                if K.frobenius(c, self.qexp) != c:
                    raise ValueError("form entries must be fixed by the q-power map")

    def conj(self, c: int) -> int:
        """Coefficient Frobenius x -> x^q."""
        return self.field.frobenius(c, self.qexp)


def standard_space(N: int, q_p: int, q_k: int = 1, twist: str = "split") -> QuadSpace:
    """The split or non-split quadratic space of dimension N over F_q.

    Split: the identity form.  Non-split: identity on the first N - 1
    coordinates and delta x_N^2 on the last, delta the least non-square
    of F_q.  Coefficients live in F_{q^2}.
    """
    K = make_field(q_p, 2 * q_k)
    one = 1
    rows = [[one if i == j else 0 for j in range(N)] for i in range(N)]
    if twist == "nonsplit":
        if q_p == 2:
            raise ValueError("non-split form needs odd q")
        rows[N - 1][N - 1] = least_nonsquare_in_subfield(K, q_k)
    elif twist != "split":
        raise ValueError(f"unknown twist {twist!r}")
    return QuadSpace(N=N, field=K, qexp=q_k, form=la.mat(rows), twist=twist)


class CliffordElement:
    """A sparse element of C(V); immutable in practice."""

    __slots__ = ("space", "terms")

    def __init__(self, space: QuadSpace, terms: dict[Word, int]):
        self.space = space
        self.terms = {w: c for w, c in terms.items() if c}

    # -- constructors

    @staticmethod
    def scalar(space: QuadSpace, c: int) -> "CliffordElement":
        """Scalar element; c is an encoded field element."""
        return CliffordElement(space, {(): c})

    @staticmethod
    def unit(space: QuadSpace) -> "CliffordElement":
        return CliffordElement.scalar(space, 1)

    @staticmethod
    def epsilon(space: QuadSpace) -> "CliffordElement":
        """-1 times the unit; the kernel generator of the double cover."""
        return CliffordElement.scalar(space, space.field.neg(1))

    @staticmethod
    def basis_vector(space: QuadSpace, i: int) -> "CliffordElement":
        return CliffordElement(space, {(i,): 1})

    @staticmethod
    def vector(space: QuadSpace, coords: Sequence[int]) -> "CliffordElement":
        return CliffordElement(space, {(i,): c for i, c in enumerate(coords) if c})

    # -- ring structure

    def _check(self, other: "CliffordElement") -> None:
        if self.space is not other.space and self.space != other.space:
            raise ValueError("elements live in different quadratic spaces")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        K = self.space.field
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = K.add(out.get(w, 0), c)
        return CliffordElement(self.space, out)

    def __neg__(self) -> "CliffordElement":
        K = self.space.field
        return CliffordElement(self.space, {w: K.neg(c) for w, c in self.terms.items()})

    def scale(self, c: int) -> "CliffordElement":
        K = self.space.field
        return CliffordElement(self.space, {w: K.mul(c, x) for w, x in self.terms.items()})

    def times_basis_vector(self, j: int) -> "CliffordElement":
        out: dict[Word, int] = {}
        K = self.space.field
        for w, c in self.terms.items():
            for w2, c2 in _word_times_vector(self.space, w, j).items():
                v = K.mul(c, c2)
                if v:
                    out[w2] = K.add(out.get(w2, 0), v)
        return CliffordElement(self.space, out)

    def times_vector(self, coords: Sequence[int]) -> "CliffordElement":
        acc = CliffordElement(self.space, {})
        for j, cj in enumerate(coords):
            if cj:
                acc = acc + self.times_basis_vector(j).scale(cj)
        return acc

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        K = self.space.field
        out = CliffordElement(self.space, {})
        for wb, cb in sorted(other.terms.items()):
            cur = self.scale(cb)
            for j in wb:
                cur = cur.times_basis_vector(j)
            out = out + cur
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    # -- structure maps

    def frobenius(self) -> "CliffordElement":
        """Apply F: fixes basis monomials, q-powers the coefficients."""
        sp = self.space
        return CliffordElement(sp, {w: sp.conj(c) for w, c in self.terms.items()})

    def reversal(self) -> "CliffordElement":
        """The anti-automorphism reversing each monomial."""
        K = self.space.field
        out = {}
        for w, c in self.terms.items():
            k = len(w)
            if (k * (k - 1) // 2) % 2:
                c = K.neg(c)
            out[w] = c
        return CliffordElement(self.space, out)

    def is_scalar(self) -> bool:
        return all(w == () for w in self.terms)

    def scalar_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_scalar():
            raise ValueError("element is not a scalar")
        return self.terms[()]

    def inverse(self) -> "CliffordElement":
        """Inverse, available when x rev(x) is a nonzero scalar.

        That covers every element the construction manipulates (products
        of anisotropic vectors, the center, and their scalar multiples).
        """
        r = self.reversal()
        y = self * r
        if not y.is_scalar() or y.scalar_value() == 0:
            raise ValueError("element has no reversal-norm inverse")
        return r.scale(self.space.field.inv(y.scalar_value()))

    def vector_part(self) -> Optional[tuple[int, ...]]:
        """Coordinates if the element is purely degree one, else None."""
        coords = [0] * self.space.N
        for w, c in self.terms.items():
            if len(w) != 1:
                return None
            coords[w[0]] = c
        return tuple(coords)

    def serialize(self) -> list[list]:
        """List of (bitmask, coefficient vector) pairs, bitmask little-endian."""
        out = []
        for w, c in sorted(self.terms.items()):
            mask = 0
            for i in w:
                mask |= 1 << i
            out.append([mask, self.space.field.serialize_element(c)])
        return out


def _word_times_vector(space: QuadSpace, word: Word, j: int) -> dict[Word, int]:
    """Normal-ordered expansion of (e_word) e_j."""
    if not word:
        return {(j,): 1}
    K = space.field
    s = word[-1]
    u = word[:-1]
    if s < j:
        return {word + (j,): 1}
    if s == j:
        f = space.form[j][j]
        return {u: f} if f else {}
    # s > j: e_s e_j = 2 (e_s, e_j) - e_j e_s
    out: dict[Word, int] = {}
    f = space.form[s][j]
    if f:
        out[u] = K.add(f, f)
    for w, c in _word_times_vector(space, u, j).items():
        w2 = w + (s,)
        out[w2] = K.sub(out.get(w2, 0), c)
    return {w: c for w, c in out.items() if c}


def product_of_vectors(space: QuadSpace, vectors: Iterable[Sequence[int]]) -> CliffordElement:
    acc = CliffordElement.unit(space)
    for v in vectors:
        acc = acc.times_vector(v)
    return acc


# ---------------------------------------------------------------------------
# beta: conjugation action on V, landing in SO(V)


def beta_matrix(x: CliffordElement, space: QuadSpace) -> la.Matrix:
    """Matrix of v -> x v x^{-1} on V; checked to lie in SO(V)."""
    xinv = x.inverse()
    K = space.field
    cols = []
    for j in range(space.N):
        img = (x * CliffordElement.basis_vector(space, j)) * xinv
        coords = img.vector_part()
        if coords is None:
            raise ValueError("element does not normalize V")
        cols.append(coords)
    m = la.transpose(la.mat(cols))
    if la.det(K, m) != 1:
        raise ValueError("conjugation matrix has determinant != 1")
    if la.mat_mul(K, la.mat_mul(K, la.transpose(m), space.form), m) != space.form:
        raise ValueError("conjugation matrix does not preserve the form")
    return m


# ---------------------------------------------------------------------------
# orthonormal bases and the center


def orthonormal_basis(space: QuadSpace) -> la.Matrix:
    """Rows v_i with (v_i, v_j) = delta_ij, by symmetric Gram-Schmidt.

    Needs odd characteristic.  Raises if some required square root does
    not exist in the coefficient field (pathological small fields).
    """
    K = space.field
    if K.p == 2:
        raise ValueError("no orthonormal basis in characteristic 2")
    n = space.N
    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    out = []

    def pairing(u, v):
        return gram(K, space.form, u, v)

    while basis:
        w = None
        for cand in basis:
            if pairing(cand, cand):
                w = cand
                break
        if w is None:
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    cand = tuple(K.add(a, b) for a, b in zip(basis[i], basis[j]))
                    if pairing(cand, cand):
                        w = cand
                        break
                if w is not None:
                    break
        if w is None:
            raise ValueError("degenerate restriction during orthonormalization")
        s = sqrt(K, pairing(w, w))
        if s is None:
            raise ValueError("no square root in coefficient field for orthonormalization")
        v = tuple(K.mul(c, K.inv(s)) for c in w)
        out.append(v)
        newbasis = []
        for b in basis:
            coef = pairing(b, v)
            nb = tuple(K.sub(x, K.mul(coef, y)) for x, y in zip(b, v))
            if any(nb):
                newbasis.append(nb)
        basis = [b for b in la.echelon_basis(K, newbasis)]
    return la.mat(out)


@dataclass(frozen=True)
class CenterData:
    epsilon: CliffordElement
    omega: Optional[CliffordElement]
    group_type: str


def center(space: QuadSpace) -> CenterData:
    """Generators of the center of the spin cover.

    epsilon always; for even N also omega, the product of an orthonormal
    basis, with omega^2 = epsilon^{N/2} machine-checked.
    """
    if space.N < 3:
        raise ValueError("center classification needs N >= 3")
    eps = CliffordElement.epsilon(space)
    if space.N % 2 == 1:
        return CenterData(epsilon=eps, omega=None, group_type="Z/2")
    onb = orthonormal_basis(space)
    omega = product_of_vectors(space, onb)
    expected = CliffordElement.scalar(space, space.field.pow(space.field.neg(1), space.N // 2))
    if omega * omega != expected:
        raise AssertionError("omega^2 != epsilon^{N/2}")
    gtype = "Z/4" if space.N % 4 == 2 else "Z/2xZ/2"
    return CenterData(epsilon=eps, omega=omega, group_type=gtype)


@dataclass(frozen=True)
class CenterFrobeniusReport:
    N: int
    twist: str
    eps_fixed: bool
    omega_sign: Optional[int]  # +1 fixed, -1 negated, None for N odd

    @property
    def trivial_on_center(self) -> Optional[bool]:
        if self.omega_sign is None:
            return self.eps_fixed
        return self.eps_fixed and self.omega_sign == 1


def frobenius_on_center(space: QuadSpace) -> CenterFrobeniusReport:
    """How F acts on the center, computed on the twist-adapted basis.

    The orthonormal basis is the deterministic Gram-Schmidt one, which
    for the standard split and non-split spaces is the adapted basis
    (identity vectors, with the last one rescaled by a square root of
    the non-square in the non-split case).
    """
    if space.twist not in ("split", "nonsplit"):
        raise ValueError("space carries no declared split/non-split twist")
    eps = CliffordElement.epsilon(space)
    eps_fixed = eps.frobenius() == eps
    if space.N % 2 == 1:
        return CenterFrobeniusReport(space.N, space.twist, eps_fixed, None)
    omega = center(space).omega
    fo = omega.frobenius()
    if fo == omega:
        sign = 1
    elif fo == -omega:
        sign = -1
    else:
        raise AssertionError("F(omega) is not +-omega")
    return CenterFrobeniusReport(space.N, space.twist, eps_fixed, sign)


# ---------------------------------------------------------------------------
# the F-signs from an orthonormal basis of each odd block


@dataclass(frozen=True)
class OrthonormalBlock:
    h: int
    c: int
    vectors: la.Matrix  # rows: v_1..v_h in block coordinates over F_{q^2}
    frob_signs: tuple[int, ...]  # +1 or -1 per vector, from actual F application


def block_form(h: int, c: int, K: FieldSpec) -> la.Matrix:
    """The form (e_a, e_{h-a+1}) = (-1)^{c+a} on an h-dim block (1-based)."""
    rows = [[0] * h for _ in range(h)]
    for a in range(1, h + 1):
        rows[a - 1][h - a] = K.scalar((-1) ** ((c + a) % 2))
    return la.mat(rows)


def orthonormalize_block(h: int, c: int, field: FieldSpec, qexp: int) -> OrthonormalBlock:
    """Orthonormal basis of the block with form (e_a, e_{h-a+1}) = (-1)^{c+a}.

    h must be odd and q odd; the field must contain a square root of -1.
    Orthonormality of the output and the F-eigenvector property of each
    vector are machine-checked, not assumed.
    """
    if h % 2 == 0:
        raise ValueError("block size must be odd")
    K = field
    if K.p == 2:
        raise ValueError("q must be odd")
    zeta = zeta4(K)
    if zeta is None:
        raise ValueError("field has no square root of -1")
    m = (h - 1) // 2
    gamma = K.scalar((-1) ** ((c + 1) % 2))
    gh = K.mul(gamma, K.inv(K.scalar(2)))

    def e(a: int) -> list[int]:
        v = [0] * h
        v[a - 1] = 1
        return v

    vp: list[Optional[tuple[int, ...]]] = [None] * (h + 1)  # 1-based
    for a in range(1, m + 1):
        sign = K.scalar((-1) ** ((a + 1) % 2))
        coef = K.mul(sign, gh)
        top = e(a)
        top[h - a] = coef
        vp[a] = tuple(top)
        bot = e(a)
        bot[h - a] = K.neg(coef)
        vp[h + 1 - a] = tuple(bot)
    vp[m + 1] = tuple(e(m + 1))

    v: list[Optional[tuple[int, ...]]] = [None] * (h + 1)
    for a in range(1, m + 1):
        v[a] = vp[a]
        v[h + 1 - a] = tuple(K.mul(zeta, x) for x in vp[h + 1 - a])
    if (m + 1 + c) % 2 == 0:
        v[m + 1] = vp[m + 1]
    else:
        v[m + 1] = tuple(K.mul(zeta, x) for x in vp[m + 1])

    vecs = la.mat(v[1:])
    form = block_form(h, c, K)
    for i in range(h):
        for j in range(h):
            got = gram(K, form, vecs[i], vecs[j])
            if got != (1 if i == j else 0):
                raise AssertionError(f"orthonormality failed at ({i + 1}, {j + 1})")
    signs = []
    for row in vecs:
        frow = tuple(K.frobenius(x, qexp) for x in row)
        if frow == row:
            signs.append(1)
        elif frow == tuple(K.neg(x) for x in row):
            signs.append(-1)
        else:
            raise AssertionError("basis vector is not an F-eigenvector")
    return OrthonormalBlock(h=h, c=c, vectors=vecs, frob_signs=tuple(signs))


def spin_frobenius_signs(data: SplitSOData) -> tuple[int, ...]:
    """F(x_j) = sign * x_j for the generator x_j = v^j_1 ... v^j_h of each
    odd block, in position order.

    Each sign is the product of the F-eigenvalues of the orthonormal
    basis of the block over F_{q^2}, computed by orthonormalize_block;
    only partitions in X_N carry the generators.
    """
    if not is_in_XN(data.la):
        raise ValueError(f"{data.la} is not in X_N")
    K2 = make_field(data.field.p, 2 * data.qexp)
    return tuple(
        prod(orthonormalize_block(b.size, b.delta, K2, data.qexp).frob_signs)
        for b in so_blocks(data.la)
        if b.kind == "odd"
    )


# ---------------------------------------------------------------------------
# the section 3.1 space and the Gamma generators


def split_so_quadspace(la_parts: Partition, q_p: int, q_k: int = 1) -> tuple[QuadSpace, list[SOBlock]]:
    """Quadratic space carrying the split form of the partition, over F_{q^2}."""
    K = make_field(q_p, 2 * q_k)
    form, blocks = split_so_form(la_parts, K), so_blocks(la_parts)
    sp = QuadSpace(N=sum(la_parts), field=K, qexp=q_k, form=form, twist="split")
    return sp, blocks


@dataclass(frozen=True)
class GammaGenerator:
    position: int  # 1-based index of the odd part in the partition
    part: int
    element: CliffordElement
    frob_sign: int  # F(x_j) = sign * x_j, computed
    square_exponent: int  # x_j^2 = epsilon^{exponent}, verified


@dataclass(frozen=True)
class GammaGenerators:
    la_parts: Partition
    space: QuadSpace
    generators: tuple[GammaGenerator, ...]


def gamma_generators(la_parts: Partition, q_p: int, q_k: int = 1) -> GammaGenerators:
    """The block generators x_j = v^j_1 ... v^j_h for the odd parts.

    Each generator is built inside C(V) from the orthonormalized block
    basis.  The relations x_j^2 = epsilon^{h(h-1)/2} and
    x_i x_j = epsilon x_j x_i, and the F-eigenvalue of each x_j, are
    verified by exact multiplication during construction.
    """
    la_parts = check_partition(la_parts)
    if not is_in_XN(la_parts):
        raise ValueError(f"{la_parts} is not in X_N")
    space, blocks = split_so_quadspace(la_parts, q_p, q_k)
    K = space.field
    eps = CliffordElement.epsilon(space)
    gens = []
    for b in blocks:
        if b.kind != "odd":
            continue
        h = b.size
        onb = orthonormalize_block(h, b.delta, K, q_k)
        vecs = []
        for row in onb.vectors:
            full = [0] * space.N
            for i, cval in enumerate(row):
                full[b.start + i] = cval
            vecs.append(tuple(full))
        x = product_of_vectors(space, vecs)
        fx = x.frobenius()
        if fx == x:
            sign = 1
        elif fx == -x:
            sign = -1
        else:
            raise AssertionError("F(x_j) is not +-x_j")
        e_exp = (h * (h - 1) // 2) % 2
        sq = x * x
        want = eps if e_exp else CliffordElement.unit(space)
        if sq != want:
            raise AssertionError(f"x_j^2 != epsilon^{h * (h - 1) // 2} for part {h}")
        gens.append(GammaGenerator(b.positions[0], h, x, sign, e_exp))
    for a in range(len(gens)):
        for b2 in range(a + 1, len(gens)):
            xa, xb = gens[a].element, gens[b2].element
            if xa * xb != (eps * (xb * xa)):
                raise AssertionError("generators fail the anticommutation relation")
    return GammaGenerators(la_parts=la_parts, space=space, generators=tuple(gens))
