"""Explicit split elements: orthogonal nilpotents and twisted SL unipotents.

One Jordan basis e^j_a (chain j, position a) serves both sides and the
centralizer units in `varieties`: `jordan_chains` places the chains and
`jordan_shift` is the nilpotent e^j_a -> e^j_{a-1} of both builders.

Orthogonal side: the symmetric form is filled straight over
`jordan_chains`, each odd chain pairing with itself and each pair of
equal even chains with each other, at the Lie-algebra level (no
exponential is taken, so small characteristic needs no special cases).
The Frobenius signs on the odd-block generators of the component group
are the closed form tables.spin_tau_signs; the orthonormal-basis
derivation they come from is the reference in tests/oracles_clifford.py.

Special linear side: a Jordan-basis unipotent u = 1 + x made rational
for the twisted (unitary-type) Frobenius by a Hermitian sesquilinear
form A, one block per chain, written with no linear solve.  On the
antidiagonal levels i + j of a block, invariance u^T A conj(u) = A says
that neighbouring entries sum to minus the entry beside both on the
level below, so each level past the antidiagonal has one degree of
freedom.  Hermitian symmetry mirrors a level onto itself, so that choice
is made at its centre, and the walk outward from a Hermitian centre
stays Hermitian (build_sl_split derives the walk).  Both builders take
the prime power q and factor it (ffield.prime_power) before any other
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import flinalg as la
from .ffield import FieldSpec, make_field, prime_power
from .partitions import Partition, check_partition, delta_index, is_in_XN_tilde


# ---------------------------------------------------------------------------
# the Jordan basis


def jordan_chains(la_parts: Partition) -> list[range]:
    """Coordinates of each part's chain e^j_1, ..., e^j_h, bottom first,
    parts in order: chain j takes the next la_j coordinates."""
    return [range(s, s + h) for s, h in zip(accumulate(la_parts, initial=0), la_parts)]


def jordan_shift(la_parts: Partition) -> la.Matrix:
    """The shift x e^j_a = e^j_{a-1} (and x e^j_1 = 0) along every chain."""
    n = sum(la_parts)
    rows = [[0] * n for _ in range(n)]
    for chain in jordan_chains(la_parts):
        for a in chain[1:]:
            rows[a - 1][a] = 1
    return la.mat(rows)


# ---------------------------------------------------------------------------
# orthogonal side: the form


def split_so_form(la_parts: Partition, K: FieldSpec) -> la.Matrix:
    """The assembled symmetric form of the split orthogonal data, over the
    chains of jordan_chains.  On the chain of an odd part h at position j,
    (e^j_{h+1-a}, e^j_a) = (-1)^(delta_j - a); an even part h at position j
    pairs with the equal part after it, (e^j_{h+1-a}, e^{j+1}_a) =
    (-1)^(a-1) both ways.  la_parts must lie in X~_N."""
    N = sum(la_parts)
    rows = [[0] * N for _ in range(N)]
    chains = enumerate(jordan_chains(la_parts), 1)
    for j, chain in chains:
        h = len(chain)
        if h % 2:
            delta = delta_index(la_parts, j)
            for a in range(1, h + 1):
                rows[chain[h - a]][chain[a - 1]] = K.scalar((-1) ** ((delta - a) % 2))
        else:
            _, partner = next(chains)
            for a in range(1, h + 1):
                r, c = chain[h - a], partner[a - 1]
                rows[r][c] = rows[c][r] = K.scalar((-1) ** ((a - 1) % 2))
    return la.mat(rows)


# ---------------------------------------------------------------------------
# orthogonal side: split data


@dataclass(frozen=True)
class SplitSOData:
    la: Partition
    field: FieldSpec
    form: la.Matrix
    nilpotent: la.Matrix


def build_so_split(la_parts: Partition, q: int) -> SplitSOData:
    """Split orthogonal data (V, f, x) over F_q, q odd, for la in X~_N.

    Invariants machine-checked: f symmetric and non-degenerate, x
    skew-adjoint for f, and the Jordan type of x equal to the partition.
    """
    p, k = prime_power(q)
    la_parts = check_partition(la_parts)
    if not is_in_XN_tilde(la_parts):
        raise ValueError(f"{la_parts} has an even part with odd multiplicity")
    if p == 2:
        raise ValueError("orthogonal split data needs odd q")
    K = make_field(p, k)
    form = split_so_form(la_parts, K)
    x = jordan_shift(la_parts)
    if la.transpose(form) != form or la.det(K, form) == 0:
        raise AssertionError("assembled form is not symmetric non-degenerate")
    skew = la.mat_add(K, la.mat_mul(K, la.transpose(x), form), la.mat_mul(K, form, x))
    if any(v for row in skew for v in row):
        raise AssertionError("x is not skew-adjoint for the form")
    if la.jordan_partition(K, x) != la_parts:
        raise AssertionError("x is not of the Jordan type of the partition")
    return SplitSOData(la=la_parts, field=K, form=form, nilpotent=x)


# ---------------------------------------------------------------------------
# special linear side


@dataclass(frozen=True)
class SplitSLData:
    la: Partition
    field: FieldSpec  # F_{q^2}
    qexp: int  # q = p^qexp
    form: la.Matrix  # Hermitian matrix A over F_{q^2}
    unipotent: la.Matrix
    nilpotent: la.Matrix  # u - 1

    def conj(self, c: int) -> int:
        return self.field.frobenius(c, self.qexp)

    def conj_mat(self, m: la.Matrix) -> la.Matrix:
        return tuple(tuple(self.conj(c) for c in row) for row in m)


@lru_cache(maxsize=None)
def _hermitian_block(K2: FieldSpec, qexp: int, h: int) -> la.Matrix:
    """One chain's block of the form, walked as build_sl_split derives
    it, in 0-based indices: level h - 1 is the antidiagonal, r[a] is the
    sum of the neighbours (a, level - a), (a + 1, level - 1 - a), and the
    centre is in row m."""
    if K2.p == 2:
        beta = next(a for a in K2.elements() if K2.frobenius(a, qexp) != a)
        c_h, gamma = 1, K2.mul(beta, K2.inv(K2.add(beta, K2.frobenius(beta, qexp))))
    else:
        c_h = 1 if h % 2 else next(a for a in K2.elements() if a and K2.frobenius(a, qexp) == K2.neg(a))
        gamma = K2.inv(K2.scalar(2))
    B = [[0] * h for _ in range(h)]
    for j in range(h):
        B[j][h - 1 - j] = K2.neg(c_h) if j % 2 else c_h
    for level in range(h, 2 * h - 1):
        r = {a: K2.neg(B[a][level - 1 - a]) for a in range(level - h + 1, h - 1)}
        m = level // 2
        if level % 2:
            B[m + 1][m] = K2.mul(r[m], gamma)
            B[m][m + 1] = K2.sub(r[m], B[m + 1][m])
        for a in range(m - 1, level - h, -1):
            B[a][level - a] = K2.sub(r[a], B[a + 1][level - 1 - a])
        for a in range((level + 1) // 2, h - 1):
            B[a + 1][level - 1 - a] = K2.sub(r[a], B[a][level - a])
    return la.mat(B)


def build_sl_split(la_parts: Partition, q: int) -> SplitSLData:
    """Split unipotent of Jordan type la for twisted SL_n(q), over F_{q^2}.

    u = 1 + x for the Jordan shift x; A has one h x h block per chain.
    In a block (1-based, entries outside it 0), u^T A conj(u) = A reads
    A[i-1][j] + A[i][j-1] + A[i-1][j-1] = 0: on each level L = i + j,
    neighbouring entries sum to r_a = -A[a][L-1-a] from the level below.
    So the levels L <= h vanish, the antidiagonal alternates, A[j][h+1-j]
    = (-1)^{j+1} c_h, and each later level has one degree of freedom (its
    entries alternately gain t and -t).  A[j][i] = conj(A[i][j]) mirrors
    each level onto itself and gives mirrored neighbour pairs conjugate
    sums, so the choice sits at the centre, which the mirror fixes, and
    a Hermitian centre walks out to a Hermitian level.  Hermitian needs
    conj(c_h) = (-1)^{h+1} c_h: c_h = 1 for odd h or p = 2, else the least
    nonzero c_h that conjugation negates.  On a later even level the
    diagonal entry must lie in F_q and is 0.  On a later odd level L = 2m + 1 the
    central pair sums to r = -A[m][m] in F_q; the lower entry is r gamma
    and the upper r - r gamma, with gamma + conj(gamma) = 1: 1/2 for odd
    p, beta / (beta + beta^q) for p = 2, beta the least element outside
    F_q.  The diagonal is 0 past the antidiagonal, so r != 0 only right
    after it, for odd h.  These choices reproduce the solve over F_q with
    free variables 0 that tests/oracles_flags.py keeps as the reference.

    The returned data has, machine-checked: A non-degenerate and
    Hermitian, u of Jordan type la, u preserving the sesquilinear form,
    which is the statement that u is fixed by the twisted Frobenius
    built from A.
    """
    p, k = prime_power(q)
    la_parts = check_partition(la_parts)
    n = sum(la_parts)
    K2 = make_field(p, 2 * k)

    x = jordan_shift(la_parts)
    u = la.mat_add(K2, x, la.identity(K2, n))
    A = [[0] * n for _ in range(n)]
    for chain in jordan_chains(la_parts):
        block = _hermitian_block(K2, k, len(chain))
        for i, row in zip(chain, block):
            for j, c in zip(chain, row):
                A[i][j] = c
    A = la.mat(A)

    data = SplitSLData(la=la_parts, field=K2, qexp=k, form=A, unipotent=u, nilpotent=x)
    _verify_sl_split(data)
    return data


def _verify_sl_split(data: SplitSLData) -> None:
    """A non-degenerate Hermitian, u preserving it, x of type la.  For
    F(g) = conj(A)^{-1} (conj(g)^T)^{-1} conj(A), F(u) = u is conj(u)^T
    conj(A) u = conj(A), the conjugate of u^T A conj(u) = A: the
    preservation check is the twisted-Frobenius fixed point."""
    K = data.field
    A, u = data.form, data.unipotent
    if la.det(K, A) == 0:
        raise AssertionError("form is degenerate")
    if data.conj_mat(la.transpose(A)) != A:
        raise AssertionError("form is not Hermitian")
    if la.mat_mul(K, la.mat_mul(K, la.transpose(u), A), data.conj_mat(u)) != A:
        raise AssertionError("u does not preserve the sesquilinear form")
    if la.jordan_partition(K, data.nilpotent) != data.la:
        raise AssertionError("u - 1 is not of the Jordan type of the partition")
