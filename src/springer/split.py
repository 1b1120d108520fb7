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

Special linear side: a Jordan-basis unipotent made rational for the
twisted (unitary-type) Frobenius by a Hermitian sesquilinear form.  The
form's antidiagonal carries the fixed signs (-1)^{j+1} in every block;
the remaining entries are completed by solving the invariance and
Hermitian conditions exactly, because a pure Jordan shift preserves no
purely antidiagonal sesquilinear form once the block size exceeds 2.  For even
block sizes the antidiagonal scalar must be trace-zero (conjugation
negates it) for the form to be Hermitian; the completion picks the
canonical such scalar.  Both builders take the prime power q and factor
it (ffield.prime_power) before any other work.
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
def _subfield_coords(K2: FieldSpec, qexp: int):
    """F_q-coordinates on F_{q^2}: returns (beta, coords).  beta is the
    least element with beta^q != beta, so 1, beta is an F_q-basis, and
    coords(c) = (c0, c1) with c = c0 + c1 beta.  Both coordinates are
    fixed by a -> a^q, so c - c^q = c1 (beta - beta^q): c1 is that
    quotient and c0 = c - c1 beta, one Frobenius per element instead of
    a scan of F_{q^2}."""
    beta = next(a for a in K2.elements() if K2.frobenius(a, qexp) != a)
    scale = K2.inv(K2.sub(beta, K2.frobenius(beta, qexp)))

    def coords(c: int) -> tuple[int, int]:
        c1 = K2.mul(K2.sub(c, K2.frobenius(c, qexp)), scale)
        return K2.sub(c, K2.mul(c1, beta)), c1

    return beta, coords


@lru_cache(maxsize=None)
def _solve_block_form(K2: FieldSpec, qexp: int, h: int) -> la.Matrix:
    """The h x h Hermitian block preserved by the Jordan shift unipotent.

    Prescribes B[j, h+1-j] = (-1)^{j+1} * c_h on the antidiagonal
    (c_h = 1 for odd h, a canonical trace-zero scalar for even h) and
    solves the invariance + Hermitian conditions over F_q, free variables
    set to zero.
    """
    beta, coords = _subfield_coords(K2, qexp)
    cb0, cb1 = coords(K2.frobenius(beta, qexp))

    nvar = 2 * h * h  # (i, j, component)

    def var(i: int, j: int, comp: int) -> int:
        return (i * h + j) * 2 + comp

    rows: list[list[int]] = []
    rhs: list[int] = []

    def add_eq(coeffs: dict[int, int], b0: int = 0):
        row = [0] * nvar
        for v, c in coeffs.items():
            row[v] = K2.add(row[v], c)
        rows.append(row)
        rhs.append(b0)

    # invariance: B[i-1, j] + B[i, j-1] + B[i-1, j-1] = 0 (1-based, absent = 0)
    for i in range(1, h + 1):
        for j in range(1, h + 1):
            coeffs: dict[int, int] = {}
            for (ii, jj) in ((i - 1, j), (i, j - 1), (i - 1, j - 1)):
                if ii >= 1 and jj >= 1:
                    for comp in (0, 1):
                        v = var(ii - 1, jj - 1, comp)
                        coeffs[v] = K2.add(coeffs.get(v, 0), 1)
            if coeffs:
                # component equations: the coefficient 1 acts diagonally
                add_eq({v: c for v, c in coeffs.items() if v % 2 == 0}, 0)
                add_eq({v: c for v, c in coeffs.items() if v % 2 == 1}, 0)

    # Hermitian: B[i][j] - conj(B[j][i]) = 0
    # with B[j][i] = c0 + c1 beta: conj = c0 + c1 (cb0 + cb1 beta)
    for i in range(h):
        for j in range(h):
            # component 0: B[i][j].0 - B[j][i].0 - cb0 * B[j][i].1 = 0
            coeffs = {var(i, j, 0): 1}
            coeffs[var(j, i, 0)] = K2.add(coeffs.get(var(j, i, 0), 0), K2.neg(1))
            coeffs[var(j, i, 1)] = K2.add(coeffs.get(var(j, i, 1), 0), K2.neg(cb0))
            add_eq(coeffs, 0)
            # component 1: B[i][j].1 - cb1 * B[j][i].1 = 0
            coeffs = {var(i, j, 1): 1}
            coeffs[var(j, i, 1)] = K2.add(coeffs.get(var(j, i, 1), 0), K2.neg(cb1))
            add_eq(coeffs, 0)

    # prescribed antidiagonal
    if h % 2 == 1 or K2.p == 2:
        c_h = 1
    else:
        c_h = next(a for a in K2.elements() if a and K2.frobenius(a, qexp) == K2.neg(a))
    for j in range(1, h + 1):
        sign = (-1) ** ((j + 1) % 2)
        val = c_h if sign == 1 else K2.neg(c_h)
        v0, v1 = coords(val)
        add_eq({var(j - 1, h - j, 0): 1}, v0)
        add_eq({var(j - 1, h - j, 1): 1}, v1)

    # solve over F_q: every coefficient and rhs lives in the subfield, so
    # K2 arithmetic restricted to sub is exactly F_q arithmetic
    sol = la.solve(K2, la.mat(rows), tuple(rhs))
    if sol is None:
        raise AssertionError(f"no invariant Hermitian form with the prescribed antidiagonal (h={h})")
    B = [[0] * h for _ in range(h)]
    for i in range(h):
        for j in range(h):
            c0 = sol[var(i, j, 0)]
            c1 = sol[var(i, j, 1)]
            B[i][j] = K2.add(c0, K2.mul(c1, beta))
    return la.mat(B)


def build_sl_split(la_parts: Partition, q: int) -> SplitSLData:
    """Split unipotent of Jordan type la for twisted SL_n(q), over F_{q^2}.

    Every block's antidiagonal carries the fixed signs (-1)^{j+1}; no
    per-part sign is chosen.  The returned data has, machine-checked: A
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
        block = _solve_block_form(K2, k, len(chain))
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
