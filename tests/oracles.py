"""Independent oracles for the class-dimension formulas.

Everything here is deliberately separate from the package's formulas:
nilpotent representatives and bilinear forms are rebuilt from scratch,
centralizer dimensions come from numerical nullspaces, and class sizes
come from actual point counting over F_3 and F_5, never from
conjugate-partition arithmetic.  The counting routes are: a scan of the
commutant for stabilizers; a layered stabilizer count that enumerates
the Levi factor of the commutant and counts its radical linearly; an
orbit crawl under reflections or transvections; and, for GL, unit
counting through the commutant's semisimple quotient.  Even-dimensional
orthogonal counts are taken in the split group at every q, so counts at
different q describe one family of groups.  Up to the last section,
only prime fields appear.

The Hall numbers are the closed form (Macdonald, ch. II §4) that the
enumerated stratum tallies of the flag varieties are checked against.

The line walk is the former d = 1 stratum tally, every line of ker x
listed and typed; it is the reference for the tally by centralizer
orbit.

The stacked-orbit walk is the former enumeration of cyclic subspaces,
one echelon form per subspace; it is the reference for the walk that
clears x W once per generator block.

The last section works over any F_q in the package's own arithmetic: a
scan of the whole commutant for its units, and orbits taken as the
images of a seed under every unit.  It is the reference for the
generator closure behind `flags --orbits`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import oracles_flags as ofl

from springer import flinalg as la
from springer import varieties as vr


# ---------------------------------------------------------------------------
# representatives


def nilpotent_matrix(lam: tuple[int, ...]) -> np.ndarray:
    n = sum(lam)
    x = np.zeros((n, n), dtype=np.int64)
    s = 0
    for h in lam:
        for a in range(1, h):
            x[s + a - 1, s + a] = 1
        s += h
    return x


def _nonsquare(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) != 1)


def so_form_and_nilpotent(lam: tuple[int, ...], p: int) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric form and skew-adjoint shift of the given type: odd
    parts single blocks with alternating antidiagonals, even parts in
    chain pairs.

    For even N the form is always split (plus type): when (-1)^{N/2} det f
    is a non-square, the first odd-part block is rescaled by a non-square,
    which changes the discriminant because the block has odd size.  Some
    odd part then exists, since paired even parts alone give a
    hyperbolic form."""
    n = sum(lam)
    f = np.zeros((n, n), dtype=np.int64)
    x = np.zeros((n, n), dtype=np.int64)
    parts = list(lam)
    odd_block = None
    s, i = 0, 0
    while i < len(parts):
        h = parts[i]
        if h % 2 == 1:
            odd_block = odd_block or slice(s, s + h)
            for a in range(1, h + 1):
                f[s + h - a, s + a - 1] = (-1) ** (a % 2)
            for a in range(1, h):
                x[s + a - 1, s + a] = 1
            s += h
            i += 1
        else:
            if i + 1 >= len(parts) or parts[i + 1] != h:
                raise ValueError(f"even part {h} unpaired in {lam}")
            for a in range(1, h + 1):
                v = (-1) ** ((a - 1) % 2)
                f[s + h - a, s + h + a - 1] = v
                f[s + h + a - 1, s + h - a] = v
            for c in range(2):
                base = s + c * h
                for a in range(1, h):
                    x[base + a - 1, base + a] = 1
            s += 2 * h
            i += 2
    f %= p
    if n % 2 == 0 and not orthogonal_type_is_plus(f, p):
        f[odd_block, odd_block] = (f[odd_block, odd_block] * _nonsquare(p)) % p
        assert orthogonal_type_is_plus(f, p)
    assert ((f - f.T) % p == 0).all()
    assert det_mod(f, p) != 0
    assert ((x.T @ f + f @ x) % p == 0).all()
    return f, x


def sp_form_and_nilpotent(lam: tuple[int, ...], p: int) -> tuple[np.ndarray, np.ndarray]:
    """An alternating form and skew-adjoint shift: even parts single
    blocks, odd parts in chain pairs."""
    n = sum(lam)
    f = np.zeros((n, n), dtype=np.int64)
    x = np.zeros((n, n), dtype=np.int64)
    parts = list(lam)
    s, i = 0, 0
    while i < len(parts):
        h = parts[i]
        if h % 2 == 0:
            for a in range(1, h + 1):
                f[s + h - a, s + a - 1] = (-1) ** (a % 2)
            for a in range(1, h):
                x[s + a - 1, s + a] = 1
            s += h
            i += 1
        else:
            if i + 1 >= len(parts) or parts[i + 1] != h:
                raise ValueError(f"odd part {h} unpaired in {lam}")
            for a in range(1, h + 1):
                v = (-1) ** ((a - 1) % 2)
                f[s + h - a, s + h + a - 1] = v
                f[s + h + a - 1, s + h - a] = -v
            for c in range(2):
                base = s + c * h
                for a in range(1, h):
                    x[base + a - 1, base + a] = 1
            s += 2 * h
            i += 2
    f %= p
    assert ((f + f.T) % p == 0).all()
    assert det_mod(f, p) != 0
    assert ((x.T @ f + f @ x) % p == 0).all()
    return f, x


# ---------------------------------------------------------------------------
# F_p linear algebra


def _rref_rows(a: np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    m = (np.array(a, dtype=np.int64) % p).tolist()
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(inv * v) % p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                fct = m[i][c]
                m[i] = [(v - fct * w) % p for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    if len(a) == 0:
        return 0
    return len(_rref_rows(a, p)[0])


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    a = np.array(a, dtype=np.int64) % p
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0), dtype=np.int64)
    cols = a.shape[1]
    red, pivots = _rref_rows(a, p)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for rr, pc in enumerate(pivots):
            v[pc] = (-red[rr][fc]) % p
        basis.append(v)
    return np.array(basis, dtype=np.int64) if basis else np.zeros((0, cols), dtype=np.int64)


def det_mod(a: np.ndarray, p: int) -> int:
    m = (np.array(a, dtype=np.int64) % p).tolist()
    n = len(m)
    d = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = (-d) % p
        d = (d * m[c][c]) % p
        inv = pow(m[c][c], p - 2, p)
        for i in range(c + 1, n):
            if m[i][c]:
                fct = (inv * m[i][c]) % p
                m[i] = [(v - fct * w) % p for v, w in zip(m[i], m[c])]
    return d


def inv_mod(g: np.ndarray, p: int) -> np.ndarray:
    n = len(g)
    aug = np.concatenate([np.array(g) % p, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = _rref_rows(aug, p)
    assert pivots[:n] == list(range(n)), "singular matrix"
    return np.array([row[n:] for row in red], dtype=np.int64)


# ---------------------------------------------------------------------------
# centralizer dimensions (Lie-algebra level, q-free)


def commutant_basis(x: np.ndarray, p: int) -> np.ndarray:
    n = len(x)
    rows = []
    for i in range(n):
        for j in range(n):
            row = np.zeros(n * n, dtype=np.int64)
            for t in range(n):
                row[i * n + t] += x[t, j]
                row[t * n + j] -= x[i, t]
            rows.append(row % p)
    return nullspace_mod(np.array(rows), p)


def lie_centralizer_dim(kind: str, lam: tuple[int, ...], p: int = 5) -> int:
    if kind in ("GL", "SL"):
        dim = len(commutant_basis(nilpotent_matrix(lam), p))
        return dim if kind == "GL" else dim - 1
    if kind == "SO":
        f, x = so_form_and_nilpotent(lam, p)
    elif kind == "Sp":
        f, x = sp_form_and_nilpotent(lam, p)
    else:
        raise ValueError(kind)
    n = len(x)
    return skew_adjoint_dim(commutant_basis(x, p).reshape(-1, n, n), f, p)


def skew_adjoint_dim(mats: np.ndarray, f: np.ndarray, p: int) -> int:
    """Dimension of the a in span(mats) with a^T f + f a = 0 (mats a basis)."""
    if len(mats) == 0:
        return 0
    images = (np.transpose(mats, (0, 2, 1)) @ f + f @ mats) % p
    return len(nullspace_mod(images.reshape(len(mats), -1).T, p))


def lie_class_dim(kind: str, lam: tuple[int, ...], p: int = 5) -> int:
    n = sum(lam)
    ambient = {"GL": n * n, "SL": n * n - 1, "SO": n * (n - 1) // 2, "Sp": n * (n + 1) // 2}[kind]
    return ambient - lie_centralizer_dim(kind, lam, p)


# ---------------------------------------------------------------------------
# group orders


def gl_order(m: int, q: int) -> int:
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def sp_order(n2: int, q: int) -> int:
    n = n2 // 2
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def so_order(N: int, q: int, plus: bool = True) -> int:
    if N == 1:
        return 1
    if N % 2 == 1:
        n = N // 2
        out = q ** (n * n)
        for i in range(1, n + 1):
            out *= q ** (2 * i) - 1
        return out
    n = N // 2
    out = q ** (n * (n - 1)) * ((q**n - 1) if plus else (q**n + 1))
    for i in range(1, n):
        out *= q ** (2 * i) - 1
    return out


def orthogonal_type_is_plus(f: np.ndarray, p: int) -> bool:
    """Even dimension: split iff (-1)^{N/2} det f is a square mod p."""
    N = len(f)
    val = (pow(-1, N // 2, p) * det_mod(f, p)) % p
    return pow(val, (p - 1) // 2, p) == 1


# ---------------------------------------------------------------------------
# point counting


def _coeff_blocks(p: int, m: int, chunk: int = 1 << 14):
    total = p**m
    base = np.array([p**i for i in range(m)], dtype=np.int64)
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        yield (codes[:, None] // base[None, :]) % p
        start = stop


def stabilizer_order_by_enumeration(
    x: np.ndarray, f: np.ndarray | None, p: int, budget: int = 2 * 10**6
) -> int | None:
    """Count of commuting, form-preserving invertible matrices by a scan
    of the commutant; None when the scan would exceed the budget."""
    basis = commutant_basis(x, p)
    m = len(basis)
    if p**m > budget:
        return None
    n = len(x)
    mats = basis.reshape(m, n, n)
    count = 0
    for coeffs in _coeff_blocks(p, m):
        g = np.tensordot(coeffs, mats, axes=(1, 0)) % p
        if f is not None:
            gf = np.einsum("kji,jl,klm->kim", g, f, g) % p
            keep = (gf == f[None, :, :]).all(axis=(1, 2))
            g = g[keep]
        for mm in g:
            if det_mod(mm, p) != 0:
                count += 1
    return count


def _isometry_generators(f: np.ndarray, p: int, alternating: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """A generating pool for the isometry group with inverses.

    Symmetric forms: reflections in every anisotropic line (involutions).
    Alternating forms: the transvections w -> w + f(w, v) v over every
    line (their powers give the other scalars, so closure under these
    suffices).  Both pools classically generate the full isometry group.
    """
    n = len(f)
    out = []
    for vec in product(range(p), repeat=n):
        v = np.array(vec, dtype=np.int64)
        if not v.any() or v[np.nonzero(v)[0][0]] != 1:
            continue
        if alternating:
            g = (np.eye(n, dtype=np.int64) + np.outer(v, (v @ f) % p)) % p
            ginv = (np.eye(n, dtype=np.int64) - np.outer(v, (v @ f) % p)) % p
            assert ((g.T @ f @ g) % p == f % p).all()
            out.append((g, ginv))
        else:
            norm = int(v @ f @ v % p)
            if norm == 0:
                continue
            inv = pow(norm, p - 2, p)
            g = (np.eye(n, dtype=np.int64) - (2 * inv) * np.outer(v, v @ f)) % p
            assert ((g.T @ f @ g) % p == f % p).all()
            out.append((g, g))  # involution
    return out


ORBIT_CAP = 50_000


def _pack_arrays(batch: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Injective base-p packing of n x n matrices into int64 pairs."""
    flat = batch.reshape(len(batch), -1).astype(np.int64)
    d = flat.shape[1]
    half = d // 2
    w1 = np.array([p**i for i in range(half)], dtype=np.int64)
    w2 = np.array([p**i for i in range(d - half)], dtype=np.int64)
    return flat[:, :half] @ w1, flat[:, half:] @ w2


def _pack(batch: np.ndarray, p: int) -> list[tuple[int, int]]:
    hi, lo = _pack_arrays(batch, p)
    return list(zip(hi.tolist(), lo.tolist()))


def _conj_batch(g: np.ndarray, ginv: np.ndarray, arr: np.ndarray, p: int) -> np.ndarray:
    """g arr g^{-1} elementwise over the batch, via float64 matmul.

    Entries stay below p^2 n^2 << 2^53, so the float arithmetic is exact.
    """
    gf = g.astype(np.float64)
    gi = ginv.astype(np.float64)
    res = np.matmul(np.matmul(gf, arr.astype(np.float64)), gi)
    return np.rint(res).astype(np.int64) % p


def orbit_size_by_isometries(
    x: np.ndarray, f: np.ndarray, p: int, alternating: bool, budget: int = 2 * 10**6
) -> int | None:
    """Conjugation orbit of x under the full isometry group.

    Grows the orbit with a small generator subset, then sweeps the whole
    pool; any generator that escapes the current set is added and the
    growth resumes, so the final set is certified closed under every
    generator (and the pools generate the full isometry group).  The
    certification sweep costs |orbit| * |pool|, so orbits above a hard
    cap are declined rather than crawled.
    """
    pool = _isometry_generators(f, p, alternating)
    if not pool:
        return None
    budget = min(budget, ORBIT_CAP)
    n = len(x)
    gens = list(pool[: 3 * n])
    x0 = x % p
    store: dict[tuple[int, int], np.ndarray] = {_pack(x0[None, :, :], p)[0]: x0}
    frontier = [x0]
    while True:
        while frontier:
            arr = np.array(frontier, dtype=np.int64)
            new = []
            for g, ginv in gens:
                imgs = _conj_batch(g, ginv, arr, p)
                for key, mm in zip(_pack(imgs, p), imgs):
                    if key not in store:
                        store[key] = mm
                        new.append(mm)
                        if len(store) > budget:
                            return None
            frontier = new
        # closure sweep over the full pool, vectorized membership
        orbit = np.array(list(store.values()), dtype=np.int64)
        key_arr = np.array(list(store.keys()), dtype=np.int64)
        order = np.lexsort((key_arr[:, 1], key_arr[:, 0]))
        kh, kl = key_arr[order, 0], key_arr[order, 1]
        escaped = []
        for g, ginv in pool:
            imgs = _conj_batch(g, ginv, orbit, p)
            hi, lo = _pack_arrays(imgs, p)
            pos = np.searchsorted(kh, hi)
            pos_c = np.minimum(pos, len(kh) - 1)
            suspect = ~((kh[pos_c] == hi) & (kl[pos_c] == lo))
            if not suspect.any():
                continue
            hit = False
            for mm in imgs[suspect]:
                key = _pack(mm[None, :, :], p)[0]
                if key not in store:
                    store[key] = mm
                    escaped.append(mm)
                    hit = True
                    if len(store) > budget:
                        return None
            if hit:
                gens.append((g, ginv))
        if not escaped:
            return len(store)
        frontier = escaped


# -- unit counting through the semisimple quotient (general linear side)


def _row_space_complement(small: np.ndarray, big: np.ndarray, p: int) -> list[np.ndarray]:
    """Rows of big extending the row space of small."""
    cur = [list(r) for r in small]
    cur_rank = rank_mod(np.array(cur, dtype=np.int64), p) if cur else 0
    out = []
    for row in big:
        cand = cur + [list(row)]
        r = rank_mod(np.array(cand, dtype=np.int64), p)
        if r > cur_rank:
            cur, cur_rank = cand, r
            out.append(np.array(row, dtype=np.int64))
    return out


def _intersect_rowspaces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Basis of rowspace(a) intersect rowspace(b)."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros((0, a.shape[1] if len(a) else b.shape[1]), dtype=np.int64)
    stacked = np.concatenate([a, (-b) % p], axis=0)  # combos with u a = w b
    ker = nullspace_mod(stacked.T, p)
    vecs = (ker[:, : len(a)] @ a) % p
    red, _ = _rref_rows(vecs, p)
    return np.array(red, dtype=np.int64) if red else np.zeros((0, a.shape[1]), dtype=np.int64)


def _multiplicity_map(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The commutant's action on the multiplicity spaces.

    Returns the commutant basis as n x n matrices, the matrix whose row i
    flattens basis element i's action on every multiplicity space (ker x
    intersect im x^{k-1}) / (ker x intersect im x^k), and the dimensions
    m_k of those spaces.  The kernel of the map is the radical.
    """
    n = len(x)
    basis = commutant_basis(x, p)
    m = len(basis)
    mats = basis.reshape(m, n, n)
    kerx = nullspace_mod(x, p)
    power = np.eye(n, dtype=np.int64)
    s_spaces = []
    for k in range(0, n + 1):
        im = power.T % p  # rows span im(x^k)
        red, _ = _rref_rows(im, p)
        im_red = np.array(red, dtype=np.int64) if red else np.zeros((0, n), dtype=np.int64)
        s_spaces.append(_intersect_rowspaces(kerx, im_red, p) if len(kerx) else np.zeros((0, n), dtype=np.int64))
        power = (power @ x) % p
    block_dims = []
    maps = []  # per commutant basis element, list of flattened block actions
    for _ in range(m):
        maps.append([])
    for k in range(1, n + 1):
        s_k, s_k1 = s_spaces[k - 1], s_spaces[k]
        reps = _row_space_complement(s_k1, s_k, p)
        mk = len(reps)
        if mk == 0:
            continue
        block_dims.append(mk)
        # coordinates in S_k relative to (S_{k+1} basis, reps)
        full = np.array(list(s_k1) + [list(r) for r in reps], dtype=np.int64)
        for bi in range(m):
            a = mats[bi]
            block = []
            for r in reps:
                img = (r @ a.T) % p  # a acting on the row vector r
                sol = _solve(full.T, list(img), p)
                assert sol is not None, "multiplicity space is not stable"
                block.extend(int(v) % p for v in sol[len(s_k1) :])
            maps[bi].extend(block)
    return mats, np.array(maps, dtype=np.int64) % p, block_dims


def gl_centralizer_order(x: np.ndarray, p: int) -> int:
    """|Z_{GL_n}(x)(F_p)| from the commutant's internal structure.

    The commutant surjects onto a product of matrix algebras acting on
    the multiplicity spaces; the kernel of that map is the radical, along
    which units lift bijectively.  Surjectivity is confirmed by a rank
    count, so nothing is taken on faith from the partition.
    """
    mats, map_matrix, block_dims = _multiplicity_map(x, p)
    m = len(mats)
    rank = rank_mod(map_matrix, p)
    ss_dim = sum(d * d for d in block_dims)
    assert rank == ss_dim, f"semisimple image has rank {rank}, expected {ss_dim}"
    dim_j = m - rank
    order = p**dim_j
    for d in block_dims:
        order *= gl_order(d, p)
    return order


def _solve(a: np.ndarray, b: list[int], p: int):
    """One solution of a x = b over F_p, or None."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    aug = np.concatenate([a, np.array(b, dtype=np.int64).reshape(-1, 1) % p], axis=1)
    red, pivots = _rref_rows(aug, p)
    for r, row in enumerate(red):
        if pivots[r] == cols:
            return None
    sol = [0] * cols
    for r, c in enumerate(pivots):
        if c < cols:
            sol[c] = red[r][cols]
    return sol


def gl_class_size(lam: tuple[int, ...], q: int) -> int:
    return gl_order(sum(lam), q) // gl_centralizer_order(nilpotent_matrix(lam), q)


# -- layered stabilizer count (isometry side)


def _jordan_chains(x: np.ndarray) -> dict[int, list[list[int]]]:
    """Basis indices of each Jordan chain of a shift in standard basis
    (x e_i is 0 or some e_j), bottom first, keyed by chain length."""
    n = len(x)
    up = {}  # j -> i with x e_i = e_j
    for i in range(n):
        rows = np.nonzero(x[:, i])[0]
        if len(rows):
            j = int(rows[0])
            assert len(rows) == 1 and x[j, i] == 1 and j not in up, "not a standard shift"
            up[j] = i
    chains: dict[int, list[list[int]]] = {}
    for i in range(n):
        if not x[:, i].any():
            chain = [i]
            while chain[-1] in up:
                chain.append(up[chain[-1]])
            chains.setdefault(len(chain), []).append(chain)
    return chains


def stabilizer_order_layered(
    x: np.ndarray, f: np.ndarray, p: int, budget: int = 2 * 10**6
) -> int | None:
    """|{g in Iso(f) : g x = x g}| through the Levi decomposition of the
    commutant C, for p odd and x a shift in standard basis.

    The Jordan chains of length h span a Levi factor L_h = M_{m_h} of C,
    and C = (sum_h L_h) + J with J the radical, the kernel of the map
    to the multiplicity spaces.  Once each L_h is checked to be stable
    under the adjoint a -> f^-1 a^T f, the stabilizer is the product of
    the L_h-factors (L_h^x intersect Iso, one chain length at a time)
    and (1 + J) intersect Iso.  An L_h-factor is enumerated when its
    p^(m_h^2) candidates fit the budget, and is otherwise the order of
    the isometry group of the multiplicity form (_levi_isometry_order).
    The Cayley transform y -> (1 - y)(1 + y)^-1 maps the skew-adjoint
    part of J bijectively onto (1 + J) intersect Iso, so it has
    p^dim(J intersect g_f) points.  None when a Levi factor is not
    adjoint-stable.
    """
    assert p % 2 == 1
    n = len(x)
    f = f % p
    f_inv = inv_mod(f, p)
    mats, map_matrix, _ = _multiplicity_map(x, p)
    j_coeffs = nullspace_mod(map_matrix.T, p)
    radical = (j_coeffs @ mats.reshape(len(mats), -1) % p).reshape(-1, n, n)
    order = 1
    levi = []
    for h, chains in sorted(_jordan_chains(x).items()):
        m = len(chains)
        basis = np.zeros((m * m, n, n), dtype=np.int64)
        for k, (src, dst) in enumerate(product(chains, chains)):
            basis[k, dst, src] = 1  # e^src_a -> e^dst_a along the chains
        assert not ((basis @ x - x @ basis) % p).any()
        adjoint = (f_inv @ np.transpose(basis, (0, 2, 1)) @ f) % p
        if rank_mod(np.concatenate([basis, adjoint]).reshape(2 * m * m, -1), p) != m * m:
            return None
        if p ** (m * m) > budget:
            count = _levi_isometry_order(chains, adjoint, f, p)
        else:
            rest = np.eye(n, dtype=np.int64) - basis[:: m + 1].sum(axis=0)
            count = 0
            for coeffs in _coeff_blocks(p, m * m):
                g = (rest + np.tensordot(coeffs, basis, axes=(1, 0))) % p
                gf = (np.transpose(g, (0, 2, 1)) @ f % p) @ g % p
                count += int((gf == f).all(axis=(1, 2)).sum())
        order *= count
        levi.extend(basis)
    assert rank_mod(np.array(levi + list(radical)).reshape(len(mats), -1), p) == len(mats)
    dim_l, dim_j = skew_adjoint_dim(np.array(levi), f, p), skew_adjoint_dim(radical, f, p)
    assert dim_l + dim_j == skew_adjoint_dim(mats, f, p)
    return order * p**dim_j


def _levi_isometry_order(chains: list[list[int]], adjoint: np.ndarray, f: np.ndarray, p: int) -> int:
    """|L_h^x intersect Iso(f)| for the Levi factor L_h = M_m on the m
    Jordan chains of one length, given the adjoints of its chain-map
    basis (in stabilizer_order_layered's order, already known to lie in
    L_h).

    With beta_ij = f(top of chain i, bottom of chain j), the adjoint
    acts on L_h as A -> beta^-1 A^T beta (checked on the basis).  It
    fixes the unit e_h of L_h, so 1 - e_h + A is an isometry exactly
    when A^T beta A = beta: the count is |Sp_m(p)| for alternating beta
    and |O^+-_m(p)| for symmetric beta, the type read off its
    discriminant.
    """
    m = len(chains)
    bottoms = [c[0] for c in chains]
    beta = f[np.ix_([c[-1] for c in chains], bottoms)] % p
    beta_inv = inv_mod(beta, p)
    for k, (src, dst) in enumerate(product(range(m), range(m))):
        unit = np.zeros((m, m), dtype=np.int64)
        unit[dst, src] = 1
        assert (adjoint[k][np.ix_(bottoms, bottoms)] % p == beta_inv @ unit.T @ beta % p).all()
    if ((beta + beta.T) % p == 0).all():
        return sp_order(m, p)
    assert ((beta - beta.T) % p == 0).all()
    return 2 * so_order(m, p, plus=m % 2 == 1 or orthogonal_type_is_plus(beta, p))


# -- rational classes in the isometry groups
#
# The set of type-lam skew-adjoint nilpotents is the F_q-point set of the
# geometric class.  Its rational orbits under Iso(f) correspond to the
# square classes of the forms induced on the multiplicity spaces where
# the induced form is symmetric (odd parts for SO, even parts for Sp);
# the oracle realizes each choice by rescaling that block of the base
# form, keeps the variants equivalent to f, and sums the orbit sizes.
# The correspondence itself is cross-validated against full scans of the
# small Lie algebras in the test module.


def _block_slices(lam: tuple[int, ...], pair_even: bool) -> list[tuple[int, int, int]]:
    """(part, start, width) per block of the standard representative;
    pair_even pairs equal even parts (SO layout), else equal odd parts
    (Sp layout)."""
    out = []
    s, i = 0, 0
    parts = list(lam)
    while i < len(parts):
        h = parts[i]
        paired = (h % 2 == 0) if pair_even else (h % 2 == 1)
        if not paired:
            out.append((h, s, h))
            s += h
            i += 1
        else:
            out.append((h, s, 2 * h))
            s += 2 * h
            i += 2
    return out


def _scale_block(f: np.ndarray, start: int, width: int, c: int, p: int) -> np.ndarray:
    g = f.copy()
    g[start : start + width, :] = (g[start : start + width, :] * c) % p
    g[:, start : start + width] = (g[:, start : start + width] * c) % p
    # entries inside the block got scaled twice; undo one factor
    inv = pow(c, p - 2, p)
    g[start : start + width, start : start + width] = (
        g[start : start + width, start : start + width] * inv
    ) % p
    return g % p


def _symmetric_forms_equivalent(f1: np.ndarray, f2: np.ndarray, p: int) -> bool:
    if len(f1) != len(f2):
        return False
    d1, d2 = det_mod(f1, p), det_mod(f2, p)
    chi = lambda a: pow(a, (p - 1) // 2, p)
    return chi(d1) == chi(d2)


def _diagonalize_symmetric(f: np.ndarray, p: int) -> np.ndarray:
    """P with P^T f P diagonal (congruence over F_p, p odd)."""
    n = len(f)
    f = f.copy() % p
    P = np.eye(n, dtype=np.int64)
    for i in range(n):
        if f[i, i] % p == 0:
            pivot = None
            for j in range(i + 1, n):
                if f[j, j] % p:
                    pivot = ("swap", j)
                    break
            if pivot is None:
                for j in range(i + 1, n):
                    if f[i, j] % p:
                        pivot = ("add", j)
                        break
            if pivot is None:
                continue
            kind, j = pivot
            E = np.eye(n, dtype=np.int64)
            if kind == "swap":
                E[:, [i, j]] = E[:, [j, i]]
            else:
                E[j, i] = 1  # column op: col_i += col_j
            f = (E.T @ f @ E) % p
            P = (P @ E) % p
        if f[i, i] % p == 0:
            continue
        inv = pow(int(f[i, i]), p - 2, p)
        E = np.eye(n, dtype=np.int64)
        for j in range(i + 1, n):
            E[i, j] = (-(inv * f[i, j])) % p
        f = (E.T @ f @ E) % p
        P = (P @ E) % p
    return P


def _symmetric_transport(f_src: np.ndarray, f_dst: np.ndarray, p: int) -> np.ndarray:
    """g with g^T f_dst g = f_src (both symmetric, equivalent)."""
    n = len(f_src)
    delta = _nonsquare(p)

    def to_canonical(f):
        P = _diagonalize_symmetric(f, p)
        D = (P.T @ f @ P) % p
        diag = [int(D[i, i]) for i in range(n)]
        assert all(diag), "degenerate form"
        scale = np.eye(n, dtype=np.int64)
        kinds = []
        for i, d in enumerate(diag):
            if pow(d, (p - 1) // 2, p) == 1:
                r = _sqrt_mod(d, p)
                kinds.append(0)
            else:
                r = _sqrt_mod((d * pow(delta, p - 2, p)) % p, p)
                kinds.append(1)
            scale[i, i] = pow(r, p - 2, p)
        Q = (P @ scale) % p
        # entries are now 1 or delta; sort them together
        order = np.argsort(kinds, kind="stable")
        perm = np.eye(n, dtype=np.int64)[:, order]
        Q = (Q @ perm) % p
        kinds_sorted = sorted(kinds)
        # pairs of deltas can be rotated to pairs of ones
        Q = _reduce_delta_pairs(f, Q, kinds_sorted, delta, p)
        return Q

    q1 = to_canonical(f_src)
    q2 = to_canonical(f_dst)
    c1 = (q1.T @ f_src @ q1) % p
    c2 = (q2.T @ f_dst @ q2) % p
    assert (c1 == c2).all(), "forms are not equivalent"
    g = (q2 @ inv_mod(q1, p)) % p
    assert ((g.T @ f_dst @ g) % p == f_src % p).all()
    return g


def _reduce_delta_pairs(f, Q, kinds_sorted, delta, p):
    """Replace diag(delta, delta) pairs by diag(1, 1) via a rotation."""
    n = len(Q)
    # find a, b with a^2 + b^2 = delta^{-1} (always solvable over F_p)
    target = pow(delta, p - 2, p)
    sol = None
    for a in range(p):
        rem = (target - a * a) % p
        r = _sqrt_mod(rem, p) if pow(rem, (p - 1) // 2, p) in (0, 1) else None
        if rem == 0:
            sol = (a, 0)
            break
        if r is not None:
            sol = (a, r)
            break
    assert sol is not None
    a, b = sol
    rot = np.array([[a, (-b) % p], [b, a]], dtype=np.int64)
    i = kinds_sorted.index(1) if 1 in kinds_sorted else None
    while i is not None and i + 1 < n and kinds_sorted[i] == 1 and kinds_sorted[i + 1] == 1:
        E = np.eye(n, dtype=np.int64)
        E[i : i + 2, i : i + 2] = rot
        Q = (Q @ E) % p
        kinds_sorted[i] = kinds_sorted[i + 1] = 0
        kinds_sorted.sort()
        i = kinds_sorted.index(1) if 1 in kinds_sorted else None
    return Q


def _sqrt_mod(a: int, p: int) -> int | None:
    a %= p
    for r in range(p):
        if r * r % p == a:
            return r
    return None


def _symplectic_transport(f_src: np.ndarray, f_dst: np.ndarray, p: int) -> np.ndarray:
    """g with g^T f_dst g = f_src (alternating forms are all equivalent)."""

    def symplectic_basis(f):
        n = len(f)
        basis = []
        remaining = [np.eye(n, dtype=np.int64)[i] for i in range(n)]
        used: list[np.ndarray] = []
        f = f % p
        while remaining:
            u = remaining.pop(0)
            # project off the span of the pairs found so far
            for (e1, e2) in zip(used[0::2], used[1::2]):
                c1 = int(u @ f @ e2 % p)
                c2 = int(u @ f @ e1 % p)
                u = (u - c1 * e1 + c2 * e2) % p
            if not u.any():
                continue
            v = None
            for w in remaining:
                ww = w.copy()
                for (e1, e2) in zip(used[0::2], used[1::2]):
                    c1 = int(ww @ f @ e2 % p)
                    c2 = int(ww @ f @ e1 % p)
                    ww = (ww - c1 * e1 + c2 * e2) % p
                val = int(u @ f @ ww % p)
                if val:
                    v = (ww * pow(val, p - 2, p)) % p
                    break
            assert v is not None, "degenerate alternating form"
            used.extend([u % p, v % p])
        return np.array(used, dtype=np.int64).T  # columns e1, f1, e2, f2, ...

    b1 = symplectic_basis(f_src)
    b2 = symplectic_basis(f_dst)
    g = (b2 @ inv_mod(b1, p)) % p
    assert ((g.T @ f_dst @ g) % p == f_src % p).all()
    return g


def _class_point_count_isometry(
    kind: str, lam: tuple[int, ...], q: int, budget: int = 2 * 10**6
) -> int | None:
    """|C(F_q)|: the full type set, summed over its rational orbits.

    Even-N orthogonal counts are taken in the split group O^+_N(q), the
    isometry group of so_form_and_nilpotent's form at every q.  Each
    rational orbit is the isometry group's order over a stabilizer from
    the layered count or, where a Levi factor is not adjoint-stable, the
    commutant scan within its budget; failing both, the orbit is
    crawled.  The two stabilizer counts agree wherever both run
    (test_layered_stabilizer_count_against_direct_scan)."""
    if all(part == 1 for part in lam):
        return 1
    if kind == "SO":
        f, x = so_form_and_nilpotent(lam, q)
        alternating = False
        symmetric_parts = sorted({h for h in lam if h % 2 == 1})
    else:
        f, x = sp_form_and_nilpotent(lam, q)
        alternating = True
        symmetric_parts = sorted({h for h in lam if h % 2 == 0})
    N = sum(lam)
    if kind == "SO":
        group_order = 2 * so_order(N, q)  # the form is split for even N
    else:
        group_order = sp_order(N, q)
    blocks = _block_slices(lam, pair_even=(kind == "SO"))
    # one scalable block per symmetric-induced part value
    scalable = {}
    for part, start, width in blocks:
        if part in symmetric_parts and part not in scalable:
            scalable[part] = (start, width)
    delta = _nonsquare(q)
    total = 0
    found_any = False
    for mask in range(1 << len(scalable)):
        fe = f.copy()
        for bit, (part, (start, width)) in enumerate(sorted(scalable.items())):
            if mask >> bit & 1:
                fe = _scale_block(fe, start, width, delta, q)
        if alternating:
            ok = True  # all alternating forms are equivalent
        else:
            ok = _symmetric_forms_equivalent(fe, f, q)
        if not ok:
            continue
        stab = stabilizer_order_layered(x, fe, q, budget)
        if stab is None:
            stab = stabilizer_order_by_enumeration(x, fe, q, budget)
        if stab is not None:
            assert group_order % stab == 0
            total += group_order // stab
            found_any = True
            continue
        transport = _symplectic_transport(fe, f, q) if alternating else _symmetric_transport(fe, f, q)
        y = (transport @ x @ inv_mod(transport, q)) % q
        size = orbit_size_by_isometries(y, f, q, alternating=alternating, budget=budget)
        if size is None:
            return None
        total += size
        found_any = True
    return total if found_any else None


def so_class_size(lam: tuple[int, ...], q: int, budget: int = 2 * 10**6) -> int | None:
    """Points of the type-lam nilpotent class in the orthogonal Lie algebra
    of so_form_and_nilpotent(lam, q): split for even N."""
    return _class_point_count_isometry("SO", lam, q, budget)


def sp_class_size(lam: tuple[int, ...], q: int, budget: int = 2 * 10**6) -> int | None:
    return _class_point_count_isometry("Sp", lam, q, budget)


def slope_estimate(c3: int, c5: int) -> float:
    return math.log(c5 / c3) / math.log(5 / 3)


def single_point_estimate(count: int, q: int) -> float:
    return math.log(count) / math.log(q)


# ---------------------------------------------------------------------------
# Hall numbers


def hall_number_row(lam: tuple[int, ...], nu: tuple[int, ...], d: int, Q: int) -> Fraction:
    """g^lam_{nu,(d)}(Q): submodules W of type (d) with quotient of type nu
    in the F_Q[t]-module of type lam.  Partitions are increasing tuples.

    Zero unless theta = lam - nu is a horizontal d-strip; otherwise
    Q^{n(lam)-n(nu)} (1 - 1/Q)^{-1} prod_{i in I} (1 - Q^{-m_i(lam)}), with
    n(mu) = sum (i-1) mu_i over the parts in decreasing order, m_i the
    multiplicity of the part i, and I the columns i with theta'_i = 1 and
    theta'_{i+1} = 0 (theta'_i the number of boxes of theta in column i).
    """
    lam_desc = sorted(lam, reverse=True)
    nu_desc = sorted(nu, reverse=True)
    if sum(lam_desc) - sum(nu_desc) != d or len(nu_desc) > len(lam_desc):
        return Fraction(0)
    nu_desc += [0] * (len(lam_desc) - len(nu_desc))
    if any(b > a for a, b in zip(lam_desc, nu_desc)):
        return Fraction(0)
    top = lam_desc[0] if lam_desc else 0
    theta_cols = [
        sum(1 for a in lam_desc if a >= i) - sum(1 for b in nu_desc if b >= i) for i in range(1, top + 2)
    ]
    if any(t > 1 for t in theta_cols):
        return Fraction(0)
    mult = Counter(lam_desc)
    columns = [i for i in range(1, top + 1) if theta_cols[i - 1] == 1 and theta_cols[i] == 0]

    def n_of(desc: list[int]) -> int:
        return sum(i * part for i, part in enumerate(desc))

    g = Fraction(Q) ** (n_of(lam_desc) - n_of(nu_desc)) / (1 - Fraction(1, Q))
    for i in columns:
        g *= 1 - Fraction(1, Q ** mult[i])
    return g


# ---------------------------------------------------------------------------
# line strata by walk


def line_strata_by_walk(data) -> Counter:
    """The lines W of ker x for the split datum, tallied by the type of x
    on V/W, as `varieties.sl_stratum_analysis` counted them before it
    typed one line per centralizer orbit: every line is listed and typed."""
    K, x = data.field, data.nilpotent
    pows = vr.power_images(data.la)
    return Counter(vr.quotient_type(K, x, w, pows) for w in vr.cyclic_subspaces(K, x, 1))


# ---------------------------------------------------------------------------
# cyclic subspaces by stacked orbits


def cyclic_subspaces_by_stacks(K, x, d: int) -> list:
    """The d-dimensional x-cyclic subspaces along the kernel filtration,
    as `varieties.cyclic_subspaces` walked them before x W was cleared
    once per generator block: the generator's orbit (v | x v | ... |
    x^(d-1) v) is a running sum of stacked rows, and each W is the
    echelon form of its d slices; the list is sorted at the end, for
    d = 1 too."""
    n = len(x)
    if d < 1 or d > n:
        return []
    kernels, power = [(), la.nullspace(K, x)], x
    while len(kernels) <= d:
        power = la.mat_mul(K, power, x)
        kernels.append(la.nullspace(K, power))
    comp = la.extend_basis(K, kernels[d - 1], kernels[d])
    if d == 1:
        return sorted((c,) for c in la.line_representatives(K, comp))

    def orbit(v):
        vs = [v]
        while len(vs) < d:
            vs.append(la.mat_vec(K, x, vs[-1]))
        return vs

    layers = [la.extend_basis(K, kernels[j - 1], kernels[j]) for j in range(1, d)]
    stacks = {r: sum(orbit(r), ()) for layer in layers for r in layer}
    out = []
    for c in la.line_representatives(K, comp):
        c_orbit = orbit(c)
        rows = tuple(
            stacks[r]
            for j, layer in enumerate(layers, 1)
            for r in la.extend_basis(K, kernels[j - 1] + (c_orbit[d - j],), layer)
        )
        coeffs = [K.elements()] * len(rows) + [(1,)]
        for s in la.span_vectors(K, rows + (sum(c_orbit, ()),), coeffs):
            out.append(la.echelon_basis(K, [s[i : i + n] for i in range(0, n * d, n)]))
    return sorted(out)


# ---------------------------------------------------------------------------
# centralizer units by scan


def centralizer_unit_scan(x, K, bound: int = vr.DEFAULT_BUDGET) -> vr.CentralizerUnits:
    """The whole unit group of {m : m x = x m}, by a scan of its q^dim
    elements; VarietyBudgetError when q^dim exceeds the bound."""
    n = len(x)
    basis_flat = ofl.commutant_basis(x, K)
    dim = len(basis_flat)
    if K.q**dim > bound:
        raise vr.VarietyBudgetError(f"{K.q**dim} algebra elements exceed budget {bound}")
    units = []
    for flat in la.span_vectors(K, basis_flat, [K.elements()] * dim):
        mm = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if la.det(K, mm):
            units.append(mm)
    return vr.CentralizerUnits(dimension=dim, units=tuple(units))


def orbit_decomposition_by_scan(flags, units: vr.CentralizerUnits, K) -> vr.OrbitDecomposition:
    """Orbits on the flag list as the images of each seed (the least flag
    left) under every member of units, which must be the whole group."""
    index = {(f.W, f.Wp): f for f in flags}
    remaining = set(index.keys())
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit_keys = set()
        for g in units.units:
            wk = la.echelon_basis(K, la.mat_mul(K, index[seed].W, la.transpose(g)))
            wpk = la.echelon_basis(K, la.mat_mul(K, index[seed].Wp, la.transpose(g)))
            key = (wk, wpk)
            if key in index:
                orbit_keys.add(key)
        if not orbit_keys:
            orbit_keys = {seed}
        types = {index[k].type_mod_W for k in orbit_keys}
        if len(types) != 1:
            raise AssertionError("orbit invariant is not constant")
        orbits.append((tuple(sorted(orbit_keys)), types.pop()))
        remaining -= orbit_keys
    return vr.OrbitDecomposition(orbits=tuple(orbits))
