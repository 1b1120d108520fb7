"""Explicit split flags and the pair cases: references for the flag varieties.

For each removal case of a pair (lambda, lambda') the paper writes down
rational flags by hand; `split_flag_sl` and `split_flag_so` build them
and re-check every defining condition (`verify_flag_sl`,
`verify_flag_so`), and the tests find each among the flags the package
enumerates.  The pair cases are classified here (`classify_pair_sl`,
`classify_pair_spin`), since only these explicit flags read their
pivots.  `flag_frobenius_sl` is the duality-twisted Frobenius on SL
flags, whose square is the plain q^2-power map; `frob0`, the echelon
form of the q-power image, is the plain form of the entrywise
F-stability check.
The section on the enumeration keeps the plain forms of the
cyclic-subspace enumeration, quotient and subquotient types, basis
extension, span vectors and the subfield F_q of F_{q^2} that the
library shortcuts, with the matrix inverse, a linear solve, the
restriction to a stable subspace (which the definition checks read),
the commutant of a matrix as a nullspace (the reference for the
centralizer dimension and the unit scan) and a Jordan-shift builder
written apart from `split`.  The last section finds each block of the
twisted SL Hermitian form by solving its linear conditions over F_q in
F_q-coordinates on F_{q^2}: the reference for split's walk over the
block's antidiagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from springer import flinalg as la
from springer import varieties as vr
from springer.partitions import Partition, check_partition, normalize
from springer.split import SplitSLData, SplitSOData, jordan_chains

# ---------------------------------------------------------------------------
# pair cases


@dataclass(frozen=True)
class PairCaseSL:
    """Matching case for (mu, mu') with |mu| - |mu'| = 2.

    tag "I": one part drops by 2; "II": two equal parts drop by 1 each;
    "III": two distinct parts drop by 1 each.  pivots holds (i,) or (i, j),
    1-based indices into mu.
    """

    tag: str
    pivots: tuple[int, ...]


def classify_pair_sl(mu: Partition, mup: Partition) -> Optional[PairCaseSL]:
    """Two-box removal pattern between mu and mu', or None.

    The pattern is read off the Young diagrams (descending rows): a
    horizontal pair in one row is case I, a vertical pair (two equal
    parts each losing a box) is case II, two boxes in distinct rows and
    columns is case III.  The explicit SL flags are built from its
    pivots, and its tag is the reference for the tag `branch_two_step`
    reads off the removal paths.
    """
    mu = check_partition(mu)
    mup = check_partition(mup)
    if sum(mu) - sum(mup) != 2:
        return None
    desc = sorted(mu, reverse=True)
    descp = sorted(mup, reverse=True) + [0] * (len(mu) - len(mup))
    if len(descp) > len(desc):
        return None
    diffs = [a - b for a, b in zip(desc, descp)]
    if any(d < 0 for d in diffs):
        return None
    changed = [r for r, d in enumerate(diffs) if d]

    def asc_index(desc_row: int) -> int:
        # 1-based index of the same part in the ascending presentation;
        # among equal parts take the first ascending slot not yet used.
        return len(mu) - desc_row

    if len(changed) == 1 and diffs[changed[0]] == 2:
        return PairCaseSL(tag="I", pivots=(asc_index(changed[0]),))
    if len(changed) == 2 and all(diffs[r] == 1 for r in changed):
        r1, r2 = changed
        i1, i2 = sorted((asc_index(r1), asc_index(r2)))
        if desc[r1] == desc[r2]:
            return PairCaseSL(tag="II", pivots=(i1,))
        return PairCaseSL(tag="III", pivots=(i1, i2))
    return None



@dataclass(frozen=True)
class PairCaseSpin:
    """Matching case for a pair (la, la') with |la| - |la'| = 4.

    tag is one of "I", "II", "III", "IV", "V"; pivot is the 1-based
    index i in la.  Tag III is recognized (it has a distinct removal
    pattern) but marked unsupported: no downstream construction uses it.
    """

    tag: str
    pivot: int
    supported: bool = True


_SPIN_CASE_ORDER = ("I", "II", "III", "IV", "V")


def _spin_case_matches(la: Partition, lap: Partition, tag: str, i: int) -> bool:
    """Whether the tag's inequalities hold at pivot i and the part drops
    produce la' (as a multiset).  i is 1-based; la_0 is treated as 0."""
    k = len(la)

    def part(j: int) -> int:
        return la[j - 1] if 1 <= j <= k else 0

    drops: dict[int, int]
    if tag == "I":
        if i < 1 or i > k:
            return False
        if part(i) % 2 == 0 or not part(i) > part(i - 1) + 4:
            return False
        drops = {i: 4}
    elif tag == "II":
        if i < 1 or i + 1 > k:
            return False
        if part(i) != part(i + 1) or not part(i) >= part(i - 1) + 2:
            return False
        drops = {i: 2, i + 1: 2}
    elif tag == "III":
        if i < 1 or i + 1 > k:
            return False
        if part(i) != part(i + 1) or not part(i) >= part(i - 1) + 4:
            return False
        drops = {i: 3, i + 1: 1}
    elif tag == "IV":
        if i < 1 or i + 1 > k:
            return False
        if part(i + 1) - 2 != part(i) or not part(i) >= part(i - 1) + 1:
            return False
        drops = {i: 1, i + 1: 3}
    elif tag == "V":
        if i < 1 or i + 2 > k:
            return False
        if not (part(i + 2) == part(i + 1) == part(i) + 1):
            return False
        drops = {i: 1, i + 1: 2, i + 2: 1}
    else:
        raise ValueError(f"unknown spin case tag {tag}")
    new_parts = [part(j) - drops.get(j, 0) for j in range(1, k + 1)]
    if any(x < 0 for x in new_parts):
        return False
    return normalize(new_parts) == tuple(lap)


def match_pair_spin_all(la: Partition, lap: Partition) -> list[tuple[str, int]]:
    """Every (tag, pivot) whose inequalities and removal pattern match."""
    la = check_partition(la)
    lap = check_partition(lap)
    out = []
    if sum(la) - sum(lap) != 4:
        return out
    for tag in _SPIN_CASE_ORDER:
        for i in range(1, len(la) + 1):
            if _spin_case_matches(la, lap, tag, i):
                out.append((tag, i))
    return out


def classify_pair_spin(la: Partition, lap: Partition) -> Optional[PairCaseSpin]:
    """The unique case tag for the pair, with the smallest matching pivot.

    Returns None when no case applies.  A pair matching two different
    tags would be an error; none occur for N <= 20 and the constraint is
    enforced.  Case III pairs are returned with supported=False.
    """
    matches = match_pair_spin_all(la, lap)
    if not matches:
        return None
    tags = sorted({t for t, _ in matches})
    if len(tags) > 1:
        raise ValueError(f"ambiguous spin case for {la} -> {lap}: tags {tags}")
    tag = tags[0]
    pivot = min(i for t, i in matches if t == tag)
    return PairCaseSpin(tag=tag, pivot=pivot, supported=tag != "III")


# ---------------------------------------------------------------------------
# defining conditions


def _span_contains(K, big: la.Matrix, small: la.Matrix) -> bool:
    return all(in_span(K, big, v) for v in small)


def verify_flag_sl(data: SplitSLData, d: int, lap: Partition, flag: vr.Flag) -> bool:
    """Independent re-check of every defining condition of a flag."""
    K = data.field
    x = data.nilpotent
    n = len(x)
    W, Wp = flag.W, flag.Wp
    if len(W) != d or len(Wp) != n - d:
        return False
    if not _span_contains(K, Wp, W):
        return False
    for basis in (W, Wp):
        for v in basis:
            if not in_span(K, basis, la.mat_vec(K, x, v)):
                return False
    if la.jordan_partition(K, restrict_to_subspace(K, x, W)) != (d,):
        return False
    if la.jordan_partition(K, action_between(K, x, W, Wp)) != tuple(lap):
        return False
    if la.jordan_partition(K, la.quotient_action(K, x, Wp)[0]) != (d,):
        return False
    return True


def gram(K, form: la.Matrix, u: la.Vector, v: la.Vector) -> int:
    """The pairing u . form . v: the plain form of the isotropy test in
    `varieties.enumerate_flags_so`."""
    return la.mat_vec(K, (u,), la.mat_vec(K, form, v))[0]


def verify_flag_so(data: SplitSOData, lap: Partition, flag: vr.SOFlag) -> bool:
    K = data.field
    x = data.nilpotent
    E = flag.E
    if len(E) != 2:
        return False
    for v in E:
        if not in_span(K, E, la.mat_vec(K, x, v)):
            return False
    restr = restrict_to_subspace(K, x, E)
    if all(v == 0 for row in restr for v in row):
        return False
    for u in E:
        for v in E:
            if gram(K, data.form, u, v):
                return False
    eperp = la.nullspace(K, la.mat_mul(K, E, data.form))
    if not _span_contains(K, eperp, E):
        return False
    return la.jordan_partition(K, action_between(K, x, E, eperp)) == tuple(lap)


def _perp(data: SplitSLData, basis: la.Matrix) -> la.Matrix:
    """{v : Psi(u, v) = 0 for u in span}: conj of the nullspace of U A."""
    K = data.field
    if not basis:
        return la.identity(K, len(data.form))
    ua = la.mat_mul(K, basis, data.form)
    ns = la.nullspace(K, ua)
    conj = tuple(tuple(data.conj(c) for c in row) for row in ns)
    return la.echelon_basis(K, conj)


def frob0(data: SplitSLData, basis: la.Matrix) -> la.Matrix:
    """Echelon basis of the image of the span under the q-power map."""
    K = data.field
    q = K.p**data.qexp
    return la.echelon_basis(K, tuple(tuple(K.pow(c, q) for c in row) for row in basis))


def flag_frobenius_sl(data: SplitSLData, flag: vr.Flag) -> tuple[la.Matrix, la.Matrix]:
    """The duality-twisted Frobenius on flags of type (d, n-d).

    (W, W') maps to (B ann(F0 W'), B ann(F0 W)) with B the inverse of
    the conjugated form; this is the self-map of the flag variety whose
    composite with itself is the plain q^2-power map.  It interchanges
    the roles of the V/W and W' Jordan data, so stratum labels are not
    preserved by it in general.
    """
    K = data.field
    Abar = data.conj_mat(data.form)
    Binv = inverse(K, Abar)

    def image(basis: la.Matrix, outdim: int) -> la.Matrix:
        src = frob0(data, basis)
        ann = la.nullspace(K, src) if src else la.identity(K, len(data.form))
        rows = tuple(la.mat_vec(K, Binv, v) for v in ann)
        out = la.echelon_basis(K, rows)
        assert len(out) == outdim
        return out

    n = len(data.form)
    return image(flag.Wp, len(flag.W)), image(flag.W, n - len(flag.W))


# ---------------------------------------------------------------------------
# explicit split flags


def _completion_for_w(data: SplitSLData, x: la.Matrix, pows, w: la.Matrix, d: int, lap: Partition) -> la.Matrix:
    """The partner W' for an explicit W: the perp of W when that works
    (the usual situation), else the least valid completion from the
    fibre, preferring q-rational ones.

    The perp degenerates exactly for case III pivots whose row has bare
    multiplicity (the short block pairs with itself); the fibre over
    such a W is still nonempty and tiny, so it is enumerated.
    """
    K = data.field
    n = len(x)
    if 2 * d == n:
        return w
    wp = _perp(data, w)
    if _span_contains(K, wp, w):
        if la.jordan_partition(K, action_between(K, x, w, wp)) == tuple(lap):
            if vr.quotient_type(K, x, wp, pows) == (d,):
                return wp
    candidates = [wp for wp, _ in vr._completions(K, x, w, d, {tuple(lap)})]
    if not candidates:
        raise AssertionError("no completion W' exists for the explicit flag")
    rational = [c for c in candidates if frob0(data, c) == c]
    pool = rational if rational else candidates
    return min(pool)


def _rational_flag_same_stratum(data: SplitSLData, d: int, lap: Partition, target_nu: Partition) -> Optional[vr.Flag]:
    """Least flag with q-rational subspaces in the given stratum, if any."""
    K = data.field
    x = data.nilpotent
    pows = vr.power_images(data.la)
    sub = subfield_elements(K, data.qexp)
    kd = kernel_of_power(K, x, d)
    best = None
    seen = set()
    for v in la.span_vectors(K, la.mat(kd), [sub] * len(kd)):
        if not any(v):
            continue
        w = cyclic_span(K, x, v, d)
        if w is None or w in seen:
            continue
        seen.add(w)
        if vr.quotient_type(K, x, w, pows) != tuple(target_nu):
            continue
        try:
            wp = _completion_for_w(data, x, pows, w, d, lap)
        except AssertionError:
            continue
        flag = vr.Flag(W=w, Wp=wp, type_quotient=tuple(lap), type_mod_W=tuple(target_nu))
        if not verify_flag_sl(data, d, lap, flag):
            continue
        if vr.is_f_stable(data, flag.W, flag.Wp):
            if best is None or (flag.W, flag.Wp) < (best.W, best.Wp):
                best = flag
    return best


def split_flag_sl(data: SplitSLData, d: int, lap: Partition, case) -> list[vr.Flag]:
    """The explicit rational flags of the three removal cases.

    Case I: W spanned by the first d Jordan vectors of the pivot part.
    Case II: W generated from an isotropic vector of the auxiliary form
    <v, w> = Psi(v, x^{h-1} w) on the top layer of the two equal parts.
    Case III: both flags, from alpha e_1 + e'_1 with alpha = 1 and 0.
    Each output flag is re-checked against the defining conditions.
    """
    K = data.field
    x = data.nilpotent
    n = len(x)
    chains = jordan_chains(data.la)
    pows = vr.power_images(data.la)

    def unit_vec(k, j):
        t = chains[k - 1][j - 1]
        return tuple(1 if i == t else 0 for i in range(n))

    def flag_from_w(wvecs) -> vr.Flag:
        w = la.echelon_basis(K, wvecs)
        wp = _completion_for_w(data, x, pows, w, d, lap)
        type_w = la.jordan_partition(K, restrict_to_subspace(K, x, w))
        type_top = vr.quotient_type(K, x, wp, pows)
        if type_w != (d,) or type_top != (d,):
            raise AssertionError(f"x is not regular on W ({type_w}) or on V/W' ({type_top})")
        return vr.Flag(
            W=w,
            Wp=wp,
            type_quotient=la.jordan_partition(K, action_between(K, x, w, wp)),
            type_mod_W=vr.quotient_type(K, x, w, pows),
        )

    out = []
    if case.tag == "I":
        i = case.pivots[0]
        out.append(flag_from_w([unit_vec(i, j) for j in range(1, d + 1)]))
    elif case.tag == "II":
        i = case.pivots[0]
        h = data.la[i - 1]
        # auxiliary form on <v_{i,h}, v_{i+1,h}>
        tops = [unit_vec(i, h), unit_vec(i + 1, h)]
        xpow = mat_pow(K, x, h - 1)
        q = K.p**data.qexp

        def aux(vv, ww):
            return gram(K, data.form, vv, tuple(data.conj(c) for c in la.mat_vec(K, xpow, ww)))

        def rational(v):
            return all(K.pow(c, q) == c for c in v)

        iso = [v for v in la.line_representatives(K, la.mat(tops)) if aux(v, v) == 0]
        if not iso:
            raise AssertionError("no isotropic vector for the auxiliary form")
        iso.sort(key=lambda v: (not rational(v), v))
        vec = iso[0]
        chain = [vec]
        cur = vec
        for _ in range(h - 1):
            cur = la.mat_vec(K, x, cur)
            chain.append(cur)
        # x^{h-1} v, ..., x^{h-d} v
        wvecs = chain[h - d : h][::-1] if d > 0 else []
        flag = flag_from_w(wvecs)
        if not vr.is_f_stable(data, flag.W, flag.Wp):
            rat = _rational_flag_same_stratum(data, d, lap, flag.type_mod_W)
            if rat is not None:
                flag = rat
        out.append(flag)
    elif case.tag == "III":
        i, j = case.pivots
        for alpha, label in ((1, "nu"), (0, "nu_prime")):
            wvecs = []
            for t in range(1, d + 1):
                ei = unit_vec(i, t)
                ej = unit_vec(j, t)
                v = tuple(K.add(K.mul(alpha, a), b) for a, b in zip(ei, ej))
                wvecs.append(v)
            out.append(flag_from_w(wvecs))
    else:
        raise ValueError(f"unsupported SL case {case.tag}")
    for f in out:
        if not verify_flag_sl(data, d, lap, f):
            raise AssertionError("explicit split flag fails the defining conditions")
    return out


def split_flag_so(data: SplitSOData, lap: Partition, case) -> list[vr.SOFlag]:
    """Explicit isotropic planes for the supported orthogonal cases.

    Case I: the first two vectors of the pivot block.  Case IV: the two
    planes <e_1, e_2 +- e'_1>.  Case V: the beta family with
    alpha = beta^2 (e'_1, e'_{h-1}) / 2, including beta = 0.
    """
    K = data.field
    x = data.nilpotent
    n = len(x)
    # part index -> (first coordinate of its chain, part); pair blocks hold two chains
    starts = {j: (c[0], len(c)) for j, c in enumerate(jordan_chains(data.la), start=1)}

    def unit(start, a):
        # a is 1-based within the chain
        return tuple(1 if i == start + a - 1 else 0 for i in range(n))

    def make(vecs) -> vr.SOFlag:
        return vr._so_flag(data, la.echelon_basis(K, vecs))

    out = []
    if case.tag == "I":
        s, h = starts[case.pivot]
        out.append(make([unit(s, 1), unit(s, 2)]))
    elif case.tag == "IV":
        i = case.pivot
        s_low, h_low = starts[i]  # smaller odd part, size h - 2
        s_hi, h = starts[i + 1]  # larger odd part, size h
        e1 = unit(s_hi, 1)
        e2 = unit(s_hi, 2)
        ep1 = unit(s_low, 1)
        for sign in (1, -1):
            v = tuple(K.add(a, b if sign == 1 else K.neg(b)) for a, b in zip(e2, ep1))
            out.append(make([e1, v]))
    elif case.tag == "V":
        i = case.pivot
        s_odd, h_odd = starts[i]  # odd part of size h - 1
        s_e, h = starts[i + 1]  # first chain of the even pair
        s_f, _ = starts[i + 2]  # second chain
        e1 = unit(s_e, 1)
        e2 = unit(s_e, 2)
        f1 = unit(s_f, 1)
        ep1 = unit(s_odd, 1)
        ep_last = unit(s_odd, h_odd)
        pairing = gram(K, data.form, ep1, ep_last)
        half = K.inv(K.scalar(2))
        # isotropy of <e_1, e_2 + z> forces alpha = -beta^2 (e'_1, e'_{h-1})/2
        # with the block pairings of the assembled form
        for beta in K.elements():
            alpha = K.neg(K.mul(K.mul(K.mul(beta, beta), pairing), half))
            z = tuple(
                K.add(K.add(a, K.mul(alpha, b)), K.mul(beta, c)) for a, b, c in zip(e2, f1, ep1)
            )
            out.append(make([e1, z]))
    else:
        raise ValueError(f"unsupported SO case {case.tag}")
    for f in out:
        if not verify_flag_so(data, lap, f):
            raise AssertionError("explicit split flag fails the defining conditions")
    return out


# ---------------------------------------------------------------------------
# the enumeration before its per-subspace shortcuts
#
# `varieties` and `flinalg` skip work the algebra makes redundant: no
# span is rebuilt or deduplicated, quotient ranks come from W's rows in
# the quotient coordinates of the power images, row operations touch
# nonzero entries only, span vectors (line representatives included)
# are running sums, a basis is extended by one reduction per candidate,
# a subquotient's Jordan type is read off ranks without building the
# induced matrix, and F_q inside F_{q^2} is not scanned.
# These are the plain forms they replaced, kept as the references the
# shortcuts must reproduce exactly (order included).


def subfield_elements(K, d: int) -> list[int]:
    """F_{p^d} inside F_{p^k}, d | k, by testing a^(p^d) = a on every
    element: the scan that `split` replaced by subfield coordinates in
    closed form."""
    if K.k % d:
        raise ValueError(f"F_{K.p}^{d} is not a subfield of F_{K.p}^{K.k}")
    return [a for a in K.elements() if K.pow(a, K.p**d) == a]


def subfield_coords(K2, qexp: int):
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


def rref_plain(K, a: la.Matrix) -> tuple[la.Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns by Gauss-Jordan on
    whole rows: the pivot row is scaled and every other row has its
    multiple taken away entry by entry, zeros included; zero rows are
    dropped."""
    rows = [list(r) for r in a]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(inv, y) for y in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [K.sub(y, K.mul(f, z)) for y, z in zip(rows[i], rows[r])]
        pivots.append(c)
    return la.mat(rows[: len(pivots)]), tuple(pivots)


def det_by_cofactors(K, a: la.Matrix) -> int:
    """The determinant by Laplace expansion along the first remaining row,
    with no elimination: det of rows i.. on the columns cols is the sum
    over c in cols of (-1)^(index of c in cols) a[i][c] times det of rows
    i + 1.. on cols without c.  Minors are memoised on their column sets,
    so an n x n matrix costs n 2^n terms, not n!."""
    memo = {(): 1}

    def minor(cols: tuple[int, ...]) -> int:
        if cols not in memo:
            i = len(a) - len(cols)
            total = 0
            for t, c in enumerate(cols):
                if f := a[i][c]:
                    term = K.mul(f, minor(cols[:t] + cols[t + 1 :]))
                    total = K.add(total, K.neg(term) if t % 2 else term)
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(len(a))))


def rank(K, a: la.Matrix) -> int:
    return len(la.rref(K, a)[0])


def in_span(K, basis: la.Matrix, v: la.Vector) -> bool:
    """Membership by one echelon form of the basis with v appended."""
    if not any(v):
        return True
    if not basis:
        return False
    return rank(K, basis + (v,)) == len(basis)


def extend_basis_by_span(K, small: la.Matrix, big: la.Matrix) -> la.Matrix:
    """Rows of big, chosen greedily in order, each kept when it is not in
    the span of small and the rows already kept."""
    cur = list(small)
    out = []
    for v in big:
        if not in_span(K, la.mat(cur), v):
            cur.append(v)
            out.append(v)
    return la.mat(out)


def jordan_partition_by_powers(K, a: la.Matrix) -> Partition:
    """Jordan type of a nilpotent matrix from the ranks of its powers,
    each power multiplied out and brought to echelon form."""
    ranks, power = [len(a)], la.identity(K, len(a))
    while ranks[-1]:
        if len(ranks) > len(a):
            raise ValueError("matrix is not nilpotent")
        power = la.mat_mul(K, power, a)
        ranks.append(rank(K, power))
    return la.partition_from_ranks(tuple(ranks))


def restrict_to_subspace(K, a: la.Matrix, basis: la.Matrix) -> la.Matrix:
    """Matrix of the action of a on the subspace, in the given basis, one
    solve per basis vector; raises when the subspace is not a-stable."""
    cols = []
    for v in basis:
        coords = solve(K, la.transpose(basis), la.mat_vec(K, a, v))
        if coords is None:
            raise ValueError("subspace is not stable under the matrix")
        cols.append(coords)
    return la.transpose(la.mat(cols))


def action_between(K, a: la.Matrix, small: la.Matrix, big: la.Matrix) -> la.Matrix:
    """Matrix of a on span(big)/span(small) for a-stable nested spans, in
    the basis of the rows of big that extend small; raises when big is
    not a-stable."""
    chosen = extend_basis_by_span(K, small, big)
    full = tuple(small) + chosen
    k = len(small)
    cols = []
    for v in chosen:
        coords = solve(K, la.transpose(full), la.mat_vec(K, a, v))
        if coords is None:
            raise ValueError("big subspace is not stable under the matrix")
        cols.append(coords[k:])
    return la.transpose(la.mat(cols))


def span_vectors_by_product(K, basis: la.Matrix, coeffs=None):
    """Every combination of the rows, row i taking its coefficient from
    coeffs[i] (all of K by default) and the coefficient of row 0 varying
    fastest, each vector summed row by row from scratch."""
    if not basis:
        yield ()
        return
    n = len(basis[0])
    if coeffs is None:
        coeffs = [K.elements()] * len(basis)
    for cs in product(*reversed(coeffs)):
        v = [0] * n
        for cf, row in zip(reversed(cs), basis):
            if cf:
                for j, rv in enumerate(row):
                    if rv:
                        v[j] = K.add(v[j], K.mul(cf, rv))
        yield tuple(v)


def line_representatives_by_sum(K, basis: la.Matrix):
    """One vector per line of the span, lead row plus each vector of the
    span of the rows below it, added entry by entry; leads from the last
    row to the first, and the rows below a lead varying with the last row
    fastest."""
    for lead in range(len(basis) - 1, -1, -1):
        for w in span_vectors_by_product(K, basis[:lead:-1]):
            yield tuple(K.add(a, b) for a, b in zip(basis[lead], w)) if w else basis[lead]


def power_images_by_rref(K, x: la.Matrix) -> list:
    """Echelon bases of im(x^k) for k = 0..n + 1 (index 0 unused)."""
    n = len(x)
    out = [None]
    cur = x
    for _ in range(n):
        img = la.echelon_basis(K, la.transpose(cur))
        out.append(img)
        if not img:
            break
        cur = la.mat_mul(K, cur, x)
    while len(out) <= n + 1:
        out.append(())
    return out


def quotient_type_by_rref(K, x: la.Matrix, w_basis: la.Matrix, pow_images=None) -> Partition:
    """Jordan type of x on V / W from the echelon form of im(x^k) + W at
    every k; pow_images is power_images_by_rref(K, x) when given."""
    n = len(x)
    d = len(w_basis)
    if pow_images is None:
        pow_images = power_images_by_rref(K, x)
    ranks = [n - d]
    for img in pow_images[1 : n + 1]:
        ranks.append(len(la.echelon_basis(K, img + w_basis)) - d if img else 0)
    return la.partition_from_ranks(tuple(ranks))


def mat_pow(K, a: la.Matrix, e: int) -> la.Matrix:
    out = la.identity(K, len(a))
    for _ in range(e):
        out = la.mat_mul(K, out, a)
    return out


def inverse(K, a: la.Matrix) -> la.Matrix:
    """The inverse of a square matrix, by reducing [a | 1]."""
    n = len(a)
    aug = tuple(ra + tuple(1 if i == j else 0 for j in range(n)) for i, ra in enumerate(a))
    red, pivots = la.rref(K, aug)
    if len(red) != n or pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in red)


def solve(K, a: la.Matrix, b: la.Vector) -> Optional[la.Vector]:
    """One solution of a x = b with free variables set to zero, or None."""
    if not a:
        return None
    ncols = len(a[0])
    aug = tuple(row + (bv,) for row, bv in zip(a, b))
    red, pivots = la.rref(K, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def commutant_basis(x: la.Matrix, K) -> la.Matrix:
    """A basis of {m : m x = x m}, each m flattened row by row: the
    nullspace of the commutator equations.  The reference for the
    dimension varieties.centralizer_units counts in closed form."""
    n = len(x)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for t in range(n):
                # (M x - x M)[i][j] = sum_t M[i][t] x[t][j] - x[i][t] M[t][j]
                row[i * n + t] = K.add(row[i * n + t], x[t][j])
                row[t * n + j] = K.sub(row[t * n + j], x[i][t])
            rows.append(tuple(row))
    return la.nullspace(K, la.mat(rows))


def nilpotent_of_type(lam: Partition) -> la.Matrix:
    """The shift of Jordan type lam with chain k on coordinates
    lam_1 + ... + lam_{k-1} onwards, each sent one coordinate down."""
    n = sum(lam)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for h in lam:
        for a in range(1, h):
            rows[start + a - 1][start + a] = 1
        start += h
    return la.mat(rows)


def kernel_of_power(K, x: la.Matrix, k: int) -> la.Matrix:
    return la.nullspace(K, mat_pow(K, x, k))


def cyclic_span(K, x: la.Matrix, v: la.Vector, d: int) -> Optional[la.Matrix]:
    """Echelon basis of <x^{d-1} v, ..., v>, or None unless it is
    d-dimensional and killed by x^d."""
    vecs = []
    cur = v
    for _ in range(d):
        vecs.append(cur)
        cur = la.mat_vec(K, x, cur)
    if any(cur):
        return None
    basis = la.echelon_basis(K, vecs)
    if len(basis) != d:
        return None
    return basis


def cyclic_subspaces_by_span(K, x: la.Matrix, d: int) -> list[la.Matrix]:
    """The d-dimensional cyclic subspaces, each rebuilt as the span of a
    generator's x-orbit, over every generator c + w with c a line
    representative of a complement of ker x^(d-1) in ker x^d and w in
    ker x^(d-1); duplicates are removed by canonical form."""
    if d < 1 or d > len(x):
        return []
    kd = kernel_of_power(K, x, d)
    kdm1 = kernel_of_power(K, x, d - 1)
    out, seen = [], set()
    for c in line_representatives_by_sum(K, extend_basis_by_span(K, kdm1, kd)):
        for w in la.span_vectors(K, kdm1, [K.elements()] * len(kdm1)):
            v = tuple(K.add(a, b) for a, b in zip(c, w)) if w else c
            sp = cyclic_span(K, x, v, d)
            if sp is not None and sp not in seen:
                seen.add(sp)
                out.append(sp)
    return sorted(out)


# ---------------------------------------------------------------------------
# the twisted SL Hermitian block by a linear solve


def hermitian_block_by_solve(K2, qexp: int, h: int) -> la.Matrix:
    """The h x h Hermitian block preserved by the Jordan shift unipotent,
    as the solution of its linear conditions in 2h^2 unknowns over F_q
    (the two coordinates of each entry in the basis 1, beta).

    Prescribes B[j, h+1-j] = (-1)^{j+1} * c_h on the antidiagonal
    (c_h = 1 for odd h or p = 2, the least trace-zero scalar otherwise)
    and solves the invariance + Hermitian conditions, free variables set
    to zero.  The reference for split's walk over the antidiagonals.
    """
    beta, coords = subfield_coords(K2, qexp)
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
    sol = solve(K2, la.mat(rows), tuple(rhs))
    if sol is None:
        raise AssertionError(f"no invariant Hermitian form with the prescribed antidiagonal (h={h})")
    B = [[0] * h for _ in range(h)]
    for i in range(h):
        for j in range(h):
            c0 = sol[var(i, j, 0)]
            c1 = sol[var(i, j, 1)]
            B[i][j] = K2.add(c0, K2.mul(c1, beta))
    return la.mat(B)
