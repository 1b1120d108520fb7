"""Point-count and nullspace oracles against the class-dimension formulas."""

import numpy as np

import oracles as orc
from springer import partitions as pt


def _sp_valid(lam):
    return sum(lam) % 2 == 0 and all(m % 2 == 0 for part, m in pt.multiplicities(lam).items() if part % 2 == 1)


def test_group_order_formulas_micro_validated():
    # brute-force the tiniest groups straight from the definitions
    p = 3
    gl2 = sum(
        1
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p
    )
    assert gl2 == orc.gl_order(2, 3) == 48
    # SO_3(F_3): orthogonal 3x3 with the oracle's own form, det 1
    f, _ = orc.so_form_and_nilpotent((3,), p)
    count = 0
    for flat in range(p**9):
        m = np.array([(flat // p**i) % p for i in range(9)], dtype=np.int64).reshape(3, 3)
        if ((m.T @ f @ m) % p == f).all() and orc.det_mod(m, p) == 1:
            count += 1
    assert count == orc.so_order(3, 3) == 24
    # Sp_2(F_3) = SL_2(F_3)
    fsp, _ = orc.sp_form_and_nilpotent((2,), p)
    count = 0
    for flat in range(p**4):
        m = np.array([(flat // p**i) % p for i in range(4)], dtype=np.int64).reshape(2, 2)
        if ((m.T @ fsp @ m) % p == fsp).all():
            count += 1
    assert count == orc.sp_order(2, 3) == 24


def test_gl_centralizer_order_against_direct_scan():
    # the semisimple-quotient machinery versus a plain unit scan
    for lam in ((2,), (1, 1), (1, 2), (3,), (1, 1, 2), (2, 2)):
        x = orc.nilpotent_matrix(lam)
        direct = orc.stabilizer_order_by_enumeration(x, None, 3, budget=10**6)
        assert direct is not None
        assert orc.gl_centralizer_order(x, 3) == direct, lam


def test_layered_stabilizer_count_against_direct_scan():
    # the Levi-factor-plus-radical count versus a plain commutant scan,
    # with each Levi factor enumerated and (budget 0) by its isometry-group order
    cases = [
        ("Sp", (2, 2)),
        ("Sp", (1, 1, 2)),
        ("Sp", (4,)),
        ("SO", (3,)),
        ("SO", (1, 3)),
        ("SO", (1, 2, 2)),
        ("SO", (1, 1, 3)),
    ]
    for kind, lam in cases:
        for q in (3, 5):
            build = orc.sp_form_and_nilpotent if kind == "Sp" else orc.so_form_and_nilpotent
            f, x = build(lam, q)
            direct = orc.stabilizer_order_by_enumeration(x, f, q)
            if direct is None:
                assert q == 5, (kind, lam)
                continue
            assert orc.stabilizer_order_layered(x, f, q) == direct, (kind, lam, q)
            assert orc.stabilizer_order_layered(x, f, q, budget=0) == direct, (kind, lam, q)


def test_even_orthogonal_forms_are_split():
    # one Witt type at every q, so point counts at q = 3 and 5 compare one group
    for N in (2, 4, 6):
        for lam in pt.partitions_of(N):
            if pt.is_in_XN_tilde(lam):
                for q in (3, 5):
                    f, _ = orc.so_form_and_nilpotent(lam, q)
                    assert orc.orthogonal_type_is_plus(f, q), (lam, q)


def _type_set_brute(kind, lam, p):
    """Scan the full form Lie algebra and count type-lam nilpotents.

    Batched nilpotency prefilter in numpy; only the nilpotent cone gets
    rank-profiled.
    """
    if kind == "Sp":
        f, _ = orc.sp_form_and_nilpotent(lam, p)
    else:
        f, _ = orc.so_form_and_nilpotent(lam, p)
    n = len(f)
    rows = []
    for i in range(n):
        for j in range(n):
            fc = np.zeros(n * n, dtype=np.int64)
            for t in range(n):
                fc[t * n + i] += f[t, j]
                fc[t * n + j] += f[i, t]
            rows.append(fc % p)
    basis = orc.nullspace_mod(np.array(rows), p)
    mats = basis.reshape(len(basis), n, n)
    target = tuple(sorted(lam))
    count = 0
    for coeffs in orc._coeff_blocks(p, len(basis)):
        batch = np.tensordot(coeffs, mats, axes=(1, 0)) % p
        power = batch
        for _ in range(n - 1):
            power = np.einsum("kij,kjl->kil", power, batch) % p
        nilp = (power == 0).all(axis=(1, 2))
        for a in batch[nilp]:
            full = [n]
            powr = np.eye(n, dtype=np.int64)
            for _ in range(n):
                powr = (powr @ a) % p
                full.append(orc.rank_mod(powr, p))
            parts = []
            for k in range(1, n + 1):
                nxt = full[k + 1] if k + 1 <= n else 0
                parts += [k] * (full[k - 1] - 2 * full[k] + nxt)
            if tuple(sorted(parts)) == target:
                count += 1
    return count


def test_isometry_class_counts_against_lie_algebra_scans():
    """The rational-orbit sum equals a raw scan of the small Lie algebras."""
    cases = [
        ("Sp", (2, 2)),
        ("Sp", (1, 1, 2)),
        ("Sp", (4,)),
        ("SO", (3,)),
        ("SO", (1, 3)),
        ("SO", (2, 2)),
        ("SO", (1, 1, 3)),
        ("SO", (5,)),
        ("SO", (1, 2, 2)),
    ]
    for kind, lam in cases:
        brute = _type_set_brute(kind, lam, 3)
        fast = orc.so_class_size(lam, 3) if kind == "SO" else orc.sp_class_size(lam, 3)
        assert fast == brute, (kind, lam, fast, brute)


def test_lie_centralizer_dim_matches_formulas_all_kinds():
    for n in range(1, 7):
        for lam in pt.partitions_of(n):
            assert orc.lie_class_dim("GL", lam) == pt.class_dimension(lam, "GL")
            assert orc.lie_class_dim("SL", lam) == pt.class_dimension(lam, "SL")
            if pt.is_in_XN_tilde(lam):
                assert orc.lie_class_dim("SO", lam) == pt.class_dimension(lam, "SO"), lam
            if _sp_valid(lam):
                assert orc.lie_class_dim("Sp", lam) == pt.class_dimension(lam, "Sp"), lam


def test_point_count_slope_gl_sl():
    """Slope of log class size between q = 3 and q = 5 pins the dimension."""
    for n in range(1, 7):
        for lam in pt.partitions_of(n):
            c3 = orc.gl_class_size(lam, 3)
            c5 = orc.gl_class_size(lam, 5)
            dim = pt.class_dimension(lam, "GL")
            if lam == tuple([1] * n):
                assert c3 == c5 == 1 and dim == 0
                continue
            slope = orc.slope_estimate(c3, c5)
            assert round(slope) == dim and abs(slope - dim) < 0.5, (lam, slope, dim)
            assert pt.class_dimension(lam, "SL") == dim


def test_point_count_examples_from_small_groups():
    # regular class in SL_2 / GL_2: q^2 - 1 points of type (2)
    assert orc.gl_class_size((2,), 3) == 8
    assert orc.gl_class_size((2,), 5) == 24
    # SO_4, type (1,3): slope 4
    c3 = orc.so_class_size((1, 3), 3)
    c5 = orc.so_class_size((1, 3), 5)
    assert c3 is not None and c5 is not None
    assert round(orc.slope_estimate(c3, c5)) == pt.class_dimension((1, 3), "SO")
    # Sp_6, type (2,2,2): two rational classes, each centralized by O_3(3) x| F_3^6
    orbit = orc.sp_order(6, 3) // (2 * orc.so_order(3, 3) * 3**6)
    assert orc.sp_class_size((2, 2, 2), 3) == 2 * orbit == 524160


def test_point_count_so_all_types_q3_q5():
    for N in range(2, 7):
        for lam in pt.partitions_of(N):
            if not pt.is_in_XN_tilde(lam):
                continue
            dim = pt.class_dimension(lam, "SO")
            c3 = orc.so_class_size(lam, 3)
            assert c3 is not None, lam
            if dim == 0:
                assert c3 == 1
                continue
            c5 = orc.so_class_size(lam, 5)
            if c5 is not None:
                slope = orc.slope_estimate(c3, c5)
                assert round(slope) == dim and abs(slope - dim) < 0.5, (lam, slope, dim)
            else:
                # budget-bound at q = 5: single-point check at q = 3
                est = orc.single_point_estimate(c3, 3)
                assert abs(est - dim) < 0.6, (lam, est, dim)


def test_point_count_sp_small():
    for N in (2, 4, 6):
        for lam in pt.partitions_of(N):
            if not _sp_valid(lam):
                continue
            dim = pt.class_dimension(lam, "Sp")
            c3 = orc.sp_class_size(lam, 3)
            assert c3 is not None, lam
            if dim == 0:
                assert c3 == 1
                continue
            c5 = orc.sp_class_size(lam, 5)
            if c5 is not None:
                slope = orc.slope_estimate(c3, c5)
                assert round(slope) == dim and abs(slope - dim) < 0.5, (lam, slope, dim)
            else:
                assert abs(orc.single_point_estimate(c3, 3) - dim) < 0.6, lam
