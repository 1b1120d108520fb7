import itertools

import oracles as orc
import oracles_flags as ofl
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles_groups import centralizer_algebra_dimension

from springer import flinalg as la
from springer import partitions as pt
from springer import split as sp
from springer import varieties as vr
from springer.ffield import make_field, prime_power


def _so_flags(data, lap):
    return [f for f in vr.enumerate_flags_so(data) if f.type_mid == lap]


def _all_subspaces(K, n, d):
    """Every d-dimensional subspace of K^n as its reduced echelon basis:
    one per choice of pivot columns and of the entries right of each
    pivot outside the other pivot columns."""
    for pivots in itertools.combinations(range(n), d):
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for values in itertools.product(K.elements(), repeat=len(free)):
            rows = [[int(c == p) for c in range(n)] for p in pivots]
            for (i, c), a in zip(free, values):
                rows[i][c] = a
            yield la.mat(rows)


def test_cyclic_subspaces_match_brute_force():
    K = make_field(3, 1)
    for lam in ((1, 1, 2), (2, 2), (1, 3), (4,), (1, 1, 1), (3,), (1, 1, 3), (2, 3), (5,)):
        x = ofl.nilpotent_of_type(lam)
        n = sum(lam)
        for d in range(1, min(n, 4) + 1):
            got = vr.cyclic_subspaces(K, x, d)
            want = []
            for w in _all_subspaces(K, n, d):
                stable = all(ofl.in_span(K, w, la.mat_vec(K, x, v)) for v in w)
                if stable and la.jordan_partition(K, ofl.restrict_to_subspace(K, x, w)) == (d,):
                    want.append(w)
            assert got == sorted(want), (lam, d)


def test_one_row_rule_subspace_and_quotient():
    """Quotients by cyclic W realize exactly the one-row drops, and dually
    corank-d regular-quotient subspaces realize the same set."""
    K = make_field(3, 1)
    for n in range(2, 6):
        for lam in pt.partitions_of(n):
            x = ofl.nilpotent_of_type(lam)
            for d in (1, 2):
                if d > n - 1:
                    continue
                types = set()
                pows = vr.power_images(lam)
                for w in vr.cyclic_subspaces(K, x, d):
                    types.add(vr.quotient_type(K, x, w, pows))
                assert types == vr.horizontal_strip_drops(lam, d), (lam, d)
                # dual: subspace types of corank-d with regular quotient
                xt = la.transpose(x)
                sub_types = set()
                for u in vr.cyclic_subspaces(K, xt, d):
                    wp = la.nullspace(K, u)
                    sub_types.add(la.jordan_partition(K, ofl.restrict_to_subspace(K, x, wp)))
                assert sub_types == vr.horizontal_strip_drops(lam, d), (lam, d)


def test_enumerate_flags_sl_unique_flag():
    data = sp.build_sl_split((3,), 3)
    flags = vr.enumerate_flags_sl(data, 1, [(1,)])
    assert len(flags) == 1
    w = flags[0].W
    assert w == ((1, 0, 0),)  # the line through v_{1,1}
    assert flags[0].Wp == ((1, 0, 0), (0, 1, 0))


def test_enumerate_flags_sl_size_mismatch_is_empty():
    data = sp.build_sl_split((2, 2), 3)
    assert vr.enumerate_flags_sl(data, 1, [(1,)]) == []  # (1) is not a partition of n - 2d


def test_enumerate_flags_sl_full_flag_variety_edge():
    # n = 2d forces W = W'; u = 1 gives the whole projective line, one stratum
    data = sp.build_sl_split((1, 1), 3)
    flags = vr.enumerate_flags_sl(data, 1, [()])
    assert len(flags) == 9 + 1  # lines in P^1(F_9)
    assert {f.type_mod_W for f in flags} == {(1,)}
    for f in flags:
        assert f.W == f.Wp


def test_enumerate_flags_sl_12_golden():
    """lambda = (1,2), d = 1, lambda' = (1) over F_9: 19 flags, strata
    nu = (2) with 9 flags and nu' = (1,1) with 10 flags."""
    data = sp.build_sl_split((1, 2), 3)
    flags = vr.enumerate_flags_sl(data, 1, [(1,)])
    assert len(flags) == 19
    by_type = {}
    for f in flags:
        by_type.setdefault(f.type_mod_W, []).append(f)
    assert set(by_type) == {(2,), (1, 1)}
    assert len(by_type[(2,)]) == 9
    assert len(by_type[(1, 1)]) == 10
    for f in flags:
        assert ofl.verify_flag_sl(data, 1, (1,), f)


def test_every_enumerated_flag_meets_the_definition():
    """verify_flag_sl re-checks, without the power images, that x is
    regular on W and on V/W' and has the listed type on W'/W.  The
    enumeration does not check V/W' itself (W' is the annihilator of an
    x^T-cyclic subspace), so this is the check of that; the last two
    cases are characteristic 2 with n = 6."""
    cases = [(lam, 1, 3) for n in range(2, 5) for lam in pt.partitions_of(n) if lam != (1, 1, 1, 1)]
    cases += [((2, 4), 2, 3), ((3, 3), 3, 2), ((1, 1, 3), 1, 2), ((2, 3), 1, 2)]
    cases += [((1, 2, 4), 3, 2), ((1, 1, 2, 2), 1, 2)]
    checked = 0
    for lam, d, q in cases:
        data = sp.build_sl_split(lam, q)
        for f in vr.enumerate_flags_sl(data, d, pt.partitions_of(sum(lam) - 2 * d)):
            assert ofl.verify_flag_sl(data, d, f.type_quotient, f), (lam, d, q, f.W, f.Wp)
            checked += 1
    assert checked == 4818


def test_all_lambda_prime_enumeration_matches_single_calls():
    for lam, d in (((1, 2, 3), 1), ((2, 4), 2), ((1, 1, 2), 1)):
        data = sp.build_sl_split(lam, 3)
        laps = list(pt.partitions_of(sum(lam) - 2 * d))
        flags = vr.enumerate_flags_sl(data, d, laps)
        for lap in laps:
            group = [f for f in flags if f.type_quotient == lap]
            assert group == vr.enumerate_flags_sl(data, d, [lap]), (lam, d, lap)
        assert {f.type_quotient for f in flags} <= set(laps)


def _flags_within(monkeypatch, budget: int, *args) -> list:
    """enumerate_flags_sl(*args) with varieties.DEFAULT_BUDGET set to budget."""
    with monkeypatch.context() as m:
        m.setattr(vr, "DEFAULT_BUDGET", budget)
        return vr.enumerate_flags_sl(*args)


def test_flag_budget_counts_the_dual_candidates_up_front(monkeypatch):
    # (1,1,2), d = 1 over F_9: 810 flags of type (2) and 181 of type (1,1);
    # the W' candidates summed over W are exactly the flags, so 991 is the
    # least budget that passes, and the refusal comes before any W'
    data = sp.build_sl_split((1, 1, 2), 3)
    laps = [(1, 1), (2,)]
    assert len(_flags_within(monkeypatch, 991, data, 1, laps)) == 810 + 181
    with pytest.raises(vr.VarietyBudgetError, match="flag count exceeds budget 990"):
        _flags_within(monkeypatch, 990, data, 1, laps)
    for lam, d in (((1, 3), 1), ((2, 2), 1), ((2, 4), 2)):
        data = sp.build_sl_split(lam, 3)
        laps = list(pt.partitions_of(sum(lam) - 2 * d))
        count = len(vr.enumerate_flags_sl(data, d, laps))
        assert len(_flags_within(monkeypatch, count, data, d, laps)) == count, lam
        with pytest.raises(vr.VarietyBudgetError):
            _flags_within(monkeypatch, count - 1, data, d, laps)


def _fibre_types(report, lap):
    """Strata of the report whose fibre over W is nonempty for lap."""
    return {nu for nu, _ in report.strata if tuple(lap) in report.drops[nu]}


def test_stratum_analysis_matches_enumeration():
    for lam, d, lap in (((1, 2), 1, (1,)), ((3,), 1, (1,)), ((1, 3), 1, (1, 1)), ((2, 4), 2, (2,))):
        data = sp.build_sl_split(lam, 3)
        flags = vr.enumerate_flags_sl(data, d, [lap])
        types_enum = {f.type_mod_W for f in flags}
        report = vr.sl_stratum_analysis(data, d)
        assert _fibre_types(report, lap) == types_enum, (lam, d, lap)


def test_mixed_stratum_golden_counts():
    """(2,4), d = 2, target (2): three nonempty strata; the two
    single-row drops are the principal ones.  Golden counts: (q^2)^2,
    (q^2)^2 + q^2 and (q^2 - 1)^2 over F_{q^2}."""
    for q in (3, 5):
        Q = q * q
        expected = {(4,): Q**2, (2, 2): Q**2 + Q, (1, 3): (Q - 1) ** 2}
        data = sp.build_sl_split((2, 4), q)
        flags = vr.enumerate_flags_sl(data, 2, [(2,)])
        counts = {}
        for f in flags:
            counts[f.type_mod_W] = counts.get(f.type_mod_W, 0) + 1
        assert counts == expected
        report = vr.sl_stratum_analysis(data, 2)
        assert _fibre_types(report, (2,)) == set(expected)
        assert set(report.principal_types((2,))) == {(2, 2), (4,)}


def test_stratum_tally_matches_hall_numbers():
    """Every x-cyclic W of dimension d, tallied by the type nu of V/W, is
    counted by the Hall number g^lam_{nu,(d)}(q^2), and the nonempty
    strata are the horizontal-strip drops of lam.  At q = 3, d = 3 runs
    the two-layer walk, whose stacked orbits have the most zero slices."""
    for q, n_max, d_max in ((3, 6, 3), (5, 4, 2)):
        Q = q * q
        for n in range(1, n_max + 1):
            for lam in pt.partitions_of(n):
                data = sp.build_sl_split(lam, q)
                for d in range(1, min(d_max, n) + 1):
                    report = vr.sl_stratum_analysis(data, d)
                    hall = {nu: orc.hall_number_row(lam, nu, d, Q) for nu in pt.partitions_of(n - d)}
                    hall = {nu: g for nu, g in hall.items() if g}
                    assert dict(report.strata) == hall, (lam, d, q)
                    assert set(hall) == vr.horizontal_strip_drops(lam, d), (lam, d, q)
                    assert report.total_generators == sum(hall.values()), (lam, d, q)


def test_line_strata_by_orbit_match_the_walk():
    """At d = 1 each centralizer orbit of lines is typed once and sized in
    closed form.  The tally equals the walk over every line; past the
    walk's budget, as for (1^8) over F_9, it equals the Hall numbers."""
    for q, n_max in ((3, 6), (5, 5)):
        for n in range(1, n_max + 1):
            for lam in pt.partitions_of(n):
                data = sp.build_sl_split(lam, q)
                walk = orc.line_strata_by_walk(data)
                report = vr.sl_stratum_analysis(data, 1)
                assert report.strata == tuple(sorted(walk.items())), (lam, q)
                assert report.total_generators == sum(walk.values()), (lam, q)
    for lam in ((1,) * 8, (1,) * 6 + (2,), (1, 1, 2, 4)):
        data = sp.build_sl_split(lam, 3)
        report = vr.sl_stratum_analysis(data, 1)
        hall = {nu: orc.hall_number_row(lam, nu, 1, 9) for nu in pt.partitions_of(sum(lam) - 1)}
        hall = {nu: g for nu, g in hall.items() if g}
        assert dict(report.strata) == hall, lam
        assert report.total_generators == sum(hall.values()), lam
    with pytest.raises(vr.VarietyBudgetError):
        orc.line_strata_by_walk(sp.build_sl_split((1,) * 8, 3))


def test_enumerate_flags_so_case_I_singleton():
    for q in (3, 5):
        data = sp.build_so_split((5,), q)
        flags = _so_flags(data, (1,))
        assert len(flags) == 1
        # E = <e_1, e_2> of the single block
        assert flags[0].E == ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
        assert vr.is_f_stable(data, flags[0].E)


def test_enumerate_flags_so_case_IV_two_flags():
    # lambda = (1,3) -> lambda' = (): exactly the two planes <e1, e2 +- e'_1>
    for q in (3, 5):
        data = sp.build_so_split((1, 3), q)
        flags = _so_flags(data, ())
        assert len(flags) == 2
        for f in flags:
            assert ofl.verify_flag_so(data, (), f)
            assert vr.is_f_stable(data, f.E)


def test_enumerate_flags_so_case_V_family():
    # lambda = (1,2,2) -> lambda' = (1): contains the beta family
    for q in (3, 5):
        data = sp.build_so_split((1, 2, 2), q)
        flags = _so_flags(data, (1,))
        case = ofl.classify_pair_spin((1, 2, 2), (1,))
        fam = ofl.split_flag_so(data, (1,), case)
        assert len(fam) == q  # one flag per beta in F_q
        enum_keys = {f.E for f in flags}
        for f in fam:
            assert f.E in enum_keys
            assert vr.is_f_stable(data, f.E)


def test_split_flag_sl_case_I():
    data = sp.build_sl_split((1, 3), 3)
    case = ofl.classify_pair_sl((1, 3), (1, 1))
    flags = ofl.split_flag_sl(data, 1, (1, 1), case)
    assert len(flags) == 1
    # W = <v_{2,1}>: coordinate 1 in the (1,3) layout
    assert flags[0].W == ((0, 1, 0, 0),)
    enum = vr.enumerate_flags_sl(data, 1, [(1, 1)])
    assert (flags[0].W, flags[0].Wp) in {(f.W, f.Wp) for f in enum}
    assert vr.is_f_stable(data, flags[0].W, flags[0].Wp)


def test_split_flag_sl_case_III_strata():
    data = sp.build_sl_split((1, 2), 3)
    case = ofl.classify_pair_sl((1, 2), (1,))
    assert case.tag == "III"
    fl = ofl.split_flag_sl(data, 1, (1,), case)
    assert len(fl) == 2
    assert fl[0].type_mod_W == (2,)  # alpha = 1: the nu stratum
    assert fl[1].type_mod_W == (1, 1)  # alpha = 0: the nu' stratum
    for f in fl:
        assert vr.is_f_stable(data, f.W, f.Wp)


def test_split_flag_sl_case_II():
    data = sp.build_sl_split((2, 2), 3)
    case = ofl.classify_pair_sl((2, 2), (1, 1))
    assert case.tag == "II"
    fl = ofl.split_flag_sl(data, 1, (1, 1), case)
    assert len(fl) == 1
    assert vr.is_f_stable(data, fl[0].W, fl[0].Wp)
    enum = vr.enumerate_flags_sl(data, 1, [(1, 1)])
    assert (fl[0].W, fl[0].Wp) in {(f.W, f.Wp) for f in enum}


def test_flag_frobenius_squares_to_plain_frobenius():
    data = sp.build_sl_split((1, 2), 3)
    flags = vr.enumerate_flags_sl(data, 1, [(1,)])
    for f in flags[:6]:
        w1, wp1 = ofl.flag_frobenius_sl(data, f)
        f2 = vr.Flag(W=w1, Wp=wp1, type_quotient=f.type_quotient, type_mod_W=f.type_mod_W)
        w2, wp2 = ofl.flag_frobenius_sl(data, f2)
        assert w2 == ofl.frob0(data, ofl.frob0(data, f.W))
        assert wp2 == ofl.frob0(data, ofl.frob0(data, f.Wp))


def test_f_stability_read_entrywise_matches_the_echelon_image():
    # an echelon basis is q-rational exactly when the echelon form of its
    # q-power image is itself, on flags with both answers
    seen = set()
    for lam, d in (((1, 2), 1), ((1, 1, 2), 1), ((2, 4), 2), ((1, 3), 1)):
        data = sp.build_sl_split(lam, 3)
        for f in vr.enumerate_flags_sl(data, d, pt.partitions_of(sum(lam) - 2 * d)):
            plain = ofl.frob0(data, f.W) == f.W and ofl.frob0(data, f.Wp) == f.Wp
            assert vr.is_f_stable(data, f.W, f.Wp) == plain, (lam, f.W, f.Wp)
            seen.add(plain)
    assert seen == {True, False}


def test_frobenius_is_a_bijection_of_the_flag_set():
    data = sp.build_sl_split((1, 2), 3)
    flags = vr.enumerate_flags_sl(data, 1, [(1,)])
    index = {(f.W, f.Wp): f for f in flags}
    images = set()
    for f in flags:
        key = ofl.flag_frobenius_sl(data, f)
        assert key in index
        images.add(key)
    assert len(images) == len(flags)


def test_centralizer_units_counts():
    K = make_field(3, 1)
    zero = la.mat([[0] * 2] * 2)
    cu = orc.centralizer_unit_scan(zero, K)
    assert cu.dimension == 4
    assert len(cu.units) == (9 - 1) * (9 - 3)  # |GL_2(F_3)|
    xreg = ofl.nilpotent_of_type((2,))
    cu = orc.centralizer_unit_scan(xreg, K)
    assert cu.dimension == 2
    assert len(cu.units) == 3 * 2  # a + b x with a != 0
    x12 = ofl.nilpotent_of_type((1, 2))
    cu = orc.centralizer_unit_scan(x12, K)
    assert cu.dimension == centralizer_algebra_dimension((1, 2)) == 5


def test_centralizer_units_budget():
    K = make_field(3, 1)
    zero = la.mat([[0] * 4] * 4)
    with pytest.raises(vr.VarietyBudgetError):
        orc.centralizer_unit_scan(zero, K, bound=100)


def _generated_group(K, gens):
    group = {la.identity(K, len(gens[0]))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = la.mat_mul(K, g, s)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def test_centralizer_generators_generate_the_unit_group():
    for (p, k), lam in (((3, 1), (1, 1)), ((3, 1), (2,)), ((3, 1), (1, 2)), ((3, 1), (3,)), ((3, 2), (1, 1)), ((3, 2), (2,))):
        K = make_field(p, k)
        x = ofl.nilpotent_of_type(lam)
        gens = vr.centralizer_units(lam, K)
        scan = orc.centralizer_unit_scan(x, K)
        assert gens.dimension == scan.dimension == centralizer_algebra_dimension(lam), (K.q, lam)
        assert _generated_group(K, gens.units) == set(scan.units), (K.q, lam)


def test_centralizer_dimension_counts_the_commutant():
    # the library counts the chain maps; the nullspace of the commutator
    # equations and the closed form sum of min(a, b) must agree with it
    for q in (2, 3, 4, 9):
        K = make_field(*prime_power(q))
        for n in range(1, 8):
            for lam in pt.partitions_of(n):
                dim = vr.centralizer_units(lam, K).dimension
                assert dim == len(ofl.commutant_basis(sp.jordan_shift(lam), K)) == centralizer_algebra_dimension(lam), (q, lam)


def test_orbit_ids_match_the_unit_scan():
    for lam, q_p in (((1, 2), 3), ((3,), 3), ((4,), 3), ((1, 2), 2)):
        data = sp.build_sl_split(lam, q_p)
        K = data.field
        laps = list(pt.partitions_of(sum(lam) - 2))
        flags = vr.enumerate_flags_sl(data, 1, laps)
        gens = vr.centralizer_units(lam, K)
        scan = orc.centralizer_unit_scan(data.nilpotent, K)
        for lap in laps:
            group = [f for f in flags if f.type_quotient == lap]
            assert vr.orbit_decomposition(group, gens, K) == orc.orbit_decomposition_by_scan(group, scan, K), (lam, q_p, lap)


def test_orbit_decomposition_case_III():
    data = sp.build_sl_split((1, 2), 3)
    K = data.field
    flags = vr.enumerate_flags_sl(data, 1, [(1,)])
    units = vr.centralizer_units(data.la, K)
    dec = vr.orbit_decomposition(flags, units, K)
    # orbits refine the two strata: the flag whose W' is ker x is pinned by
    # the units (they preserve ker x), so the nu' stratum splits in two
    assert len(dec.orbits) == 3
    assert {inv for _, inv in dec.orbits} == {(2,), (1, 1)}
    assert sum(len(o) for o, _ in dec.orbits) == len(flags)
    for orbit, inv in dec.orbits:
        assert all(inv == next(f.type_mod_W for f in flags if (f.W, f.Wp) == key) for key in orbit)


def test_orbit_decomposition_empty():
    data = sp.build_sl_split((1, 1), 3)
    K = data.field
    units = vr.centralizer_units((1, 1), K)
    dec = vr.orbit_decomposition([], units, K)
    assert dec.orbits == ()


def test_budget_error_on_huge_instance(monkeypatch):
    data = sp.build_sl_split((1, 2), 3)
    with pytest.raises(vr.VarietyBudgetError):
        _flags_within(monkeypatch, 3, data, 1, [(1,)])


def _enumeration_cases():
    """(field, x) pairs for the shortcut-against-plain-form checks: the
    split shift of every lambda |- n <= 5 over F_9, the Jordan shift of
    every lambda |- n <= 6 over F_2, F_3 and F_4, the transposed
    quotient actions that `_completions` builds over the cyclic W of
    every lambda |- n <= 5 over F_4 (not shifts), and the split
    orthogonal nilpotents with N <= 6 at q = 3 and 5."""
    for n in range(1, 6):
        for lam in pt.partitions_of(n):
            data = sp.build_sl_split(lam, 3)
            yield data.field, data.nilpotent
    for p, k in ((2, 1), (3, 1), (2, 2)):
        K = make_field(p, k)
        for n in range(1, 7):
            for lam in pt.partitions_of(n):
                yield K, ofl.nilpotent_of_type(lam)
    for n in range(2, 6):
        for lam in pt.partitions_of(n):
            data = sp.build_sl_split(lam, 2)
            K, x = data.field, data.nilpotent
            for d in (1, 2):
                for w in vr.cyclic_subspaces(K, x, d):
                    yield K, la.transpose(la.quotient_action(K, x, w)[0])
    for N in range(2, 7):
        for lam in pt.partitions_of(N):
            if pt.is_in_XN_tilde(lam):
                for q in (3, 5):
                    data = sp.build_so_split(lam, q)
                    yield data.field, data.nilpotent


def test_cyclic_subspaces_and_quotient_types_match_plain_forms():
    # spans walked along the kernel filtration against the deduplicated
    # generator sweep on every case: same lists, same order; and where x
    # is the split shift, quotient ranks projected off the coordinates
    # outside its power images against the echelon form of im x^k + W
    shifts = 0
    for K, x in _enumeration_cases():
        lam = la.jordan_partition(K, x)
        shift = x == sp.jordan_shift(lam)
        shifts += shift
        pows, plain_pows = vr.power_images(lam), ofl.power_images_by_rref(K, x)
        for d in range(1, len(x) + 1):
            ws = vr.cyclic_subspaces(K, x, d)
            assert ws == ofl.cyclic_subspaces_by_span(K, x, d), (K, x, d)
            for w in ws if shift else ():
                assert vr.quotient_type(K, x, w, pows) == ofl.quotient_type_by_rref(K, x, w, plain_pows), (K, x, w)
    assert shifts == 681


def test_power_images_are_the_coordinate_subspaces_of_the_chains():
    # im x^k of the split shift, read off its chains, against the echelon
    # form of the columns of x^k: every lambda |- n <= 9 over F_3, F_5,
    # F_4, F_9, F_16, F_25 and F_49
    cases = 0
    for p, k in ((3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2)):
        K = make_field(p, k)
        for n in range(1, 10):
            for lam in pt.partitions_of(n):
                want = [img for img in ofl.power_images_by_rref(K, sp.jordan_shift(lam))[1:] if img]
                got = vr.power_images(lam)
                assert len(got) == len(want), (K.q, lam)
                for (dim, free), img in zip(got, want):
                    assert list(free) == sorted(set(free)), (K.q, lam)
                    units = tuple(tuple(int(t == c) for t in range(n)) for c in range(n) if c not in free)
                    assert dim == len(img) and img == units, (K.q, lam)
                cases += 1
    assert cases == 672


def _assert_stacked_walk(K, x):
    # every d: the list of the stacked-orbit walk, one echelon form per
    # subspace; for d = 1 the unsorted line representatives increase
    for d in range(1, len(x) + 1):
        ws = vr.cyclic_subspaces(K, x, d)
        assert ws == orc.cyclic_subspaces_by_stacks(K, x, d), (K, x, d)
        if d == 1:
            assert all(s < t for s, t in zip(ws, ws[1:]))


def test_cyclic_subspaces_match_the_stacked_walk():
    # every type of size n <= 5 over F_{q^2} for q = 2, 3, 4, 5, and of
    # size 6 for q = 2, 3
    for (p, k), n_max in (((2, 2), 6), ((3, 2), 6), ((2, 4), 5), ((5, 2), 5)):
        K = make_field(p, k)
        for n in range(1, n_max + 1):
            for lam in pt.partitions_of(n):
                _assert_stacked_walk(K, ofl.nilpotent_of_type(lam))


@st.composite
def conjugated_shifts(draw):
    """g x g^-1 for a shift x of type lam, n <= 5, over F_3, g = L U with
    L unit lower and U invertible upper triangular: kernel layers and
    x W that are not coordinate subspaces."""
    K = make_field(3, 1)
    lam = draw(st.sampled_from([lam for n in range(2, 6) for lam in pt.partitions_of(n)]))
    n = sum(lam)
    entry, unit = st.integers(0, K.q - 1), st.integers(1, K.q - 1)
    low = la.mat([draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n))
    up = la.mat([draw(unit) if j == i else draw(entry) if j > i else 0 for j in range(n)] for i in range(n))
    g = la.mat_mul(K, low, up)
    return K, la.mat_mul(K, la.mat_mul(K, g, ofl.nilpotent_of_type(lam)), ofl.inverse(K, g))


@settings(max_examples=60, deadline=None)
@given(conjugated_shifts())
def test_cyclic_subspaces_of_conjugated_shifts_match_the_stacked_walk(case):
    # kernel layers and x W that are not coordinate subspaces
    _assert_stacked_walk(*case)


def _kernel_filtration(K, x):
    """Echelon bases of ker x^j for j = 0, 1, ... up to V."""
    kernels = [()]
    while len(kernels[-1]) < len(x):
        kernels.append(ofl.kernel_of_power(K, x, len(kernels)))
    return kernels


def test_subquotient_types_match_the_induced_matrix():
    # ranks on the subquotient against the Jordan type of the matrix that
    # x induces there: V itself; the first eight x-cyclic W of each
    # d <= 2 inside each W' = W + ker x^j (W itself and V included); and
    # every SO flag E inside E-perp, N <= 9 at q = 3 and N <= 7 at q = 5
    for K, x in _enumeration_cases():
        assert la.jordan_partition(K, x) == ofl.jordan_partition_by_powers(K, x)
        kernels = _kernel_filtration(K, x)
        for d in (1, 2):
            for w in vr.cyclic_subspaces(K, x, d)[:8]:
                assert la.subquotient_type(K, x, w, ()) == (d,)
                for wp in sorted({la.echelon_basis(K, w + k) for k in kernels}):
                    want = ofl.jordan_partition_by_powers(K, ofl.action_between(K, x, w, wp))
                    assert la.subquotient_type(K, x, wp, w) == want, (K, x, w, wp)
    for q, n_max in ((3, 9), (5, 7)):
        for N in range(2, n_max + 1):
            for lam in filter(pt.is_in_XN_tilde, pt.partitions_of(N)):
                data = sp.build_so_split(lam, q)
                K, x = data.field, data.nilpotent
                for f in vr.enumerate_flags_so(data):
                    want = ofl.jordan_partition_by_powers(K, ofl.action_between(K, x, f.E, f.Eperp))
                    assert f.type_mid == want, (lam, q, f.E)


def test_extend_basis_matches_the_greedy_span_form():
    # along the kernel filtration: from each smaller kernel, alone and
    # with one vector of the larger kernel outside it put after its rows
    for K, x in _enumeration_cases():
        kernels = _kernel_filtration(K, x)
        for j, big in enumerate(kernels):
            for small in kernels[:j]:
                for sm in [small] + [small + (v,) for v in big if not ofl.in_span(K, small, v)]:
                    assert la.extend_basis(K, sm, big) == ofl.extend_basis_by_span(K, sm, big), (K, x, sm, big)


def test_span_vectors_match_product_form():
    # the same vectors in the same order, for coefficient lists that are
    # all of K, equal or different from row to row; and one line
    # representative per line, in the order of the plain lead-plus-tail
    # sum.  Besides dense rows, the shapes the walk builds: disjoint unit
    # rows, overlapping sparse rows, zero rows, and stacked orbits
    # (v | x v) whose second slice is zero for a kernel vector v
    for p, k in ((2, 1), (3, 1), (2, 2), (3, 2)):
        K = make_field(p, k)
        g = K.primitive
        x = ofl.nilpotent_of_type((1, 2))
        bases = [
            (),
            ((1, 0, 0),),
            ((0, g, 1),),
            la.identity(K, 3),
            ((1, g, 0, 1), (0, 0, 1, g), (g, 1, 1, 0)),
            ((1, 1), (0, 0)),
            ((0, 1, 0, 0, 0), (0, 0, 0, g, 0), (1, 0, 0, 0, 0)),
            ((1, 0, g, 0), (0, 0, 1, 1), (0, 1, 0, g)),
            ((0, 1, 0), (0, 0, 0), (1, 0, g)),
            tuple(v + la.mat_vec(K, x, v) for v in ((1, 0, 0), (0, 1, 0), (g, 0, 1))),
        ]
        for basis in bases:
            rows = len(basis)
            for per_row in (ofl.subfield_elements(K, 1), [1, 0], [g], []):
                for coeffs in ([K.elements()] * rows, [per_row] * rows, [K.elements()] * max(rows - 1, 0) + [per_row]):
                    got = list(la.span_vectors(K, la.mat(basis), coeffs))
                    want = list(ofl.span_vectors_by_product(K, la.mat(basis), coeffs))
                    assert got == want, (p, k, basis, coeffs)
            got = list(la.line_representatives(K, la.mat(basis)))
            assert got == list(ofl.line_representatives_by_sum(K, la.mat(basis))), (p, k, basis)
