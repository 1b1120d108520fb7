import oracles_flags as ofl
import pytest

from springer import partitions as pt
from springer import restriction as rs


def test_branch_examples():
    assert rs.branch_two_step((1, 3), (1, 1)).multiplicity == 1  # case I
    assert rs.branch_two_step((1, 2), (1,)).multiplicity == 2  # case III
    assert rs.branch_two_step((2, 2), (2,)).multiplicity == 1
    assert rs.branch_two_step((2, 2), (1, 1)).multiplicity == 1  # case II
    tags = {((1, 3), (1, 1)): "I", ((1, 2), (1,)): "III", ((2, 2), (2,)): "I", ((2, 2), (1, 1)): "II", ((1, 1, 1, 1), (2,)): None}
    for (mu, mup), tag in tags.items():
        assert rs.branch_two_step(mu, mup).case_tag == tag, (mu, mup)
    with pytest.raises(ValueError):
        rs.branch_two_step((1, 3), (1,))


def test_one_box_removals():
    assert rs.one_box_removals((2, 2)) == [(1, 2)]
    assert set(rs.one_box_removals((1, 3))) == {(3,), (1, 2)}
    assert rs.one_box_removals((1,)) == [()]


def _paths_brute(mu, mup):
    """Count chains mu -> kappa -> mup over all shapes kappa."""
    count = 0
    for kappa in pt.partitions_of(sum(mu) - 1):
        if mup in rs.one_box_removals(kappa) and kappa in rs.one_box_removals(mu):
            count += 1
    return count


def test_branch_exhaustive_vs_table_m_le_8():
    for m in range(2, 9):
        for mu in pt.partitions_of(m):
            for mup in pt.partitions_of(m - 2):
                res = rs.branch_two_step(mu, mup)
                assert res.multiplicity == _paths_brute(mu, mup)
                case = ofl.classify_pair_sl(mu, mup)
                want = 0 if case is None else (2 if case.tag == "III" else 1)
                assert res.multiplicity == want
                assert res.case_tag == (None if case is None else case.tag), (mu, mup)


def test_branch_symmetric_in_box_order():
    # the multiplicity counts unordered intermediate shapes; summing over
    # the two removal orders is what the witness set already does
    for m in (4, 5, 6):
        for mu in pt.partitions_of(m):
            for mup in pt.partitions_of(m - 2):
                res = rs.branch_two_step(mu, mup)
                assert res.multiplicity == len(set(res.witnesses))


def _crosscheck_one(la, lap, d, q):
    (report,) = rs.restriction_crosscheck_sl(la, [lap], d, q)
    return report


def test_crosscheck_examples():
    r = _crosscheck_one((1, 3), (1, 1), 1, 3)
    assert r.lhs_strata == 1 and r.rhs_multiplicity == 1 and r.ok
    r = _crosscheck_one((1, 2), (1,), 1, 3)
    assert r.lhs_strata == 2 and r.rhs_multiplicity == 2 and r.ok
    # incompatible: d does not divide the parts
    r = _crosscheck_one((1, 5), (2, 2), 2, 3)
    assert r.lhs_strata == 0 and r.rhs_multiplicity == 0 and r.ok


def test_crosscheck_small_sweep_q3():
    for n in range(2, 7):
        for d in (1, 2):
            if n - 2 * d < 0:
                continue
            for la in pt.partitions_of(n):
                laps = list(pt.partitions_of(n - 2 * d))
                reports = rs.restriction_crosscheck_sl(la, laps, d, 3)
                assert [r.lap for r in reports] == laps
                for r in reports:
                    assert r.ok, (la, r.lap, d, r)


def test_all_lambda_prime_crosscheck_matches_single_calls():
    for la, d in (((1, 2, 3), 1), ((2, 4), 2)):
        laps = list(pt.partitions_of(sum(la) - 2 * d))
        reports = rs.restriction_crosscheck_sl(la, laps, d, 3)
        assert reports == [_crosscheck_one(la, lap, d, 3) for lap in laps], (la, d)
        assert any(r.lhs_strata for r in reports), (la, d)
