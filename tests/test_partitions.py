import oracles_flags as ofl
import pytest
from oracles_groups import centralizer_algebra_dimension

from springer import partitions as pt


def test_is_in_XN_paper_examples():
    assert pt.is_in_XN((1, 2, 2))
    assert pt.is_in_XN((1, 3))
    assert not pt.is_in_XN((1, 1, 3))  # odd part 1 repeats


def enumerate_XN_by_filter(N, tilde=False):
    """X_N (or X~_N) as the members of partitions_of(N) that pass the
    membership predicate."""
    test = pt.is_in_XN_tilde if tilde else pt.is_in_XN
    return [la for la in pt.partitions_of(N) if test(la)]


def test_enumerate_XN_equals_filter_over_all_partitions():
    for N in range(-2, 31):
        assert pt.enumerate_XN(N) == enumerate_XN_by_filter(N), N
        assert pt.enumerate_XN(N, tilde=True) == enumerate_XN_by_filter(N, tilde=True), N


def test_enumerate_XN_ground_truth():
    assert pt.enumerate_XN(5) == [(1, 2, 2), (5)] or pt.enumerate_XN(5) == [(1, 2, 2), (5,)]
    assert set(pt.enumerate_XN(5)) == {(5,), (1, 2, 2)}
    assert set(pt.enumerate_XN(4)) == {(2, 2), (1, 3)}
    assert pt.enumerate_XN(1) == [(1,)]
    assert pt.enumerate_XN(2) == []


def test_enumerate_XN_members_pass_predicate():
    for N in range(1, 15):
        members = pt.enumerate_XN(N)
        assert members == sorted(members)
        for la in members:
            assert pt.is_in_XN(la)
            assert pt.is_in_XN_tilde(la)
        for la in pt.enumerate_XN(N, tilde=True):
            assert pt.is_in_XN_tilde(la)


def test_defect_examples():
    assert pt.defect((5,)) == 1
    assert pt.defect((3,)) == -1
    assert pt.defect((1, 2, 2)) == 1


def test_defect_congruent_N_mod_4():
    for N in range(1, 21):
        for la in pt.enumerate_XN(N):
            assert (pt.defect(la) - N) % 4 == 0


def test_delta_index():
    assert pt.delta_index((1, 2, 2), 1) == 1
    assert pt.delta_index((5,), 1) == 3
    assert pt.delta_index((1, 3), 2) == 3
    with pytest.raises(ValueError):
        pt.delta_index((1, 2, 2), 2)


def test_divide():
    assert pt.divide((2, 4), 2) == (1, 2)
    assert pt.divide((1, 3), 1) == (1, 3)
    assert pt.divide((3, 3), 3) == (1, 1)
    with pytest.raises(ValueError):
        pt.divide((1, 2), 2)


def test_divide_roundtrip():
    for n in range(1, 13):
        for la in pt.partitions_of(n):
            for d in range(1, n + 1):
                if all(x % d == 0 for x in la):
                    mu = pt.divide(la, d)
                    assert tuple(x * d for x in mu) == la


def test_classify_pair_spin_examples():
    c = ofl.classify_pair_spin((9,), (5,))
    assert c.tag == "I" and c.pivot == 1
    c = ofl.classify_pair_spin((3, 3), (1, 1))
    assert c.tag == "II" and c.pivot == 1
    c = ofl.classify_pair_spin((1, 2, 2), (1,))
    assert c.tag == "V" and c.pivot == 1


def test_classify_pair_spin_case_iii_recognized_unsupported():
    # (4,4) -> (1,3) drops by (3,1): the case III pattern (4 >= 0 + 4)
    c = ofl.classify_pair_spin((4, 4), (1, 3))
    assert c is not None and c.tag == "III" and not c.supported


def _brute_spin_match(la, lap):
    """Independent brute force: every pivot against every case's inequalities."""
    found = []
    for tag in ("I", "II", "III", "IV", "V"):
        for i in range(1, len(la) + 1):
            if ofl._spin_case_matches(la, lap, tag, i):
                found.append((tag, i))
    return found


def test_classify_pair_spin_matches_brute_force_and_tag_unique():
    for N in range(5, 17):
        for la in pt.enumerate_XN(N):
            for lap in pt.enumerate_XN(N - 4):
                matches = _brute_spin_match(la, lap)
                c = ofl.classify_pair_spin(la, lap)
                if not matches:
                    assert c is None
                else:
                    assert c is not None
                    tags = {t for t, _ in matches}
                    assert len(tags) == 1  # tag unique per pair
                    assert c.tag in tags
                    assert c.pivot == min(i for t, i in matches if t == c.tag)


def test_classify_pair_sl_examples():
    c = ofl.classify_pair_sl((1, 3), (1, 1))
    assert c.tag == "I" and c.pivots == (2,)
    c = ofl.classify_pair_sl((2, 2), (1, 1))
    assert c.tag == "II" and c.pivots == (1,)
    c = ofl.classify_pair_sl((1, 2), (1,))
    assert c.tag == "III" and c.pivots == (1, 2)


def _brute_sl_match(mu, mup):
    """Try every way of dropping boxes per the three case shapes."""
    if sum(mu) - sum(mup) != 2:
        return None
    k = len(mu)

    def part(j):
        return mu[j - 1] if 1 <= j <= k else 0

    for i in range(1, k + 1):
        if part(i) - 2 >= part(i - 1):
            if pt.normalize([part(j) - (2 if j == i else 0) for j in range(1, k + 1)]) == mup:
                return "I"
    for i in range(1, k):
        if part(i) == part(i + 1) and part(i) - 1 >= part(i - 1):
            if pt.normalize([part(j) - (1 if j in (i, i + 1) else 0) for j in range(1, k + 1)]) == mup:
                return "II"
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j or part(i) == part(j):
                continue
            if part(i) - 1 >= part(i - 1) and part(j) - 1 >= part(j - 1):
                if pt.normalize([part(t) - (1 if t in (i, j) else 0) for t in range(1, k + 1)]) == mup:
                    return "III"
    return None


def test_classify_pair_sl_matches_brute_force():
    for m in range(2, 10):
        for mu in pt.partitions_of(m):
            for mup in pt.partitions_of(m - 2):
                got = ofl.classify_pair_sl(mu, mup)
                expect = _brute_sl_match(mu, mup)
                if expect is None:
                    assert got is None
                else:
                    assert got is not None and got.tag == expect


def test_class_dimension_examples():
    assert pt.class_dimension((1, 1), "GL") == 0
    assert pt.class_dimension((2,), "SL") == 2
    assert pt.class_dimension((1, 3), "SO") == 4


def test_class_dimension_input_validation():
    with pytest.raises(ValueError):
        pt.class_dimension((2,), "SO")  # even part odd multiplicity
    with pytest.raises(ValueError):
        pt.class_dimension((1, 1, 1, 3), "Sp")  # odd parts with odd multiplicity
    with pytest.raises(ValueError):
        pt.class_dimension((2,), "E8")


def test_centralizer_algebra_dimension():
    assert centralizer_algebra_dimension((1, 2)) == 5
    assert centralizer_algebra_dimension((2,)) == 2


def test_conjugate():
    assert pt.conjugate((1, 3)) == (1, 1, 2)
    assert pt.conjugate(()) == ()
    for n in range(1, 11):
        for la in pt.partitions_of(n):
            assert pt.conjugate(pt.conjugate(la)) == la


def test_num_partitions():
    assert [pt.num_partitions(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
