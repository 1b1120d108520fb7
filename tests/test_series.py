from collections import Counter

import pytest

from springer import partitions as pt
from springer import series as sr


def test_enumerate_spin_series_examples():
    s5 = sr.enumerate_spin_series(5)
    assert [(c.d, c.weyl_rank) for c in s5] == [(1, 1)]
    s7 = sr.enumerate_spin_series(7)
    assert [(c.d, c.weyl_rank) for c in s7] == [(-1, 1)]
    s14 = sr.enumerate_spin_series(14)
    assert {c.d for c in s14} == {2, -2}
    # sorted by |d| then sign (positive first)
    assert [c.d for c in s14] == [2, -2]


def test_spin_series_of_examples():
    # a class in X_N lies in the series of its defect
    assert (pt.defect((5,)), sr.spin_weyl_rank(5, pt.defect((5,)))) == (1, 1)
    assert (pt.defect((1, 2, 2)), sr.spin_weyl_rank(5, pt.defect((1, 2, 2)))) == (1, 1)
    assert (pt.defect((1, 3)), sr.spin_weyl_rank(4, pt.defect((1, 3)))) == (0, 1)
    assert not pt.is_in_XN((1, 1, 3))


def test_every_class_maps_to_an_enumerated_series():
    for N in range(3, 21):
        labels = {c.d for c in sr.enumerate_spin_series(N)}
        for la in pt.enumerate_XN(N):
            d = pt.defect(la)
            assert d in labels
            assert sr.spin_weyl_rank(N, d) >= 0


def test_count_bipartitions():
    assert sr.count_bipartitions(0) == 1
    assert sr.count_bipartitions(1) == 2
    assert sr.count_bipartitions(2) == 5
    # independent enumeration oracle
    def brute(m):
        total = 0
        for k in range(m + 1):
            total += len(list(pt.partitions_of(k))) * len(list(pt.partitions_of(m - k)))
        return total

    for m in range(8):
        assert sr.count_bipartitions(m) == brute(m)


def test_series_cardinality_small_examples():
    counts = sr.xn_defect_counts(9)
    r5 = sr.verify_series_cardinality(5, counts[5])
    assert r5.ok and r5.entries[0].class_count == 2 and r5.entries[0].bipartition_count == 2
    r4 = sr.verify_series_cardinality(4, counts[4])
    e0 = [e for e in r4.entries if e.d == 0][0]
    assert e0.class_count == 2 and e0.bipartition_count == 2
    r9 = sr.verify_series_cardinality(9, counts[9])
    assert r9.ok


def test_defect_counts_match_the_listing_of_XN():
    # the one-pass count by (size, defect) against X_N listed in full: one
    # pass to 40 counts every smaller size, as a pass to that size does
    counts = sr.xn_defect_counts(40)
    assert len(counts) == 41
    for N in range(41):
        assert counts[N] == sr.xn_defect_counts(N)[N] == Counter(pt.defect(la) for la in pt.enumerate_XN(N)), N


def test_series_cardinality_through_20():
    counts = sr.xn_defect_counts(20)
    for N in range(3, 21):
        assert sr.verify_series_cardinality(N, counts[N]).ok, N


def test_sl_springer_label():
    # the symmetric-group label of a class in the order-d series is la/d
    lab = pt.divide((5,), 5)
    assert lab == (1,) and sum(lab) == 1
    assert pt.divide((2, 4), 2) == (1, 2)
    with pytest.raises(ValueError):
        pt.divide((1, 5), 2)


def test_sl_series_divisibility_bijection():
    # {la |- n : d | all parts} <-> partitions of n/d via divide
    for n in range(1, 13):
        for d in range(1, n + 1):
            if n % d:
                continue
            fibered = [la for la in pt.partitions_of(n) if all(x % d == 0 for x in la)]
            images = sorted(pt.divide(la, d) for la in fibered)
            assert images == sorted(pt.partitions_of(n // d))


def test_enumerate_sl_series():
    s = sr.enumerate_sl_series(6, 5)
    assert [(c.d, c.f_rational) for c in s] == [(1, True), (2, True), (3, True), (6, True)]
    s = sr.enumerate_sl_series(6, 7)
    assert [(c.d, c.f_rational) for c in s] == [(1, True), (2, True), (3, False), (6, False)]
    # p | n removes p-part from the divisor list, also when q = p^k, k > 1
    s = sr.enumerate_sl_series(6, 3)
    assert [c.d for c in s] == [1, 2]
    s = sr.enumerate_sl_series(6, 8)
    assert [(c.d, c.f_rational) for c in s] == [(1, True), (3, True)]


def test_xi_f_stable_direct():
    for d in range(1, 13):
        for q in (2, 3, 4, 5, 7, 9):
            assert sr.xi_is_f_stable(d, q) == ((q + 1) % d == 0)
