"""Cuspidal series enumeration and series-level correspondence maps.

For the spin groups the series with nontrivial central character are
labeled by integers d with d = N mod 4 and d(2d - 1) < N; the attached
Weyl group is hyperoctahedral of rank (N - d(2d - 1))/4.  For SL_n the
series are labeled by divisors d of n (the order of a central
character), with symmetric-group Weyl groups of degree n/d.

Only the series-level data is produced here.  A class of SL_n lies in
the order-d series when d divides every part, with symmetric-group
label partitions.divide(la, d); a class in X_N lies in the series of
its defect, of Weyl rank spin_weyl_rank(N, defect).  On the spin side
the checked statement is the cardinality identity of
verify_series_cardinality: per series, as many classes as bipartitions
of the rank.  The classes are counted by defect without listing X_N:
xn_defect_counts takes one pass over the part sizes, keyed by (size,
defect), for every N at once; tests check it against enumerate_XN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ffield import prime_power
from .partitions import num_partitions, part_defect


@dataclass(frozen=True)
class CuspidalDatumSpin:
    d: int
    levi_type: str
    weyl_rank: int


@dataclass(frozen=True)
class CuspidalDatumSL:
    d: int
    f_rational: bool  # d | q + 1 for the twisted form


def spin_weyl_rank(N: int, d: int) -> int:
    num = N - d * (2 * d - 1)
    if num < 0 or num % 4:
        raise ValueError(f"d = {d} is not a series label for N = {N}")
    return num // 4


def _spin_levi_label(N: int, d: int) -> str:
    rank = spin_weyl_rank(N, d)
    core = d * (2 * d - 1)
    if N % 2 == 1:
        head = f"B{(abs(d) - 1) * (2 * abs(d) + 1) // 2}" if core > 1 else "B0"
    else:
        head = f"D{core // 2}"
    a1s = "+".join(["A1"] * rank)
    return head + ("+" + a1s if a1s else "")


def enumerate_spin_series(N: int) -> list[CuspidalDatumSpin]:
    """All series labels d with d = N mod 4 and d(2d-1) <= N, sorted by
    |d| then sign.

    Equality d(2d-1) = N is the rank-zero series whose cuspidal datum
    lives on the whole group; it must be included for every member of
    X_N to land in a series (e.g. N = 3, d = -1).
    """
    if N < 3:
        raise ValueError("spin series need N >= 3")
    out = []
    bound = 1
    while bound * (2 * bound - 1) <= N:
        bound += 1
    for d in range(-bound, bound + 1):
        if (d - N) % 4 == 0 and d * (2 * d - 1) <= N:
            out.append(CuspidalDatumSpin(d=d, levi_type=_spin_levi_label(N, d), weyl_rank=spin_weyl_rank(N, d)))
    out.sort(key=lambda c: (abs(c.d), -c.d))
    return out


def p_prime_part(n: int, p: int) -> int:
    """n with every factor p divided out."""
    if n < 1:
        raise ValueError(f"the group order n = {n} must be at least 1")
    while n % p == 0:
        n //= p
    return n


def enumerate_sl_series(n: int, q: int) -> list[CuspidalDatumSL]:
    """Series labels for SL_n over F_q in characteristic p: divisors d of
    the p'-part of n, each flagged F-rational by xi_is_f_stable(d, q)."""
    p, _ = prime_power(q)
    if n < 1:
        raise ValueError("n must be positive")
    nprime = p_prime_part(n, p)
    return [CuspidalDatumSL(d=d, f_rational=xi_is_f_stable(d, q)) for d in range(1, nprime + 1) if nprime % d == 0]


def xi_is_f_stable(d: int, q: int) -> bool:
    """Direct computation: xi of order d satisfies xi^{-q} = xi iff
    (-q) = 1 mod d, i.e. d | q + 1."""
    return (-q) % d == 1 % d


@lru_cache(maxsize=None)
def count_bipartitions(m: int) -> int:
    """Ordered pairs of partitions of total size m (hyperoctahedral
    irreducible count)."""
    if m < 0:
        raise ValueError("size must be non-negative")
    return sum(num_partitions(k) * num_partitions(m - k) for k in range(m + 1))


@dataclass(frozen=True)
class SeriesCountEntry:
    d: int
    weyl_rank: int
    class_count: int
    bipartition_count: int

    @property
    def ok(self) -> bool:
        return self.class_count == self.bipartition_count


@dataclass(frozen=True)
class SeriesCardinalityReport:
    N: int
    entries: tuple[SeriesCountEntry, ...]
    all_classes_mapped: bool

    @property
    def ok(self) -> bool:
        return self.all_classes_mapped and all(e.ok for e in self.entries)


def xn_defect_counts(N_max: int) -> list[dict[int, int]]:
    """Entry N, for each N <= N_max: |{la in X_N : defect(la) = d}| for
    each d that occurs.

    One pass over the part sizes k = 1..N_max, counting members by (size,
    defect): an even part k adds 2k, 4k, ... boxes (it comes in pairs),
    an odd part adds k boxes at most once, with its part_defect.  No
    part above N reaches size N, so the pass is complete for each N.
    """
    counts = {(0, 0): 1}
    for k in range(1, N_max + 1):
        steps = [(k, part_defect(k))] if k % 2 else [(m, 0) for m in range(2 * k, N_max + 1, 2 * k)]
        grown = dict(counts)
        for (size, d), c in counts.items():
            for m, dd in steps:
                if size + m > N_max:
                    break
                key = (size + m, d + dd)
                grown[key] = grown.get(key, 0) + c
        counts = grown
    return [{d: c for (size, d), c in counts.items() if size == N} for N in range(N_max + 1)]


def verify_series_cardinality(N: int, by_d: dict[int, int]) -> SeriesCardinalityReport:
    """Per series d: |{la in X_N : defect = d}|, entry N of xn_defect_counts,
    versus the number of bipartitions of the series rank; also checks
    that every defect of a class is an enumerated series label."""
    series = enumerate_spin_series(N)
    entries = tuple(
        SeriesCountEntry(
            d=s.d,
            weyl_rank=s.weyl_rank,
            class_count=by_d.get(s.d, 0),
            bipartition_count=count_bipartitions(s.weyl_rank),
        )
        for s in series
    )
    return SeriesCardinalityReport(N=N, entries=entries, all_classes_mapped=set(by_d) <= {s.d for s in series})
