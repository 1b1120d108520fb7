"""Partition combinatorics parametrizing unipotent classes.

Partitions are ascending tuples of positive integers; the sum is the
rank N (or n) of the ambient classical group.  This module knows which
partitions support the interesting local systems (the set X_N), the
defect statistic that selects a cuspidal series, and the closed
class-dimension formulas.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]


def normalize(parts) -> Partition:
    """Ascending tuple with zero parts dropped; rejects negatives."""
    ps = sorted(int(x) for x in parts if int(x) != 0)
    if ps and ps[0] < 0:
        raise ValueError(f"negative part in {parts}")
    return tuple(ps)


def check_partition(la: Partition) -> Partition:
    la = tuple(la)
    if any(x <= 0 for x in la):
        raise ValueError(f"non-positive part in {la}")
    if any(la[i] > la[i + 1] for i in range(len(la) - 1)):
        raise ValueError(f"parts of {la} are not ascending")
    return la


def multiplicities(la: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for x in la:
        out[x] = out.get(x, 0) + 1
    return out


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    desc = sorted(la, reverse=True)
    return tuple(sorted((sum(1 for x in desc if x >= i) for i in range(1, desc[0] + 1))))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n as ascending tuples, lexicographically sorted."""

    def gen(n: int, maxpart: int):
        if n == 0:
            yield ()
            return
        for first in range(1, min(n, maxpart) + 1):
            for rest in gen(n - first, first):
                yield rest + (first,)

    yield from sorted(gen(n, n))


@lru_cache(maxsize=None)
def num_partitions(n: int) -> int:
    if n < 0:
        return 0
    if n == 0:
        return 1
    # Euler's pentagonal recurrence
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * num_partitions(n - g1)
        if g2 <= n:
            total += sign * num_partitions(n - g2)
        k += 1
    return total


# ---------------------------------------------------------------------------
# X_N and the defect


def is_in_XN_tilde(la: Partition) -> bool:
    """Even parts occur with even multiplicity (orthogonal Jordan types)."""
    return all(m % 2 == 0 for part, m in multiplicities(check_partition(la)).items() if part % 2 == 0)


def is_in_XN(la: Partition) -> bool:
    """Members of X_N: orthogonal type and odd parts with multiplicity <= 1."""
    mult = multiplicities(check_partition(la))
    for part, m in mult.items():
        if part % 2 == 0 and m % 2 != 0:
            return False
        if part % 2 == 1 and m > 1:
            return False
    return True


def enumerate_XN(N: int, tilde: bool = False) -> list[Partition]:
    """All members of X_N (or of the larger set X~_N), lexicographically sorted.

    Generated part size by part size, largest first: an even part occurs
    in pairs, an odd part at most once (any number of times for X~_N).
    """

    def gen(n: int, k: int) -> Iterator[Partition]:
        # members of size n with every part at most k
        if n == 0:
            yield ()
            return
        k = min(k, n)
        if k <= 0:
            return
        if k % 2 == 0:
            counts = range(0, n // k + 1, 2)
        else:
            counts = range(n // k + 1) if tilde else range(2)
        for m in counts:
            for rest in gen(n - m * k, k - 1):
                yield rest + (k,) * m

    return sorted(gen(N, N))


def part_defect(m: int) -> int:
    if m % 2 == 0:
        return 0
    return 1 if m % 4 == 1 else -1


def defect(la: Partition) -> int:
    """Sum of the per-part defects: 0 for even parts, +-1 for odd parts
    according to the residue of the part mod 4."""
    return sum(part_defect(x) for x in la)


def delta_index(la: Partition, j: int) -> int:
    """The index (part_j - 1)/2 + j attached to an odd part (j is 1-based)."""
    la = check_partition(la)
    if not 1 <= j <= len(la):
        raise IndexError(f"part index {j} out of range for {la}")
    if la[j - 1] % 2 == 0:
        raise ValueError(f"part {la[j-1]} at index {j} is even")
    return (la[j - 1] - 1) // 2 + j


def odd_part_positions(la: Partition) -> list[int]:
    """1-based positions of the odd parts."""
    return [j for j, x in enumerate(la, start=1) if x % 2 == 1]


def divide(la: Partition, d: int) -> Partition:
    la = check_partition(la)
    if d < 1:
        raise ValueError(f"divisor {d} must be positive")
    if any(x % d for x in la):
        raise ValueError(f"{d} does not divide every part of {la}")
    return tuple(x // d for x in la)


# ---------------------------------------------------------------------------
# class dimensions


def group_dimension(kind: str, n: int) -> int:
    if kind == "GL":
        return n * n
    if kind == "SL":
        return n * n - 1
    if kind == "SO":
        return n * (n - 1) // 2
    if kind == "Sp":
        if n % 2:
            raise ValueError("Sp rank must be even")
        return n * (n + 1) // 2
    raise ValueError(f"unknown group kind {kind}")


def class_dimension(la: Partition, group_kind: str) -> int:
    """Dimension of the unipotent (or nilpotent) class of Jordan type la.

    Standard conjugate-partition formulas; the test suite ties them to a
    finite-field point-count oracle instead of trusting transcription.
    """
    la = check_partition(la)
    n = sum(la)
    lam_conj = conjugate(la)
    sq = sum(x * x for x in lam_conj)
    odd = sum(1 for x in la if x % 2 == 1)
    if group_kind in ("GL", "SL"):
        return n * n - sq
    if group_kind == "SO":
        if not is_in_XN_tilde(la):
            raise ValueError(f"{la} is not an orthogonal Jordan type")
        return n * (n - 1) // 2 - (sq - odd) // 2
    if group_kind == "Sp":
        if n % 2 or any(x % 2 == 1 and m % 2 for x, m in multiplicities(la).items()):
            raise ValueError(f"{la} is not a symplectic Jordan type")
        return n * (n + 1) // 2 - (sq + odd) // 2
    raise ValueError(f"unknown group kind {group_kind}")

