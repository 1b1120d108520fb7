"""Two-step symmetric-group branching and the restriction crosscheck.

The multiplicity of an irreducible of S_{m-2} in the restriction of an
irreducible of S_m is the number of two-box removal paths between the
shapes; it is 1 when the removed boxes share a row (case I) or a column
(case II) and 2 when they share neither (case III).  The crosscheck
compares that number against the count of Jordan-type strata in the
corresponding flag enumeration over a small field; one stratum tally per
(lambda, d) answers every lambda' of the right size.  At d = 1 that
tally types one line of ker x per centralizer orbit and sizes the orbit
in closed form, so the check covers every line without listing them;
at d = 2 every cyclic plane is walked and typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Optional

from .partitions import Partition, check_partition, divide, normalize
from .split import build_sl_split
from .varieties import sl_stratum_analysis


def one_box_removals(mu: Partition) -> list[Partition]:
    """Shapes obtained by removing one corner box."""
    desc = sorted(mu, reverse=True)
    out = []
    # a corner row is the last row of its length, so two of them give two shapes
    for i in range(len(desc)):
        if i == len(desc) - 1 or desc[i] > desc[i + 1]:
            cand = list(desc)
            cand[i] -= 1
            out.append(normalize(cand))
    return out


@dataclass(frozen=True)
class BranchResult:
    multiplicity: int
    witnesses: tuple[Partition, ...]  # intermediate shapes, one per path
    case_tag: Optional[str]


def branch_two_step(mu: Partition, mup: Partition) -> BranchResult:
    """Multiplicity of mu' in the two-step restriction from mu.

    Counted by the classical one-box rule applied twice; the case tag is
    read off the removal paths: two paths are case III, one path is case
    I when a single part of mu loses both boxes and case II otherwise,
    and without a path the tag is None.
    """
    mu = check_partition(mu)
    mup = check_partition(mup)
    if sum(mu) - sum(mup) != 2:
        raise ValueError(f"sizes {sum(mu)} and {sum(mup)} do not differ by 2")
    witnesses = tuple(kappa for kappa in one_box_removals(mu) if mup in one_box_removals(kappa))
    if len(witnesses) == 2:
        tag = "III"
    elif witnesses:
        # a removed corner keeps its row's place in descending order
        rows = zip_longest(sorted(mu, reverse=True), sorted(mup, reverse=True), fillvalue=0)
        tag = "I" if any(a - b == 2 for a, b in rows) else "II"
    else:
        tag = None
    return BranchResult(multiplicity=len(witnesses), witnesses=witnesses, case_tag=tag)


@dataclass(frozen=True)
class CrosscheckReport:
    la: Partition
    lap: Partition
    d: int
    q: int
    lhs_strata: int
    rhs_multiplicity: int

    @property
    def ok(self) -> bool:
        return self.lhs_strata == self.rhs_multiplicity


def restriction_crosscheck_sl(la: Partition, laps: Iterable[Partition], d: int, q: int) -> list[CrosscheckReport]:
    """Principal stratum count of the flag variety versus the branching
    number, one report per lambda' in laps, in the order given, for the
    split unipotent of twisted SL_n over F_q, q any prime power.

    The isotypic piece lives on the top-dimensional components, which are
    the strata labeled by single-row drops of the ambient type; strata
    with mixed-strip labels occur for d > 1 but in smaller dimension and
    are not counted.  Incompatible inputs (a part not divisible by d on
    either side) give 0 = 0.  The split datum and its stratum tally are
    built once, at the first compatible lambda', and serve every
    lambda'.
    """
    la = check_partition(la)
    report = None
    out = []
    for lap in map(check_partition, laps):
        if sum(la) - sum(lap) != 2 * d or any(x % d for x in la + lap):
            # no central character of order d lives on either side, so no
            # isotypic piece exists: both sides of the identity are zero
            out.append(CrosscheckReport(la, lap, d, q, lhs_strata=0, rhs_multiplicity=0))
            continue
        rhs = branch_two_step(divide(la, d), divide(lap, d) if lap else ()).multiplicity
        if report is None:
            report = sl_stratum_analysis(build_sl_split(la, q), d)
        out.append(CrosscheckReport(la, lap, d, q, lhs_strata=len(report.principal_types(lap)), rhs_multiplicity=rhs))
    return out
