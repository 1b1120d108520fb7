"""Exponent bookkeeping and the characteristic-function table rows.

The exponent pair (a_0, r) of a class in a cuspidal series is computed
from the dimension data of the group, the Levi and the two classes, so
that a_0 + r = (dim G - dim C) - (dim L - dim C_0) by construction; the
emitted sum is checked to be even, for q^{(a_0+r)/2} to stay
polynomial.

A table row Y0 lists the exact values Tr(a tau, rho~) over the twisted
classes of the component group of a split element: the computable basis
vector attached to the pair (class, local system) under the convention
that the normalizing scalar is 1 at split elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .component_groups import (
    ExtendedChar,
    IrrChar,
    build_sl_component,
    build_spin_gamma,
    cyclic_characters_with_xi,
    extend_character,
    is_tau_stable,
    spin_irreducibles,
    twisted_classes,
)
from .ffield import prime_power
from .partitions import (
    Partition,
    check_partition,
    class_dimension,
    defect,
    delta_index,
    enumerate_XN,
    group_dimension,
    is_in_XN,
    odd_part_positions,
    partitions_of,
)
from .series import spin_weyl_rank, xi_is_f_stable


class EmptyFiberError(ValueError):
    """The pair (class, central character) supports no local system."""


class NotFStableError(ValueError):
    """The requested central character or local system is moved by F."""


# ---------------------------------------------------------------------------
# exponents


@dataclass(frozen=True)
class ExponentData:
    a0: int
    r: int

    @property
    def total(self) -> int:
        return self.a0 + self.r

    @property
    def even(self) -> bool:
        return self.total % 2 == 0


def exponents_sl(la: Partition, d: int) -> ExponentData:
    """Exponent data for a class of SL_n in the order-d series."""
    la = check_partition(la)
    n = sum(la)
    if n % d:
        raise ValueError(f"series label {d} does not divide n = {n}")
    if any(x % d for x in la):
        raise ValueError(f"{la} is outside the order-{d} series (empty fiber)")
    k = n // d
    dim_g = group_dimension("SL", n)
    dim_l = k * d * d - 1
    dim_zl = k - 1
    dim_c0 = k * (d * d - d)  # regular class in each GL_d factor
    dim_c = class_dimension(la, "SL")
    a0 = -dim_zl - dim_c
    r = dim_g - dim_l + dim_c0 + dim_zl
    return ExponentData(a0=a0, r=r)


def spin_cuspidal_class(d: int) -> Partition:
    """The unique member of X_{d(2d-1)} with defect d (the series core):
    (1, 5, ..., 4d - 3) for d > 0, (3, 7, ..., 4|d| - 1) for d < 0."""
    return tuple(range(1 if d > 0 else 3, 4 * abs(d), 4))


def exponents_spin(la: Partition) -> ExponentData:
    """Exponent data for a spin class, in the series of its defect."""
    la = check_partition(la)
    if not is_in_XN(la):
        raise ValueError(f"{la} is not in X_N")
    N = sum(la)
    d = defect(la)
    m = spin_weyl_rank(N, d)
    D = d * (2 * d - 1)
    dim_g = group_dimension("SO", N)
    dim_l = 4 * m + group_dimension("SO", D)
    dim_zl = m
    core = spin_cuspidal_class(d)
    dim_c0 = 2 * m + (class_dimension(core, "SO") if core else 0)
    dim_c = class_dimension(la, "SO")
    a0 = -dim_zl - dim_c
    r = dim_g - dim_l + dim_c0 + dim_zl
    return ExponentData(a0=a0, r=r)


# ---------------------------------------------------------------------------
# table rows


@dataclass(frozen=True)
class GreenBasisRow:
    group: str  # "sl" or "spin"
    q: int
    la: Partition
    series: int  # d: character order (sl) or defect (spin)
    rho_label: str
    extension_label: str
    dim: int
    classes: tuple  # tuple of (representative, size)
    values: tuple  # tuple of Cyc, one per class
    exponents: ExponentData

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "q": self.q,
            "series": self.series,
            "lambda": list(self.la),
            "rho": self.rho_label,
            "extension": self.extension_label,
            "dim": self.dim,
            "classes": [{"rep": _rep_str(self.group, rep), "size": size} for rep, size in self.classes],
            "values": [v.serialize() for v in self.values],
            "a0": self.exponents.a0,
            "r": self.exponents.r,
        }


def _rep_str(group: str, rep) -> str:
    if group == "sl":
        return str(rep)
    a, mask = rep
    bits = []
    if a:
        bits.append("eps")
    i = 0
    m = mask
    while m:
        if m & 1:
            bits.append(f"x{i + 1}")
        m >>= 1
        i += 1
    return "*".join(bits) if bits else "1"


def _checked_row(
    group: str, q: int, la: Partition, series: int, rho: IrrChar, ext: ExtendedChar, A, exp: ExponentData
) -> GreenBasisRow:
    """The row of ext's values on the twisted classes of A (the orbits
    of a -> b a tau(b)^{-1}, read off in closed form).

    Checked: each value is constant on its class, the exponent sum is
    even, and the trivial extension carries dim rho on the identity
    class.  An extension through the word intertwiner T = +-i^s rho(w)
    (tau nontrivial on rho) has tr T there, not dim rho; extend_character
    has checked T^2 = 1 and T rho T^-1 = rho tau for the irreducible rho,
    which makes twisted orthogonality (sum over classes of size *
    |value|^2 = |A|) a theorem, so the tests assert it instead.
    """
    classes = twisted_classes(A)
    vm = ext.coset_values
    values = []
    for rep, members in classes:
        if any(vm[m] != vm[rep] for m in members):
            raise AssertionError("extension value is not constant on a twisted class")
        values.append(vm[rep])
    if ext.label == "trivial" and values[0] != rho.dim:
        raise AssertionError("identity-class value differs from the dimension")
    if not exp.even:
        raise AssertionError(f"odd exponent sum {exp.total} in an emitted row")
    return GreenBasisRow(
        group=group,
        q=q,
        la=la,
        series=series,
        rho_label=rho.label,
        extension_label=ext.label,
        dim=rho.dim,
        classes=tuple((rep, len(members)) for rep, members in classes),
        values=tuple(values),
        exponents=exp,
    )


def y0_row_sl(la: Partition, xi_order: int, q: int) -> GreenBasisRow:
    """One table row for a class of twisted SL_n over F_q, q a prime power.

    Refuses central characters moved by F (order not dividing q + 1) and
    pairs with empty fiber (a part not divisible by the order).
    """
    la = check_partition(la)
    if any(x % xi_order for x in la):
        raise EmptyFiberError(f"no local system: {xi_order} does not divide every part of {la}")
    if not xi_is_f_stable(xi_order, q):
        raise NotFStableError(
            f"central character of order {xi_order} is moved by F (it maps to its -q power; {xi_order} does not divide q + 1 = {q + 1})"
        )
    A = build_sl_component(la, q)
    found = cyclic_characters_with_xi(A, xi_order)
    if not found:
        raise EmptyFiberError(f"no character of Z/{A.m} lifts the order-{xi_order} central character")
    rho = found[0]
    ext = extend_character(rho, A)[0]
    return _checked_row("sl", q, la, xi_order, rho, ext, A, exponents_sl(la, xi_order))


def spin_tau_signs(la: Partition, q: int) -> tuple[int, ...]:
    """F-signs on the odd-block generators x_j = v^j_1 ... v^j_h, in
    position order: all +1 when q = 1 mod 4, else (-1)^{delta_j + 1} for
    the odd part at position j, delta_j = partitions.delta_index.

    The package's only source for these signs.  tests/oracles_clifford.py
    derives them from an orthonormal basis of each odd block over F_{q^2}
    and from the generators multiplied out inside the Clifford algebra.
    Only partitions in X_N carry the generators.
    """
    if not is_in_XN(la):
        raise ValueError(f"{la} is not in X_N")
    if q % 4 == 1:
        return tuple(1 for _ in odd_part_positions(la))
    return tuple((-1) ** ((delta_index(la, j) + 1) % 2) for j in odd_part_positions(la))


def y0_row_spin(
    la: Partition, q: int, omega_value: Optional[str] = None, extension: Optional[str] = None
) -> tuple[GreenBasisRow, ...]:
    """The table rows of a spin class over F_q, q an odd prime power, with
    central character -1 at eps.

    For even N the central character also takes a value at omega.  On a
    class with an even, nonzero number of odd parts it selects one of the
    two candidate local systems: omega_value is one of "1", "-1", "i",
    "-i" (matched against the character value on the full generator
    word), by default "i" when N = 2 (mod 4), where the center is Z/4
    and omega squares to eps, so it acts by i or -i; otherwise "1".  A
    class with one candidate ignores omega_value.  A class with one
    extension gives one row and ignores extension.  When tau acts
    nontrivially on a local system of dimension > 1 it has two
    extensions, from one build of the class: extension ("plus" or
    "minus") names the row to give, and without it the class gives its
    plus row, then its minus row.
    """
    p, _ = prime_power(q)
    la = check_partition(la)
    if not is_in_XN(la):
        raise EmptyFiberError(f"{la} is not in X_N: no local system with central sign -1")
    if p == 2:
        raise ValueError("spin tables need odd q")
    N = sum(la)
    signs = spin_tau_signs(la, q)
    A = build_spin_gamma(la, tau_signs=signs)
    chars = spin_irreducibles(A)
    if len(chars) > 1:
        omega_value = omega_value or ("i" if N % 4 == 2 else "1")
        ring = chars[0].ring
        target = {"1": ring.one(), "-1": -ring.one(), "i": ring.i(), "-i": -ring.i()}[omega_value]
        w = A.full_word()
        matching = [c for c in chars if c.values[w] == target * c.dim]
        if not matching:
            raise EmptyFiberError(f"no local system with omega acting by {omega_value}")
        rho = matching[0]
    else:
        rho = chars[0]
    if not is_tau_stable(A, rho):
        raise NotFStableError("the local system attached to the pair is moved by F")
    exts = extend_character(rho, A)
    if len(exts) > 1:
        labels = ["plus", "minus"]
        if extension not in [None, *labels]:
            raise ValueError(f"two extensions exist; pass extension= one of {labels}")
        exts = [next(e for e in exts if e.label == label) for label in ([extension] if extension else labels)]
    exp = exponents_spin(la)
    return tuple(_checked_row("spin", q, la, defect(la), rho, ext, A, exp) for ext in exts)


def y0_table_sl(n: int, xi_order: int, q: int) -> list[GreenBasisRow]:
    """All rows of the order-d series of twisted SL_n over F_q, la in
    lexicographic order.

    The classes of the series are the la whose parts d divides: none when
    d does not divide n, else d * mu for mu a partition of n / d.  Scaling
    by d keeps the lexicographic order of partitions_of(n // d).  A q that
    is not a prime power is refused first, also when no row would follow.
    """
    prime_power(q)
    if n % xi_order:
        return []
    return [y0_row_sl(tuple(xi_order * x for x in mu), xi_order, q) for mu in partitions_of(n // xi_order)]


def y0_table_spin(N: int, q: int, omega_value: Optional[str] = None, extension: Optional[str] = None) -> list[GreenBasisRow]:
    """Rows for every class of X_N (split twist, central sign -1) over F_q.

    omega_value and extension pass through to y0_row_spin, which owns
    their defaults: without extension, a class with two extensions gives
    its plus row, then its minus row.  A class whose local system F
    moves gives no row.  A q that is not a prime power is refused first,
    also when X_N is empty.
    """
    prime_power(q)
    rows = []
    for la in enumerate_XN(N):
        try:
            rows += y0_row_spin(la, q, omega_value, extension)
        except NotFStableError:
            continue
    return rows

