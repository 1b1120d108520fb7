"""Exact arithmetic in cyclotomic rings Q(zeta_n).

Elements are coefficient vectors over the power basis 1, zeta, ...,
zeta^{phi(n)-1} of Z[x]/(Phi_n(x)), where Phi_n is the n-th cyclotomic
polynomial.  Phi_n is monic, so the power table and products stay in the
integers: coefficients are kept as given, ints stay ints, and a Fraction
appears only through division by a rational.  The reduced vector of an
element is unique, so equality compares coefficients.  This is enough
for every character value in the package: no floating point appears
anywhere.

Values are immutable; a CycRing is shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence


def _divide_monic(a: list[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b for a monic b that divides a (lowest degree first)."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in reversed(range(len(q))):
        c = q[k] = a[k + db]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    if any(a):
        raise AssertionError("division by a monic polynomial left a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first (integer, monic)."""
    # (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _divide_monic(num, cyclotomic_polynomial(d))
    return tuple(num)


class CycRing:
    """The cyclotomic field of order n, with its reduction data."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("order must be positive")
        self.n = n
        self.phi_poly = cyclotomic_polynomial(n)
        self.degree = d = len(self.phi_poly) - 1
        # zeta^k reduced to the power basis, for k = 0 .. n-1: multiply by
        # zeta and subtract the overflow times the monic Phi_n
        self._powers: list[tuple[int, ...]] = []
        cur = [1] + [0] * (d - 1)
        for _ in range(n):
            self._powers.append(tuple(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            for i in range(d):
                cur[i] -= lead * self.phi_poly[i]

    def zero(self) -> "Cyc":
        return Cyc(self, (0,) * self.degree)

    def one(self) -> "Cyc":
        return self.from_int(1)

    def from_int(self, v) -> "Cyc":
        return Cyc(self, (v,) + (0,) * (self.degree - 1))

    def root(self, k: int = 1) -> "Cyc":
        """zeta_n^k."""
        return Cyc(self, self._powers[k % self.n])

    def root_of_unity(self, m: int, k: int = 1) -> "Cyc":
        """zeta_m^k inside this ring (m must divide n)."""
        if self.n % m != 0:
            raise ValueError(f"no primitive {m}-th root in Q(zeta_{self.n})")
        return self.root((self.n // m) * k)

    def i(self) -> "Cyc":
        return self.root_of_unity(4)

    def _reduce(self, out: list, terms) -> "Cyc":
        """The element out + sum c * zeta^k over the (k, c) pairs."""
        for k, c in terms:
            if c:
                for i, x in enumerate(self._powers[k % self.n]):
                    out[i] += c * x
        return Cyc(self, out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycRing) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("CycRing", self.n))

    def __repr__(self) -> str:
        return f"CycRing({self.n})"


class Cyc:
    """An element of a cyclotomic field, exact."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycRing, coeffs: Sequence):
        self.ring = ring
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != ring.degree:
            raise AssertionError(f"{len(self.coeffs)} coefficients for a ring of degree {ring.degree}")

    # -- arithmetic

    def _check(self, other: "Cyc") -> None:
        if self.ring != other.ring:
            raise ValueError("cyclotomic ring mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            return Cyc(self.ring, (self.coeffs[0] + other,) + self.coeffs[1:])
        self._check(other)
        return Cyc(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.ring, tuple(a * other for a in self.coeffs))
        self._check(other)
        d = self.ring.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # powers below d are already reduced
        return self.ring._reduce(prod[:d], enumerate(prod[d:], start=d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.ring, tuple(Fraction(a, other) for a in self.coeffs))
        raise TypeError("division only by rational scalars")

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^{-1}."""
        return self.galois(-1)

    def galois(self, t: int) -> "Cyc":
        """The map zeta -> zeta^t (t coprime to the order)."""
        return self.ring._reduce([0] * self.ring.degree, ((k * t, c) for k, c in enumerate(self.coeffs)))

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.n, self.coeffs))

    def as_rational(self) -> Optional[Fraction]:
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def as_int(self) -> Optional[int]:
        r = self.as_rational()
        if r is None or r.denominator != 1:
            return None
        return int(r)

    def serialize(self) -> list[str]:
        """Coefficient vector over the power basis, as exact strings."""
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                if k == 0:
                    terms.append(str(c))
                elif k == 1:
                    terms.append(f"{c}*z")
                else:
                    terms.append(f"{c}*z^{k}")
        return " + ".join(terms) if terms else "0"

