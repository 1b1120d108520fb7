"""Exact arithmetic in small finite fields F_{p^k}.

Field elements are encoded as integers in [0, p^k): the base-p digits
of the code are the coefficients of the residue polynomial, lowest
degree first.  A FieldSpec owns the modulus, its least primitive element
and, for small fields, lookup tables for multiplication and inversion
(built from discrete logarithms to that element) and, when k > 1, for
addition and negation, so the hot loops of flinalg, varieties and split
reduce to list indexing.

Values are immutable ints and FieldSpec is never mutated after its
tables are built, so everything here is safe to share between threads.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterator, Optional, Sequence

# Fields at or below this size get full lookup tables (add and neg only
# when k > 1, where they replace a base-p digit loop).
_TABLE_LIMIT = 1024

# Enumeration-facing modules cap q^2 at this size; make_field refuses
# anything bigger so slowness shows up as an error, not a hang.
_SIZE_LIMIT = 10**6


@lru_cache(maxsize=None)
def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, p prime and k >= 1: the package's one
    factorization, by trial division up to sqrt(q); cached because the
    table builders ask once per row."""
    if q >= 2:
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        k, m = 0, q
        while m % p == 0:
            m, k = m // p, k + 1
        if m == 1:
            return p, k
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, lowest degree first)


def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a by the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_divides(d: Sequence[int], a: Sequence[int], p: int) -> bool:
    return not _poly_mod(a, d, p)


def _monic_polys(p: int, deg: int) -> Iterator[tuple[int, ...]]:
    """All monic polynomials of exact degree deg, lexicographic in
    (c_0, c_1, ..., c_{deg-1})."""
    n = p**deg
    for code in range(n):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for f in _monic_polys(p, d):
            if _poly_divides(f, m, p):
                return False
    return True


# ---------------------------------------------------------------------------


class FieldSpec:
    """The field F_{p^k} with a fixed monic irreducible modulus.

    Elements are ints in [0, p^k); 0 and 1 are the additive and
    multiplicative identities under the encoding.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = tuple(modulus)  # monic, degree k, lowest degree first
        if self.q > _SIZE_LIMIT:
            raise ValueError(f"field size {self.q} above supported cap {_SIZE_LIMIT}")
        self._mul_table: Optional[list[int]] = None
        self._inv_table: Optional[list[int]] = None
        self._add_table: Optional[list[int]] = None
        self._neg_table: Optional[list[int]] = None
        self.primitive = self._least_primitive()  # a generator of the multiplicative group
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers

    def _least_primitive(self) -> int:
        """Least encoded element of multiplicative order q - 1."""
        order = self.q - 1
        primes, m, r = [], order, 2
        while r * r <= m:
            if m % r == 0:
                primes.append(r)
                while m % r == 0:
                    m //= r
            r += 1
        if m > 1:
            primes.append(m)
        return next(a for a in range(1, self.q) if all(self.pow(a, order // r) != 1 for r in primes))

    def _build_tables(self) -> None:
        """Products and inverses through discrete logarithms to the base
        self.primitive: a b = g^(log a + log b) and a^-1 = g^(-log a)."""
        q, g = self.q, self.primitive
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self.mul(exp[i - 1], g)
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp2 = exp + exp
        logs = log[1:]
        mul = [0] * q  # row 0
        for a in range(1, q):
            la = log[a]
            mul.append(0)
            mul.extend([exp2[la + lb] for lb in logs])
        self._mul_table = mul
        self._inv_table = [0] + [exp[-log[a] % (q - 1)] for a in range(1, q)]
        if self.k > 1:
            self._build_add_tables()

    def _build_add_tables(self) -> None:
        """Digitwise sums and negatives: the entry for a (and b) is p times
        the entry for the higher digits a // p (and b // p), plus the
        lowest digit, so each entry costs O(1)."""
        p, q = self.p, self.q
        high = [b // p for b in range(q)]
        low = [b % p for b in range(q)]
        add = list(range(q))  # row 0
        for a in range(1, q):
            base = (a // p) * q
            r = a % p
            add.extend([p * add[base + h] + (r + l) % p for h, l in zip(high, low)])
        neg = [0] * q
        for a in range(1, q):
            neg[a] = p * neg[a // p] + (-a) % p
        self._add_table = add
        self._neg_table = neg

    # -- encoding

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of length k (canonical reduced form)."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        if self.k == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self.encode(_poly_mod(_poly_mul(self.coeffs(a), self.coeffs(b), self.p), self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def scalar(self, n: int) -> int:
        """Image of the rational integer n in the field."""
        return n % self.p

    # -- Frobenius

    def frobenius(self, a: int, e: int = 1) -> int:
        """The power map a -> a^(p^e)."""
        e = e % self.k
        if e == 0:
            return a
        return self.pow(a, self.p**e)

    # -- plumbing

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={list(self.modulus)})"

    def serialize_element(self, a: int) -> list[int]:
        """JSON form of an element: its coefficient tuple [a0, ..., a_{k-1}]."""
        return list(self.coeffs(a))


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldSpec:
    """Construct F_{p^k} with a deterministic modulus.

    The modulus is the lexicographically least monic irreducible of
    degree k over F_p (order on (c_0, ..., c_{k-1})), so repeated runs
    produce identical encodings and identical table output.
    """
    if prime_power(p) != (p, 1):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree k = {k} must be >= 1")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for m in _monic_polys(p, k):
        if _is_irreducible(m, p):
            return FieldSpec(p, k, m)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over F_{p} found")
