import cmath
from fractions import Fraction
from math import gcd

import oracles_groups as og
from hypothesis import given, settings
from hypothesis import strategies as st

from springer.cyclotomic import Cyc, CycRing, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_orders():
    for n in (3, 4, 5, 6, 8, 12, 20):
        R = CycRing(n)
        z = R.root()
        acc = R.one()
        for k in range(1, n + 1):
            acc = acc * z
            if k < n:
                assert not (acc - R.one()).is_zero() or n == 1
        assert acc == R.one()


def test_i_squared():
    R = CycRing(4)
    assert R.i() * R.i() == R.from_int(-1)
    R = CycRing(12)
    assert R.i() * R.i() == R.from_int(-1)


def test_geometric_sum_vanishes():
    # 1 + z + ... + z^{n-1} = 0 for n > 1
    for n in (2, 3, 4, 5, 6, 8, 10):
        R = CycRing(n)
        s = R.zero()
        for k in range(n):
            s = s + R.root(k)
        assert s.is_zero()


def test_conj_is_inverse_root():
    for n in (4, 5, 8, 12):
        R = CycRing(n)
        for k in range(n):
            assert R.root(k).conj() == R.root(-k)
        # conjugation is a ring homomorphism on a sample
        a = R.root(1) + 2 * R.root(3)
        b = R.root(2) - R.one()
        assert (a * b).conj() == a.conj() * b.conj()


def test_rational_detection():
    R = CycRing(4)
    assert (R.i() * R.i()).as_int() == -1
    assert R.i().as_int() is None
    x = R.one() / 2
    assert x.as_rational() == Fraction(1, 2)
    assert x.as_int() is None


def lift(x, ring):
    """Image of x in a cyclotomic ring whose order is a multiple of x's."""
    step = ring.n // x.ring.n
    out = ring.zero()
    for k, c in enumerate(x.coeffs):
        if c:
            out = out + ring.root(k * step) * c
    return out


def test_lift():
    R4, R12 = CycRing(4), CycRing(12)
    i4 = lift(R4.i(), R12)
    assert i4 == R12.i()
    a = R4.one() + R4.i() * 3
    assert lift(a * a, R12) == lift(a, R12) * lift(a, R12)


def test_sqrt_rational():
    R = CycRing(4)
    assert og.sqrt_rational(R, Fraction(4)) * og.sqrt_rational(R, Fraction(4)) == R.from_int(4)
    assert og.sqrt_rational(R, Fraction(-4)) * og.sqrt_rational(R, Fraction(-4)) == R.from_int(-4)
    assert og.sqrt_rational(R, Fraction(2)) is None  # needs an 8th root
    R8 = CycRing(8)
    for v in (2, -2, 8, Fraction(1, 2), Fraction(-9, 2)):
        s = og.sqrt_rational(R8, Fraction(v))
        assert s is not None and s * s == R8.one() * Fraction(v)
    assert og.sqrt_rational(R8, Fraction(3)) is None


def test_galois():
    R = CycRing(5)
    z = R.root()
    assert z.galois(2) == R.root(2)
    a = z + 3 * R.root(2)
    b = z * z - R.one()
    assert (a * b).galois(3) == a.galois(3) * b.galois(3)


# ---------------------------------------------------------------------------
# against an independent model: evaluation at zeta_n = exp(2 pi i / n)

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12, 24)
integers = st.integers(-30, 30)
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def evaluate(x) -> complex:
    zeta = cmath.exp(2j * cmath.pi / x.ring.n)
    return sum(float(c) * zeta**k for k, c in enumerate(x.coeffs))


def close(x, value: complex) -> bool:
    return cmath.isclose(evaluate(x), value, rel_tol=1e-9, abs_tol=1e-9)


@st.composite
def elements(draw, n, coeff):
    R = CycRing(n)
    return Cyc(R, draw(st.lists(coeff, min_size=R.degree, max_size=R.degree)))


@st.composite
def ring_pairs(draw):
    n = draw(st.sampled_from(ORDERS))
    coeff = draw(st.sampled_from((integers, rationals)))
    return draw(elements(n, coeff)), draw(elements(n, coeff)), draw(st.sampled_from([t for t in range(1, n + 1) if gcd(t, n) == 1]))


@settings(max_examples=300, deadline=None)
@given(ring_pairs())
def test_arithmetic_agrees_with_complex_evaluation(case):
    a, b, t = case
    n = a.ring.n
    assert close(a + b, evaluate(a) + evaluate(b))
    assert close(a * b, evaluate(a) * evaluate(b))
    assert close(a.conj(), evaluate(a).conjugate())
    # zeta -> zeta^t on the coefficient vector, evaluated independently
    zeta_t = cmath.exp(2j * cmath.pi * t / n)
    assert close(a.galois(t), sum(float(c) * zeta_t**k for k, c in enumerate(a.coeffs)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(lambda n: elements(n, integers)))
def test_int_and_fraction_forms_are_one_element(a):
    b = Cyc(a.ring, [Fraction(c) for c in a.coeffs])
    assert a == b and hash(a) == hash(b)
    # equality with an integer and zero tests read the value, not a coefficient
    k = a.coeffs[0]
    assert (a == k) == (b == k) == cmath.isclose(evaluate(a), k, abs_tol=1e-9)
    assert a.is_zero() == b.is_zero() == cmath.isclose(evaluate(a), 0, abs_tol=1e-9)
    assert (a * 3) / 3 == a and hash((a * 3) / 3) == hash(a)
