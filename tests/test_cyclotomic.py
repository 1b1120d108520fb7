from fractions import Fraction

from springer.cyclotomic import CycRing, cyclotomic_polynomial, sqrt_rational


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
    assert sqrt_rational(R, Fraction(4)) * sqrt_rational(R, Fraction(4)) == R.from_int(4)
    assert sqrt_rational(R, Fraction(-4)) * sqrt_rational(R, Fraction(-4)) == R.from_int(-4)
    assert sqrt_rational(R, Fraction(2)) is None  # needs an 8th root
    R8 = CycRing(8)
    for v in (2, -2, 8, Fraction(1, 2), Fraction(-9, 2)):
        s = sqrt_rational(R8, Fraction(v))
        assert s is not None and s * s == R8.one() * Fraction(v)
    assert sqrt_rational(R8, Fraction(3)) is None


def test_galois():
    R = CycRing(5)
    z = R.root()
    assert z.galois(2) == R.root(2)
    a = z + 3 * R.root(2)
    b = z * z - R.one()
    assert (a * b).galois(3) == a.galois(3) * b.galois(3)
