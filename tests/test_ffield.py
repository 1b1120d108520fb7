import pytest
from oracles_clifford import least_nonsquare_in_subfield, sqrt, zeta4
from oracles_flags import subfield_elements

from springer.ffield import _poly_mod, _poly_mul, make_field, prime_power


def test_make_field_prime_field():
    F3 = make_field(3, 1)
    assert F3.q == 3
    assert F3.modulus == (0, 1)  # the polynomial x


def test_make_field_f9_modulus_is_x2_plus_1():
    # -1 has no square root mod 3, so x^2 + 1 is irreducible and is the
    # first monic quadratic in the (c0, c1) ordering.
    assert all(pow(x, 2, 3) != 2 for x in range(3))
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)


def test_make_field_f25_modulus_by_exhaustive_scan():
    # independent scan: least (c0, c1) with x^2 + c1 x + c0 irreducible mod 5
    expected = None
    for code in range(25):
        c0, c1 = code % 5, code // 5
        if all((x * x + c1 * x + c0) % 5 for x in range(5)):
            expected = (c0, c1, 1)
            break
    F25 = make_field(5, 2)
    assert F25.modulus == expected


def test_make_field_rejects_composite():
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(4, 2)


def test_field_axioms_exhaustive_small():
    for p, k in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        K = make_field(p, k)
        els = list(K.elements())
        for a in els:
            assert K.add(a, 0) == a
            assert K.mul(a, 1) == a
            assert K.add(a, K.neg(a)) == 0
            if a:
                assert K.mul(a, K.inv(a)) == 1
        for a in els:
            for b in els:
                assert K.add(a, b) == K.add(b, a)
                assert K.mul(a, b) == K.mul(b, a)
                for c in els:
                    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


def test_frobenius_t_cubed_in_f9():
    # t^3 = -t when t^2 = -1
    F9 = make_field(3, 2)
    t = F9.encode((0, 1))
    assert F9.frobenius(t, 1) == F9.neg(t)


def test_frobenius_fixes_prime_field():
    F7 = make_field(7, 1)
    for a in F7.elements():
        for e in range(4):
            assert F7.frobenius(a, e) == a


def test_frobenius_is_automorphism_exhaustive():
    # additive and multiplicative, exhaustively for q <= 25
    for p, k in [(3, 2), (5, 2), (2, 2), (3, 1), (5, 1), (2, 4)]:
        K = make_field(p, k)
        if K.q > 25:
            continue
        for a in K.elements():
            for b in K.elements():
                assert K.frobenius(K.add(a, b), 1) == K.add(K.frobenius(a, 1), K.frobenius(b, 1))
                assert K.frobenius(K.mul(a, b), 1) == K.mul(K.frobenius(a, 1), K.frobenius(b, 1))


def test_frobenius_order_k_is_identity():
    for p, k in [(3, 2), (5, 2), (2, 4), (3, 4)]:
        K = make_field(p, k)
        for a in list(K.elements())[:50]:
            assert K.frobenius(a, k) == a


def test_zeta4_exists_iff_q_1_mod_4():
    for p, k in [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (7, 2)]:
        K = make_field(p, k)
        z = zeta4(K)
        if K.q % 4 == 1:
            assert z is not None and K.mul(z, z) == K.neg(1)
        else:
            assert z is None


def test_zeta4_always_exists_in_quadratic_extension():
    for q_base in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        K = make_field(*q_base)
        K2 = make_field(K.p, 2 * K.k)
        z = zeta4(K2)
        assert z is not None and K2.mul(z, z) == K2.neg(1)


def test_zeta4_fixed_by_q_power_iff_q_1_mod_4():
    # F(zeta) = zeta exactly when q = 1 mod 4
    for p in (5, 13):
        K = make_field(p, 2)
        z = zeta4(K)
        assert K.frobenius(z, 1) == z if p % 4 == 1 else True
    for p in (3, 7):
        K = make_field(p, 2)
        z = zeta4(K)
        assert K.frobenius(z, 1) == K.neg(z)


def test_subfield_and_nonsquare():
    F81 = make_field(3, 4)
    sub = subfield_elements(F81, 2)
    assert len(sub) == 9
    d = least_nonsquare_in_subfield(F81, 2)
    assert d in sub
    # not a square in F_9: d^((9-1)/2) != 1
    assert F81.pow(d, 4) != 1
    # but a square in F_81
    assert sqrt(F81, d) is not None


def test_element_serialization_roundtrip():
    F9 = make_field(3, 2)
    for a in F9.elements():
        assert F9.encode(F9.serialize_element(a)) == a


def test_make_field_takes_exactly_the_primes():
    primes = []
    for p in range(-3, 30):
        try:
            make_field(p, 1)
        except ValueError:
            continue
        primes.append(p)
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_power_against_every_power_of_a_sieved_prime():
    # every p^k <= 5000 generated from a sieve of Eratosthenes; every other
    # q in 1..5000 is refused
    top = 5000
    sieve = [True] * (top + 1)
    powers = {}
    for p in range(2, top + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
            k, pk = 1, p
            while pk <= top:
                powers[pk] = (p, k)
                k, pk = k + 1, pk * p
    for q in range(1, top + 1):
        if q in powers:
            assert prime_power(q) == powers[q], q
        else:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                prime_power(q)
    assert len(powers) == 669 + 42  # 669 primes below 5000, 42 higher powers


def test_prime_power_edge_cases():
    for q in (0, -1, -3, -4, -27, 1000003 * 2, 999983 * 1000003):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            prime_power(q)
    assert prime_power(1000003) == (1000003, 1)
    assert prime_power(3**12) == (3, 12)
    assert prime_power(2**40) == (2, 40)


def _digits(a, p, k):
    return [a // p**i % p for i in range(k)]


def _undigits(ds, p):
    return sum(c * p**i for i, c in enumerate(ds))


def test_add_neg_sub_match_digit_arithmetic():
    for p, k in [(3, 2), (5, 2), (2, 3)]:
        K = make_field(p, k)
        for a in K.elements():
            da = _digits(a, p, k)
            assert K.neg(a) == _undigits([-x % p for x in da], p), (p, k, a)
            for b in K.elements():
                db = _digits(b, p, k)
                assert K.add(a, b) == _undigits([(x + y) % p for x, y in zip(da, db)], p), (p, k, a, b)
                assert K.sub(a, b) == _undigits([(x - y) % p for x, y in zip(da, db)], p), (p, k, a, b)


def test_log_tables_match_polynomial_products():
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
        K = make_field(p, k)
        assert {K.pow(K.primitive, e) for e in range(K.q - 1)} == set(range(1, K.q)), (p, k)
        for a in K.elements():
            for b in K.elements():
                product = _poly_mod(_poly_mul(K.coeffs(a), K.coeffs(b), p), K.modulus, p)
                assert K.mul(a, b) == K.encode(product), (p, k, a, b)
            if a:
                assert K.mul(a, K.inv(a)) == 1, (p, k, a)
