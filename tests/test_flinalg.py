"""Sparse row operations and ordered line representatives against the
plain forms: every entry touched, every line listed."""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles_flags import det_by_cofactors, rref_plain

from springer import flinalg as la
from springer.ffield import make_field


@st.composite
def sparse_matrices(draw, fields):
    """A field and a matrix over it with at least half of its entries 0,
    plus one vector of its row length."""
    K = make_field(*draw(st.sampled_from(fields)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, K.q - 1), min_size=m * n, max_size=m * n))
    for i in draw(st.sets(st.integers(0, m * n - 1), min_size=(m * n + 1) // 2)):
        entries[i] = 0
    v = tuple(draw(st.lists(st.integers(0, K.q - 1), min_size=n, max_size=n)))
    return K, la.mat(entries[i * n : (i + 1) * n] for i in range(m)), v


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(((2, 1), (2, 2), (3, 2), (5, 2))))
def test_rref_and_reduce_match_plain_gauss_jordan(case):
    # reduce(v) is the unique remainder that is 0 at every pivot and
    # differs from v by an element of the span of the rows
    K, a, v = case
    red, pivots = la.rref(K, a)
    assert (red, pivots) == rref_plain(K, a)
    r = la.reduce(K, v, red, pivots)
    assert not any(r[c] for c in pivots)
    diff = tuple(K.sub(s, t) for s, t in zip(v, r))
    assert len(rref_plain(K, red + (diff,))[0]) == len(red)
    assert (not any(r)) == (len(rref_plain(K, red + (v,))[0]) == len(red))


@st.composite
def echelon_bases(draw):
    """A field and a reduced echelon basis of rank at most 4 in K^n,
    n <= 6: pivot columns, then every entry right of a pivot and off
    the other pivot columns drawn."""
    K = make_field(*draw(st.sampled_from(((2, 1), (3, 1), (2, 2), (3, 2)))))
    n = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(4, n))))
    entry = st.integers(0, K.q - 1)
    return K, la.mat([int(c == p) if c <= p or c in pivots else draw(entry) for c in range(n)] for p in pivots)


@settings(max_examples=200, deadline=None)
@given(echelon_bases())
def test_line_representatives_of_an_echelon_basis_come_sorted(case):
    # strictly increasing, one vector per line: (Q^r - 1)/(Q - 1) of
    # them, each in the span with leading entry 1, no two proportional
    K, basis = case
    Q, r = K.q, len(basis)
    lines = list(la.line_representatives(K, basis))
    assert all(s < t for s, t in zip(lines, lines[1:]))
    assert len(lines) == (Q**r - 1) // (Q - 1)
    assert all(next(c for c in v if c) == 1 for v in lines)
    assert all(len(rref_plain(K, basis + (v,))[0]) == r for v in lines)
    assert len({rref_plain(K, (v,))[0] for v in lines}) == len(lines)


def _span_by_product(K, basis, coeffs):
    """Each combination of the rows summed from scratch, the coefficient
    tuples taken from itertools.product with row 0 varying fastest."""
    n = len(basis[0]) if basis else 0
    for cs in product(*reversed(coeffs)):
        v = [0] * n
        for c, row in zip(reversed(cs), basis):
            for j, a in enumerate(row):
                v[j] = K.add(v[j], K.mul(c, a))
        yield tuple(v)


def test_span_vectors_match_the_product_of_coefficient_sets():
    # up to 4 rows over F_4 and F_5, a zero row among them, each row's
    # coefficients from all of K, one element, only 0, a set holding 0,
    # or nothing (no vector); the empty basis spans only ()
    for K in (make_field(2, 2), make_field(5, 1)):
        g = K.primitive
        rows = ((1, g, 0, 1), (0, 0, 0, 0), (g, 1, 1, 0), (0, 0, 1, g))
        sets = (K.elements(), (g,), (0,), (0, 1), (1, 0, g), ())
        assert list(la.span_vectors(K, (), [])) == [()]
        for r in range(1, len(rows) + 1):
            for coeffs in product(sets, repeat=r):
                got = list(la.span_vectors(K, rows[:r], coeffs))
                assert got == list(_span_by_product(K, rows[:r], coeffs)), (K, r, coeffs)


def test_det_matches_cofactor_expansion():
    # elimination through `pivot` against Laplace expansion, on random
    # square matrices n <= 7 (n = 0 included) over five fields; over F_2
    # and F_3 many are singular, and every fifth matrix has a repeated row
    rng = random.Random(20)
    for p, k in ((2, 1), (3, 1), (3, 2), (5, 1), (2, 3)):
        K = make_field(p, k)
        for t in range(400):
            n = t % 8
            rows = [[rng.randrange(K.q) for _ in range(n)] for _ in range(n)]
            if t % 5 == 0 and n > 1:
                rows[-1] = list(rows[0])
            a = la.mat(rows)
            assert la.det(K, a) == det_by_cofactors(K, a), (K.q, a)
