import itertools

import oracles_clifford as cl
import pytest
from oracles_clifford import block_form, orthonormalize_block
from oracles_flags import gram

from springer import flinalg as la
from springer import partitions as pt
from springer.ffield import make_field


def _space(N, p=3, k=1, twist="split"):
    return cl.standard_space(N, p, k, twist)


def test_vector_squares_to_norm():
    sp = _space(4)
    K = sp.field
    for i in range(4):
        v = cl.CliffordElement.basis_vector(sp, i)
        assert v * v == cl.CliffordElement.scalar(sp, sp.form[i][i])
    # a general anisotropic vector
    v = cl.CliffordElement.vector(sp, (1, 2, 0, 0))
    n = K.add(K.mul(1, 1), K.mul(2, 2))
    assert v * v == cl.CliffordElement.scalar(sp, n)


def test_bivector_square_orthogonal_vectors():
    # (e1 e2)^2 = -(e1,e1)(e2,e2) for orthogonal e1, e2
    sp = _space(4, p=5)
    K = sp.field
    e1 = cl.CliffordElement.basis_vector(sp, 0)
    e2 = cl.CliffordElement.basis_vector(sp, 1)
    b = e1 * e2
    want = K.neg(K.mul(sp.form[0][0], sp.form[1][1]))
    assert b * b == cl.CliffordElement.scalar(sp, want)


def test_odd_orthonormal_product_square_sign():
    # x^2 = (-1)^{h(h-1)/2} for a product of h orthonormal vectors, h odd
    for p in (3, 5):
        for h in (1, 3, 5):
            sp = _space(h, p=p)
            x = cl.product_of_vectors(sp, la.identity(sp.field, h))
            sq = x * x
            sign = (-1) ** ((h * (h - 1) // 2) % 2)
            expected = cl.CliffordElement.unit(sp) if sign == 1 else cl.CliffordElement.epsilon(sp)
            assert sq == expected


def test_associativity_exhaustive_monomials_small_N():
    sp = _space(3, p=3)
    words = []
    for r in range(4):
        words.extend(itertools.combinations(range(3), r))
    els = [cl.CliffordElement(sp, {w: 1}) for w in words]
    for a in els:
        for b in els:
            ab = a * b
            for c in els:
                assert (ab) * c == a * (b * c)


def test_associativity_random_nondiagonal_form():
    # the split orthogonal form of (1,2,2) has off-diagonal pairings
    sp, _ = cl.split_so_quadspace((1, 2, 2), 3)
    import random

    rng = random.Random(7)
    K = sp.field

    def rand_elem():
        terms = {}
        for _ in range(3):
            w = tuple(sorted(rng.sample(range(5), rng.randint(0, 3))))
            terms[w] = rng.randrange(1, K.q)
        return cl.CliffordElement(sp, terms)

    for _ in range(15):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_beta_matrix_unit_and_epsilon():
    sp = _space(4)
    assert cl.beta_matrix(cl.CliffordElement.unit(sp), sp) == la.identity(sp.field, 4)
    assert cl.beta_matrix(cl.CliffordElement.epsilon(sp), sp) == la.identity(sp.field, 4)


def test_beta_matrix_vector_is_minus_reflection():
    sp = _space(3, p=5)
    K = sp.field
    v = cl.CliffordElement.basis_vector(sp, 1)  # (v,v) = 1
    m = cl.beta_matrix(v, sp)
    # v -> -v + 2 (v, e_1) e_1
    expect = []
    for j in range(3):
        col = [K.neg(1) if i == j else 0 for i in range(3)]
        if j == 1:
            col[1] = K.add(col[1], K.scalar(2))
        expect.append(tuple(col))
    assert m == la.transpose(la.mat(expect))


def test_beta_is_homomorphism_with_kernel_eps():
    sp = _space(4, p=3)
    K = sp.field
    vs = [cl.CliffordElement.basis_vector(sp, i) for i in range(4)]
    x = vs[0] * vs[1]
    y = vs[1] * vs[2]
    assert cl.beta_matrix(x * y, sp) == la.mat_mul(K, cl.beta_matrix(x, sp), cl.beta_matrix(y, sp))
    # kernel on products: beta(eps * x) = beta(x)
    eps = cl.CliffordElement.epsilon(sp)
    assert cl.beta_matrix(eps * x, sp) == cl.beta_matrix(x, sp)


def test_center_classification():
    assert cl.center(_space(5)).group_type == "Z/2"
    assert cl.center(_space(5)).omega is None
    assert cl.center(_space(6)).group_type == "Z/4"
    assert cl.center(_space(4)).group_type == "Z/2xZ/2"


def test_center_omega_square():
    # omega^2 = eps^{N/2}: -1 for N = 6, +1 for N = 4 and 8 (checked inside center())
    for N in (4, 6, 8):
        data = cl.center(_space(N, p=5))
        assert data.omega is not None


def test_frobenius_on_center_221():
    for N in (4, 8):
        assert cl.frobenius_on_center(_space(N, twist="split")).omega_sign == 1
        assert cl.frobenius_on_center(_space(N, twist="nonsplit")).omega_sign == -1
    for N in (5, 7):
        rep = cl.frobenius_on_center(_space(N, twist="split"))
        assert rep.trivial_on_center
    rep6 = cl.frobenius_on_center(_space(6, twist="split"))
    assert rep6.trivial_on_center


def test_frobenius_on_center_multiple_fields():
    for p, k in ((3, 1), (5, 1), (3, 2)):
        assert cl.frobenius_on_center(cl.standard_space(4, p, k, "nonsplit")).omega_sign == -1
        assert cl.frobenius_on_center(cl.standard_space(4, p, k, "split")).omega_sign == 1


def test_orthonormalize_block_h1():
    K = make_field(3, 2)
    blk = orthonormalize_block(1, 1, K, 1)
    v = blk.vectors[0][0]
    form = block_form(1, 1, K)
    assert K.mul(K.mul(v, form[0][0]), v) == 1


def test_orthonormalize_block_primed_norm_h3():
    # (v'_1, v'_1) = gamma * (e_1, e_3) = gamma^2 = 1
    for c in (0, 1, 2, 3):
        K = make_field(5, 2)
        blk = orthonormalize_block(3, c, K, 1)
        form = block_form(3, c, K)
        vp1 = blk.vectors[0]  # v_1 = v'_1 by construction
        assert gram(K, form, vp1, vp1) == 1


def test_orthonormalize_block_signs_q3mod4():
    # q = 3: F(v_h) = -v_h for h = 3 (the last vector is zeta-scaled)
    K = make_field(3, 2)
    for c in (0, 1):
        blk = orthonormalize_block(3, c, K, 1)
        assert blk.frob_signs[2] == -1
        assert blk.frob_signs[0] == 1
        m = 1
        assert blk.frob_signs[m] == (1 if (m + 1 + c) % 2 == 0 else -1)


def test_orthonormalize_block_all_fixed_q1mod4():
    K = make_field(5, 2)
    for h in (1, 3, 5, 7):
        for c in (0, 1):
            blk = orthonormalize_block(h, c, K, 1)
            assert all(s == 1 for s in blk.frob_signs)


def test_orthonormalize_block_rejects_even():
    with pytest.raises(ValueError):
        orthonormalize_block(2, 0, make_field(3, 2), 1)


def test_gamma_generators_squares():
    g5 = cl.gamma_generators((5,), 3)
    assert g5.generators[0].square_exponent == 0  # 5*4/2 = 10 even
    g3 = cl.gamma_generators((3,), 3)
    assert g3.generators[0].square_exponent == 1  # 3 odd


def test_gamma_generators_sign_341():
    # q = 3 mod 4: F(x_j) = (-1)^{(la_j - 1)/2 + 1 + j} x_j
    for q in (3, 7):
        for lam in ((3,), (1, 3), (1, 2, 2), (1, 5), (3, 5)):
            if not pt.is_in_XN(lam):
                continue
            gg = cl.gamma_generators(lam, q)
            for gen in gg.generators:
                expected = (-1) ** (((gen.part - 1) // 2 + 1 + gen.position) % 2)
                assert gen.frob_sign == expected


def test_gamma_generators_all_fixed_q1mod4():
    for lam in ((3,), (1, 3), (1, 2, 2), (5,)):
        gg = cl.gamma_generators(lam, 5)
        assert all(g.frob_sign == 1 for g in gg.generators)


def test_gamma_generators_relations_hold_q9():
    # extension base field q = 9 (coefficients in F_81)
    gg = cl.gamma_generators((1, 3), 3, 2)
    assert len(gg.generators) == 2


def test_gamma_generators_reject_non_XN():
    with pytest.raises(ValueError):
        cl.gamma_generators((1, 1, 3), 3)


def test_inverse_of_vector_product():
    sp, _ = cl.split_so_quadspace((1, 2, 2), 3)
    gg = cl.gamma_generators((1, 2, 2), 3)
    x = gg.generators[0].element
    assert x * x.inverse() == cl.CliffordElement.unit(gg.space)


def test_serialization():
    sp = _space(3)
    x = cl.CliffordElement(sp, {(0, 2): 1, (): 2})
    ser = x.serialize()
    assert ser == [[0, [2, 0]], [5, [1, 0]]]
