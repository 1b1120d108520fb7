import cmath
from fractions import Fraction
from itertools import product
from math import gcd

import oracles_clifford as cl
import oracles_groups as og
import pytest

from springer import component_groups as cg
from springer import partitions as pt
from springer import tables as tb
from springer.cyclotomic import CycRing


def _untwisted(lam):
    """The spin component-group model of lam with tau the identity."""
    return cg.build_spin_gamma(lam, (1,) * len(pt.odd_part_positions(lam)))


def test_spin_gamma_orders_examples():
    g = _untwisted((5,))
    assert g.order == 2 and set(g.elements) == {(0, 0), (1, 0)}
    g = _untwisted((1, 3))
    assert g.order == 4
    g = _untwisted((1, 3, 5))
    assert g.order == 8 and not og.is_abelian(g)


def test_spin_gamma_generators_generate_the_group():
    # epsilon and the r - 1 products x_i x_(i+1) close up to all of A,
    # which the group-law and intertwiner checks rely on
    for lam in ((5,), (1, 3), (1, 3, 5), (2, 2), (1, 2, 2), (1, 3, 5, 7), (1, 3, 5, 7, 9, 11)):
        g = _untwisted(lam)
        gens = g.generators()
        assert len(gens) == max(g.r, 1), lam
        group, frontier = {g.identity()}, [g.identity()]
        while frontier:
            a = frontier.pop()
            for s in gens:
                if (b := g.mul(a, s)) not in group:
                    group.add(b)
                    frontier.append(b)
        assert group == set(g.elements), lam


def test_spin_gamma_group_axioms():
    for lam in ((5,), (1, 3), (1, 3, 5), (2, 2), (1, 2, 2)):
        g = _untwisted(lam)
        e = g.identity()
        for a in g.elements:
            assert g.mul(a, e) == a and g.mul(e, a) == a
            assert g.mul(a, g.inv(a)) == e
            for b in g.elements:
                ab = g.mul(a, b)
                assert ab in set(g.elements)
                for c in g.elements:
                    assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_spin_gamma_matches_clifford_construction():
    """The abstract sign rule reproduces exact in-algebra multiplication."""
    for lam, q in (((1, 3), 3), ((1, 3, 5), 5), ((3, 5), 3), ((1, 2, 2), 3)):
        gens = cl.gamma_generators(lam, q)
        G = _untwisted(lam)
        sp = gens.space
        eps = cl.CliffordElement.epsilon(sp)
        xs = [g.element for g in gens.generators]

        def realize(el):
            a, mask = el
            out = cl.CliffordElement.unit(sp)
            for i in range(G.r):
                if mask >> i & 1:
                    out = out * xs[i]
            if a:
                out = eps * out
            return out

        for g1 in G.elements:
            for g2 in G.elements:
                assert realize(G.mul(g1, g2)) == realize(g1) * realize(g2)


def test_spin_gamma_quotient_elementary_abelian():
    for lam in ((1, 3), (1, 3, 5), (3, 5)):
        g = _untwisted(lam)
        eps = g.epsilon()
        # squares and commutators land in {1, eps}
        assert og.commutator_subgroup(g) <= {g.identity(), eps}
        for a in g.elements:
            assert g.mul(a, a) in {g.identity(), eps}
        # order of the quotient
        assert g.order // 2 == 2 ** (g.r - 1)


def test_spin_tau_is_automorphism_and_involution():
    g = cg.build_spin_gamma((1, 5), tau_signs=(1, -1))
    for a in g.elements:
        assert g.tau(g.tau(a)) == a
        for b in g.elements:
            assert g.tau(g.mul(a, b)) == g.mul(g.tau(a), g.tau(b))
    assert og.tau_order(g) == 2


def test_prop_2_5_dimension_table():
    """One character of dim 2^((|I|-1)/2) for odd |I|, two of dim
    2^((|I|-2)/2) for even |I| > 0, verified against the full table."""
    cases = {
        1: (5,),
        2: (1, 5),
        3: (1, 3, 5),
        4: (1, 3, 5, 7),
        5: (1, 3, 5, 7, 9),
        6: (1, 3, 5, 7, 9, 11),
        0: (2, 2),
    }
    for r, lam in sorted(cases.items()):
        g = _untwisted(lam)
        assert g.r == r
        neg = cg.spin_irreducibles(g)
        if r == 0:
            assert len(neg) == 1 and neg[0].dim == 1
        elif r % 2 == 1:
            assert len(neg) == 1 and neg[0].dim == 2 ** ((r - 1) // 2)
        else:
            assert len(neg) == 2 and all(c.dim == 2 ** ((r - 2) // 2) for c in neg)
        # the matrix models report the size of their own matrices
        for rep in cg._spin_negative_representations(g, CycRing(4)):
            assert rep.dim == len(og.dense(rep, g.identity(), CycRing(4)))


# r = 1..6 generators, each with the last part 1 and 3 mod 4 (both
# parities of exponents[last])
MONOMIAL_TYPES = (
    (5,),
    (3,),
    (1, 5),
    (1, 3),
    (1, 3, 5),
    (1, 3, 7),
    (1, 3, 5, 9),
    (1, 3, 5, 7),
    (1, 3, 5, 7, 9),
    (1, 3, 5, 7, 11),
    (1, 3, 5, 7, 9, 13),
    (1, 3, 5, 7, 9, 11),
)


def test_monomial_words_match_dense_products():
    R = CycRing(4)
    seen = set()
    for lam in MONOMIAL_TYPES:
        g = _untwisted(lam)
        seen.add((g.r, g.exponents[-1]))
        for k, rep in enumerate(cg._spin_negative_representations(g, R)):
            for a, mask in g.elements:
                dense = cg.cmat_identity(R, rep.dim)
                for i in reversed(range(g.r)):
                    if mask >> i & 1:
                        dense = cg.cmat_mul(rep.gen_mats[i], dense)
                if a:
                    dense = cg.cmat_scale(R.from_int(-1), dense)
                assert og.dense(rep, (a, mask), R) == dense, (lam, k, a, mask)
                assert rep.trace((a, mask)) == og.cmat_trace(dense), (lam, k, a, mask)
    assert seen == {(r, e) for r in range(1, 7) for e in (0, 1)}


def test_monomial_conversion_rejects_non_monomial_matrices():
    R = CycRing(4)
    z, o, i = R.zero(), R.one(), R.i()
    assert cg.monomial(((z, -i), (o, z)), R) == ((1, 0), (3, 0))
    with pytest.raises(AssertionError):
        cg.monomial(((o, i), (o, z)), R)  # two nonzero entries in a row
    with pytest.raises(AssertionError):
        cg.monomial(((z, o), (z, z)), R)  # a zero row
    with pytest.raises(AssertionError):
        cg.monomial(((z, o), (R.from_int(2), z)), R)  # 2 is not in mu_4
    with pytest.raises(AssertionError):
        cg.monomial(((o + i, z), (z, o)), R)  # nor is 1 + i


def test_full_character_table_is_complete_and_orthonormal():
    for lam in ((5,), (1, 5), (1, 3, 5), (1, 3, 5, 7), (2, 2), (1, 3, 5, 7, 9), (1, 3, 5, 7, 9, 11)):
        g = _untwisted(lam)
        rep = og.spin_character_table_report(g)
        assert rep.orthonormal
        assert rep.sum_dim_sq == rep.order
        assert len(rep.dims) == rep.num_classes


def test_identity_value_is_dim_and_eps_value():
    g = _untwisted((1, 3, 5))
    chi = cg.spin_irreducibles(g)[0]
    assert chi.values[g.identity()].as_int() == chi.dim
    assert chi.values[g.epsilon()].as_int() == -chi.dim


def test_sl_component_orders():
    # (n), p not dividing n -> order n
    g = cg.build_sl_component((5,), 3)
    assert g.m == 5
    # (2,4), n = 6, p = 5 -> gcd(2,4,6) = 2
    g = cg.build_sl_component((2, 4), 5)
    assert g.m == 2
    # any partition with a part 1 -> trivial
    g = cg.build_sl_component((1, 4), 3)
    assert g.m == 1


def test_sl_component_order_equals_gcd_of_parts_and_nprime():
    from math import gcd

    for p in (2, 3, 5, 7):
        for n in range(1, 11):
            for lam in pt.partitions_of(n):
                g = cg.build_sl_component(lam, p)
                acc = cg.p_prime_part(n, p)
                for part in lam:
                    acc = gcd(acc, part)
                # gcd of the p'-parts equals the p'-part of the plain gcd
                assert g.m == cg.p_prime_part(acc, p) or g.m == acc
                assert g.m == cg.sl_component_order(lam, n, p)


def test_421_count_matches_exhaustive_character_search():
    """|A_G(u)^_xi| is 1 exactly when d divides every part."""
    for p in (2, 3, 5, 7):
        for n in range(1, 11):
            nprime = cg.p_prime_part(n, p)
            for lam in pt.partitions_of(n):
                G = cg.build_sl_component(lam, p)
                for d in range(1, nprime + 1):
                    if nprime % d != 0:
                        continue
                    found = cg.cyclic_characters_with_xi(G, d)
                    divides_all = all(x % d == 0 for x in lam)
                    assert len(found) == (1 if divides_all else 0), (p, n, lam, d)


def test_cyclic_tau_inverse_q_power():
    g = cg.build_sl_component((5,), 3)
    # tau: a -> -3 a = 2 a mod 5; tau has order 4 on Z/5
    assert g.tau_mult == 2
    assert og.tau_order(g) == 4
    g2 = cg.build_sl_component((2, 4), 5)
    assert g2.m == 2 and og.tau_order(g2) == 1  # inversion trivial on order 2


def test_twisted_classes_trivial_tau():
    g = cg.build_sl_component((2, 4), 5)
    table = cg.twisted_classes(g)
    assert len(table) == 2
    assert sum(og.class_sizes(table)) == g.order
    ga = _untwisted((1, 3))
    table = cg.twisted_classes(ga)
    assert len(table) == 4  # abelian, trivial tau: singletons


def test_twisted_classes_nontrivial_tau():
    # cyclic of order 5 with tau = mult by 2: classes = Z/5 / im(tau - 1),
    # im(tau - 1) = Z/5, so a single class
    g = cg.CyclicGroup(5, tau_mult=2, n_prime=5)
    t = cg.twisted_classes(g)
    assert len(t) == 1 and og.class_sizes(t) == (5,)
    # spin gamma with a sign flip
    ga = cg.build_spin_gamma((1, 5), tau_signs=(1, -1))
    t = cg.twisted_classes(ga)
    assert sum(og.class_sizes(t)) == ga.order


def test_extend_character_trivial_cases():
    g = cg.build_sl_component((2, 4), 5)
    chi = og.cyclic_characters(g)[1]
    exts = cg.extend_character(chi, g)
    assert len(exts) == 1 and exts[0].label == "trivial"
    assert all(exts[0].coset_values[a] == chi.values[a] for a in g.elements)


def test_extend_character_rejects_unstable():
    g = cg.CyclicGroup(5, tau_mult=2, n_prime=5)
    chi = og.cyclic_characters(g)[1]  # chi(a) = zeta5^a, not tau-stable
    with pytest.raises(ValueError):
        cg.extend_character(chi, g)


def test_extend_character_spin_nontrivial_tau():
    # lambda = (1,5,7): signs for q = 3 mod 4 flip x_2 and x_3
    lam = (1, 5, 7)
    signs = tuple((-1) ** (((h - 1) // 2 + 1 + j) % 2) for j, h in enumerate(lam, start=1))
    assert signs == (1, -1, -1)
    g = cg.build_spin_gamma(lam, tau_signs=signs)
    assert not og.tau_is_identity_on_group(g)
    chi = cg.spin_irreducibles(g)[0]
    assert cg.is_tau_stable(g, chi)
    exts = cg.extend_character(chi, g)
    assert len(exts) == 2
    vm0, vm1 = exts[0].coset_values, exts[1].coset_values
    for a in g.elements:
        assert vm0[a] == -vm1[a]
    # extension property: value at (g tau)(h tau) ... check T-conjugation via
    # chi-twisted invariance: value(b a tau(b)^{-1}) = value(a)
    for a in g.elements:
        for b in g.elements:
            moved = g.mul(g.mul(b, a), g.inv(g.tau(b)))
            assert vm0[moved] == vm0[a]


def test_elem_abelian_group():
    g = og.ElemAbelian2(3)
    chars = og.elem_abelian_characters(g)
    assert len(chars) == 8
    for c in chars:
        assert c.values[0].as_int() == 1
    assert og.tau_order(g) == 1


def test_char_orthogonality_cyclic():
    g = cg.CyclicGroup(6, tau_mult=1, n_prime=6)
    chars = og.cyclic_characters(g)
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            got = cg.char_inner(g, ci.values, cj.values)
            assert got == Fraction(1 if i == j else 0)


def test_dispatch():
    # each group kind has its own character routine
    assert len(cg.spin_irreducibles(_untwisted((1, 3)))) == 2
    assert len(cg.cyclic_characters_with_xi(cg.build_sl_component((2, 4), 5), 2)) == 1
    assert len(og.elem_abelian_characters(og.ElemAbelian2(2))) == 4


def test_extensions_are_the_semidirect_characters_over_rho():
    # the irreducibles of A x| <tau> over a tau-stable rho restrict on the
    # coset A tau to the two extensions of rho, one each
    for lam in ((1, 3, 7), (1, 5, 7)):
        for q in (3, 7):
            g = cg.build_spin_gamma(lam, tau_signs=tb.spin_tau_signs(lam, q))
            assert not og.tau_is_identity_on_group(g)
            (chi,) = cg.spin_irreducibles(g)
            assert chi.dim == 2 and cg.is_tau_stable(g, chi)
            over = og.coset_restrictions_over(g, chi)
            assert len(over) == 2, (lam, q)
            exts = cg.extend_character(chi, g)
            assert len(exts) == 2
            for ext in exts:
                matches = [
                    psi
                    for psi in over
                    if all(cmath.isclose(og.to_complex(v), psi[a], abs_tol=1e-9) for a, v in ext.coset_values.items())
                ]
                assert len(matches) == 1, (lam, q, ext.label)


def test_character_table_oracle_on_a_known_group():
    # Z/4 x| <inversion> is the dihedral group of order 8: five classes,
    # degrees 1, 1, 1, 1, 2
    table = og.character_table(og.TauExtended(cg.CyclicGroup(4, tau_mult=-1, n_prime=4)))
    identity = (0, 0)
    assert sorted(round(chi[identity].real) for chi in table) == [1, 1, 1, 1, 2]


def _spin_groups(q: int, n_max: int = 28):
    for N in range(3, n_max + 1):
        for lam in pt.enumerate_XN(N):
            yield lam, cg.build_spin_gamma(lam, tau_signs=tb.spin_tau_signs(lam, q))


def test_closed_form_twisted_classes_match_the_all_b_closure():
    groups = [g for q in (3, 5) for _, g in _spin_groups(q)]
    groups += [cg.CyclicGroup(m, tau_mult=t, n_prime=m) for m in range(1, 40) for t in range(m) if gcd(t, m) == 1]
    groups.append(cg.CyclicGroup(1, tau_mult=1, n_prime=1))
    for g in groups:
        assert cg.twisted_classes(g) == og.twisted_classes_by_all_b(g)


def test_popcount_sign_rule_matches_the_bitwise_loops():
    # every pair of even masks of every X_N group with r <= 6, N <= 28
    groups = 0
    for q in (3, 5):
        for _, g in _spin_groups(q):
            if g.r > 6:
                continue
            masks = [s for e, s in g.elements if e == 0]
            for s in masks:
                for e in (0, 1):
                    assert g.tau((e, s)) == og.tau_by_loops(g, (e, s)), (g.la_parts, q, s)
                for t in masks:
                    assert g._merge_sign(s, t) == og.merge_sign_by_loops(g, s, t), (g.la_parts, s, t)
            groups += 1
    assert groups > 1000


def test_word_intertwiner_matches_the_matrix_unit_search():
    # every tau-nontrivial class with N <= 28 at q = 3: same labels, the
    # same values in the same order and the same ring
    pairs = 0
    for lam, g in _spin_groups(3):
        if og.tau_is_identity_on_group(g):
            continue
        for chi in cg.spin_irreducibles(g):
            if chi.dim == 1 or not cg.is_tau_stable(g, chi):
                continue
            new, old = cg.extend_character(chi, g), og.extend_by_search(chi, g)
            assert [e.label for e in new] == [e.label for e in old], lam
            for a, b in zip(new, old):
                assert list(a.coset_values.items()) == list(b.coset_values.items()), (lam, a.label)
                assert {v.ring for v in a.coset_values.values()} == {v.ring for v in b.coset_values.values()}
            pairs += 1
    assert pairs == 119


def _same_irreducibles(a, b, G) -> bool:
    """Equal labels, dimensions, rings and values, and models with the
    same word at every element of G."""
    return [(c.label, c.dim, c.ring, list(c.values.items())) for c in a] == [
        (c.label, c.dim, c.ring, list(c.values.items())) for c in b
    ] and all(x.rep.word(g) == y.rep.word(g) for x, y in zip(a, b) for g in G.elements)


def test_memoised_spin_irreducibles_match_a_fresh_build():
    # every epsilon-signature with r <= 6 (odd parts 4k + 1 + 2e), under
    # the tau-signs of q = 5 (all +1) and q = 7: one model set serves both
    # groups, and it equals the checked construction run for each, and so
    # do its extensions to the coset
    for r in range(7):
        for exps in product((0, 1), repeat=r):
            lam = tuple(4 * k + 1 + 2 * e for k, e in enumerate(exps))
            groups = [cg.build_spin_gamma(lam, tau_signs=tb.spin_tau_signs(lam, q)) for q in (5, 7)]
            assert all(g.exponents == exps for g in groups)
            shared = cg.spin_irreducibles(groups[0])
            for g in groups:
                memo, fresh = cg.spin_irreducibles(g), og.spin_irreducibles_uncached(g)
                assert all(x.rep is y.rep for x, y in zip(memo, shared)), (exps, g.la_parts)
                assert _same_irreducibles(memo, fresh, g), (exps, g.la_parts, g.tau_signs)
                for x, y in zip(memo, fresh):
                    if cg.is_tau_stable(g, x):
                        ext_memo, ext_fresh = cg.extend_character(x, g), cg.extend_character(y, g)
                        assert [(e.label, list(e.coset_values.items())) for e in ext_memo] == [
                            (e.label, list(e.coset_values.items())) for e in ext_fresh
                        ], (exps, g.la_parts, g.tau_signs)
