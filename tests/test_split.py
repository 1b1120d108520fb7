import json

import oracles_clifford as cl
import oracles_flags as ofl
import oracles_groups as og
import pytest

from springer import component_groups as cg
from springer import flinalg as la
from springer import partitions as pt
from springer import split as sp
from springer import tables as tb
from springer.cli import main
from springer.ffield import make_field, prime_power


def test_build_so_split_block_3():
    data = sp.build_so_split((3,), 3)
    K = data.field
    # form antidiagonal with signs (-1)^{delta_1 - a}, delta_1 = 2
    for a in range(1, 4):
        want = K.scalar((-1) ** ((2 - a) % 2))
        assert data.form[3 - a][a - 1] == want
    # x is the shift
    assert data.nilpotent[0][1] == 1 and data.nilpotent[1][2] == 1


def test_build_so_split_even_pair_22():
    data = sp.build_so_split((2, 2), 3)
    K = data.field
    # (3.1.3) signs (-1)^{a-1} pairing the two chains
    assert data.form[1][2] == K.scalar(1)  # a = 1: e^1_2 with e^2_1
    assert data.form[0][3] == K.scalar(-1)  # a = 2
    assert pt.is_in_XN_tilde((2, 2))


def test_build_so_split_trivial():
    data = sp.build_so_split((1,), 3)
    assert data.nilpotent == ((0,),)


def test_build_so_split_rejects():
    with pytest.raises(ValueError):
        sp.build_so_split((2,), 3)
    with pytest.raises(ValueError):
        sp.build_so_split((1, 2), 5)


def test_so_jordan_roundtrip():
    for q in (3, 5, 9):
        for N in range(1, 11):
            for lam in pt.enumerate_XN(N, tilde=True):
                data = sp.build_so_split(lam, q)
                assert la.jordan_partition(data.field, data.nilpotent) == lam


def test_build_sl_split_examples():
    d1 = sp.build_sl_split((1,), 3)
    assert d1.unipotent == ((1,),)
    d2 = sp.build_sl_split((2,), 3)
    K = d2.field
    # check u^T A conj(u) = A explicitly (2x2 identity over F_9)
    u, A = d2.unipotent, d2.form
    assert la.mat_mul(K, la.mat_mul(K, la.transpose(u), A), d2.conj_mat(u)) == A
    d3 = sp.build_sl_split((1, 2), 3)
    assert len(d3.form) == 3


def test_sl_split_antidiagonal_signs():
    # odd block: (v_j, v_{h+1-j}) alternates as (-1)^{j+1}
    d = sp.build_sl_split((3,), 3)
    K = d.field
    assert d.form[0][2] == K.scalar(1)
    assert d.form[1][1] == K.scalar(-1)
    assert d.form[2][0] == K.scalar(1)


def test_sl_split_even_block_trace_zero_scalar():
    d = sp.build_sl_split((2,), 3)
    K = d.field
    v = d.form[0][1]
    assert v != 0 and K.frobenius(v, d.qexp) == K.neg(v)


def test_sl_jordan_roundtrip_and_form_invariance():
    for q in (3, 4, 5, 9):
        for n in range(1, 11):
            for lam in pt.partitions_of(n):
                data = sp.build_sl_split(lam, q)
                K = data.field
                x = la.mat(
                    [K.sub(u, int(i == j)) for j, u in enumerate(row)] for i, row in enumerate(data.unipotent)
                )
                assert la.jordan_partition(K, x) == lam
                assert data.nilpotent == x
                # u^T A conj(u) = A, and F(u) = u for the twisted Frobenius
                # F(g) = conj(A)^{-1} (conj(g)^T)^{-1} conj(A) built from A
                A, u = data.form, data.unipotent
                assert la.mat_mul(K, la.mat_mul(K, la.transpose(u), A), data.conj_mat(u)) == A, (lam, K.q)
                Abar = data.conj_mat(A)
                ubar_t_inv = ofl.inverse(K, la.transpose(data.conj_mat(u)))
                assert la.mat_mul(K, la.mat_mul(K, ofl.inverse(K, Abar), ubar_t_inv), Abar) == u, (lam, K.q)


def test_one_jordan_layout_for_both_builders():
    # the SO nilpotent and the SL unipotent minus 1 are the one shift
    for N in range(1, 13):
        for lam in pt.enumerate_XN(N, tilde=True):
            x = sp.jordan_shift(lam)
            assert sp.build_so_split(lam, 3).nilpotent == sp.build_sl_split(lam, 3).nilpotent == x, lam
    for n in range(9):
        for lam in pt.partitions_of(n):
            assert sp.jordan_shift(lam) == ofl.nilpotent_of_type(lam), lam
            chains = sp.jordan_chains(lam)
            starts = [sum(lam[:j]) for j in range(len(lam))]
            assert chains == [range(s, s + h) for s, h in zip(starts, lam)], lam
            assert [i for c in chains for i in c] == list(range(n)), lam


def test_jordan_type_edge_cases():
    K = make_field(3, 1)
    zero = la.mat([[0] * 4] * 4)
    assert la.jordan_partition(K, zero) == (1, 1, 1, 1)
    shift = la.mat([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
    assert la.jordan_partition(K, shift) == (4,)
    with pytest.raises(ValueError):
        la.jordan_partition(K, la.identity(K, 3))
    # ranks 2, 1, 1, 1: the shift block dies, the unit block never does
    with pytest.raises(ValueError, match="not nilpotent"):
        la.jordan_partition(K, la.mat([[0, 1, 0], [0, 0, 0], [0, 0, 1]]))
    assert la.jordan_partition(K, ()) == ()


def test_spin_frobenius_report_signs():
    # q = 1 mod 4: trivial action
    signs = cl.spin_frobenius_signs(sp.build_so_split((1, 2, 2), 5))
    assert all(s == 1 for s in signs)
    # q = 3 mod 4, lambda = (1,2,2): single odd part, sign +1 per the formula
    signs = cl.spin_frobenius_signs(sp.build_so_split((1, 2, 2), 3))
    assert signs == (1,)
    assert og.tau_order(cg.build_spin_gamma((1, 2, 2), signs)) <= 2


def test_spin_frobenius_report_matches_formula():
    # the closed form against the orthonormal-basis oracle, at prime and
    # prime-power q on both sides of q mod 4
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)):
        q = p**k
        for N in range(1, 14):
            for lam in pt.enumerate_XN(N):
                signs = cl.spin_frobenius_signs(sp.build_so_split(lam, q))
                assert tb.spin_tau_signs(lam, q) == signs, (q, lam)
                if q % 4 == 1:
                    assert all(s == 1 for s in signs), (q, lam)
                else:
                    expect = tuple(
                        (-1) ** (((lam[j - 1] - 1) // 2 + 1 + j) % 2) for j in pt.odd_part_positions(lam)
                    )
                    assert signs == expect, (q, lam)
                # tau squares to the identity on the component group
                assert og.tau_order(cg.build_spin_gamma(lam, signs)) <= 2, (q, lam)


def test_split_form_odd_blocks_match_the_oracle_block_form():
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2)):
        K = make_field(p, k)
        for N in range(1, 14):
            for lam in pt.enumerate_XN(N, tilde=True):
                form = sp.split_so_form(lam, K)
                for b in cl.so_blocks(lam):
                    if b.kind == "odd":
                        s, h = b.start, b.size
                        block = la.mat(row[s : s + h] for row in form[s : s + h])
                        assert block == cl.block_form(h, b.delta, K), (K.q, lam, b)


def test_split_so_form_matches_the_block_layout():
    # the form filled over jordan_chains against the one assembled block
    # by block over so_blocks: every lambda in X~_N, N <= 14, at five q
    cases = 0
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        K = make_field(p, k)
        for N in range(1, 15):
            for lam in pt.enumerate_XN(N, tilde=True):
                assert sp.split_so_form(lam, K) == cl.split_so_form_by_blocks(lam, K), (K.q, lam)
                cases += 1
    assert cases == 945


def test_spin_tau_signs_refuses_partitions_outside_XN(capsys):
    # the closed form refuses exactly as `split --group so` does
    refused = [lam for N in range(1, 9) for lam in pt.enumerate_XN(N, tilde=True) if not pt.is_in_XN(lam)]
    assert (1, 1) in refused and (3, 3) in refused
    for lam in refused:
        for q in (3, 5):
            with pytest.raises(ValueError) as exc:
                tb.spin_tau_signs(lam, q)
            assert str(exc.value) == f"{lam} is not in X_N"
            assert main(["split", "--group", "so", "--lambda", ",".join(map(str, lam)), "--q", str(q)]) == 1
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert json.loads(err) == {"error": "ValueError", "message": str(exc.value)}


def test_sl_frobenius_report():
    # tau is a -> a^{-q} on the cyclic component group
    group = og.build_sl_component((2, 4), 5)
    assert group.m == 2
    assert og.tau_order(group) == 1  # inversion trivial on order 2
    group = og.build_sl_component((5,), 3)
    assert group.m == 5 and group.tau_mult == 2
    assert og.tau_order(group) == 4  # tau^2 is not the identity here


def test_sl_split_determinism():
    a = sp.build_sl_split((1, 2, 3), 3)
    b = sp.build_sl_split((1, 2, 3), 3)
    assert a.form == b.form and a.unipotent == b.unipotent


def test_subfield_coordinates_match_the_scan_of_F_q2():
    # beta is the least element outside F_q, and (c0, c1) with
    # c = c0 + c1 beta is the entry of the table built from every pair
    # of F_q elements
    for p, qexp in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)):
        K2 = make_field(p, 2 * qexp)
        sub = ofl.subfield_elements(K2, qexp)
        beta, coords = ofl.subfield_coords(K2, qexp)
        assert beta == next(a for a in K2.elements() if a not in sub)
        table = {K2.add(c0, K2.mul(c1, beta)): (c0, c1) for c0 in sub for c1 in sub}
        assert {c: coords(c) for c in K2.elements()} == table, (p, qexp)


def test_hermitian_blocks_match_the_linear_solve():
    # the walk over the antidiagonals against the solve of the 2h^2
    # linear conditions over F_q with free variables 0, block by block
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 37):
        p, k = prime_power(q)
        K2 = make_field(p, 2 * k)
        for h in range(1, 15):
            assert sp._hermitian_block(K2, k, h) == ofl.hermitian_block_by_solve(K2, k, h), (q, h)
