import oracles_groups as og
import pytest

from springer import component_groups as cg
from springer import partitions as pt
from springer import tables as tb


def test_exponents_sl2_worked_values():
    e = tb.exponents_sl((2,), 1)
    assert e.total == 0 and e.even
    e = tb.exponents_sl((1, 1), 1)
    assert e.total == 2 and e.even


def test_exponents_cuspidal_boundary():
    # la = (n), d = n: L = G, C = C_0, so the sum collapses to 0
    for n in (2, 3, 4, 6):
        e = tb.exponents_sl((n,), n)
        assert e.total == 0


def test_exponents_sl_consistent_and_even_sweep():
    for n in range(1, 11):
        for la in pt.partitions_of(n):
            for d in range(1, n + 1):
                if n % d or any(x % d for x in la):
                    continue
                e = tb.exponents_sl(la, d)
                assert e.even, (la, d)


def test_exponents_spin_consistent_and_even_sweep():
    for N in range(3, 14):
        for la in pt.enumerate_XN(N):
            e = tb.exponents_spin(la)
            assert e.even, la


def test_spin_cuspidal_class():
    assert tb.spin_cuspidal_class(1) == (1,)
    assert tb.spin_cuspidal_class(-1) == (3,)
    assert tb.spin_cuspidal_class(2) == (1, 5)
    assert tb.spin_cuspidal_class(0) == ()
    # the closed form is the one member of X_{d(2d-1)} with defect d
    for d in range(-5, 6):
        members = [la for la in pt.enumerate_XN(d * (2 * d - 1)) if pt.defect(la) == d] if d else [()]
        assert members == [tb.spin_cuspidal_class(d)], d


def test_y0_sl_24_example():
    # lambda = (2,4), n = 6, d = 2, q = 5: component group of order 2 with
    # trivial tau: two classes, values (1, -1)
    row = tb.y0_row_sl((2, 4), 2, 5)
    assert row.dim == 1
    assert len(row.classes) == 2
    assert [v.as_int() for v in row.values] == [1, -1]
    assert row.exponents.even


def test_y0_sl_trivial_character_is_all_ones():
    row = tb.y0_row_sl((2, 4), 1, 3)
    assert all(v.as_int() == 1 for v in row.values)
    row = tb.y0_row_sl((1, 2, 3), 1, 3)
    assert all(v.as_int() == 1 for v in row.values)


def test_y0_sl_refusals():
    with pytest.raises(tb.EmptyFiberError):
        tb.y0_row_sl((1, 5), 2, 3)  # 2 does not divide 1
    with pytest.raises(tb.NotFStableError):
        tb.y0_row_sl((3, 3), 3, 3)  # 3 does not divide q + 1 = 4
    for d in (0, -2):
        with pytest.raises(ValueError, match="must be at least 1"):
            tb.y0_row_sl((2, 4), d, 5)


def test_y0_spin_dim2_row():
    # |I| = 3 (lambda = (1,3,5), N = 9): unique rho of dim 2; identity value
    # 2, value -2 at eps, 0 elsewhere when tau is trivial (q = 5)
    (row,) = tb.y0_row_spin((1, 3, 5), 5)
    assert row.dim == 2
    vm = dict(zip([rep for rep, _ in row.classes], row.values))
    ident = (0, 0)
    eps = (1, 0)
    assert vm[ident].as_int() == 2
    assert vm[eps].as_int() == -2
    for rep, v in vm.items():
        if rep not in (ident, eps):
            assert v.is_zero()


def test_y0_spin_omega_selection():
    # lambda = (1,3), N = 4: Gamma = Z/2 x Z/2, two candidate local systems
    assert tb.y0_row_spin((1, 3), 5) == tb.y0_row_spin((1, 3), 5, omega_value="1")
    rows = [row for v in ("1", "-1") for row in tb.y0_row_spin((1, 3), 5, omega_value=v)]
    assert rows[0].values != rows[1].values
    w = (0, 3)
    for row, expect in zip(rows, (1, -1)):
        vm = dict(zip([rep for rep, _ in row.classes], row.values))
        assert vm[w].as_int() == expect


def test_y0_spin_omega_default_is_i_exactly_at_n_2_mod_4():
    # on every class where omega selects the local system (an even,
    # nonzero number of odd parts), the default row, or refusal, is the
    # one for omega "i" when N = 2 (mod 4) and for "1" otherwise
    def row_or_refusal(lam, q, **kwargs):
        try:
            (row,) = tb.y0_row_spin(lam, q, extension="plus", **kwargs)
            return row
        except tb.NotFStableError as exc:
            return str(exc)

    rows = 0
    for q in (3, 5):
        for N in range(2, 15):
            omega = "i" if N % 4 == 2 else "1"
            for lam in pt.enumerate_XN(N):
                r = sum(x % 2 for x in lam)
                if r and r % 2 == 0:
                    got = row_or_refusal(lam, q)
                    assert got == row_or_refusal(lam, q, omega_value=omega), (lam, q)
                    rows += isinstance(got, tb.GreenBasisRow)
    assert rows == 33


def test_y0_spin_tau_moved_local_system_refused():
    # lambda = (1,5), q = 3: tau swaps the two order-4 characters
    with pytest.raises(tb.NotFStableError):
        tb.y0_row_spin((1, 5), 3, omega_value="i")


def test_row_orthogonality_sl():
    rows = []
    for d in (1, 2, 3, 6):
        rows.append(tb.y0_row_sl((6,), d, 5))
    assert og.row_orthogonality(rows)


def test_row_orthogonality_spin():
    rows = [row for v in ("1", "-1") for row in tb.y0_row_spin((1, 3), 5, omega_value=v)]
    assert og.row_orthogonality(rows)


def test_y0_table_builders():
    rows = tb.y0_table_sl(6, 2, 5)
    assert {r.la for r in rows} == {(2, 4), (2, 2, 2), (6,)}
    rows = tb.y0_table_spin(5, 5)
    assert {r.la for r in rows} == {(5,), (1, 2, 2)}
    for r in rows:
        assert r.values[0].as_int() == r.dim


def _table_or_refusal(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


SL_Q = (2, 3, 4, 5, 7, 8, 9)


def test_sl_rows_match_the_cyclic_group_model():
    # the closed-form row equals the row read off Z/m and its Frobenius,
    # or refuses with the same type and message, for every la of n <= 12
    # and every order d <= n
    rows = classes = 0
    for n in range(1, 13):
        for la in pt.partitions_of(n):
            for d in range(1, n + 1):
                for q in SL_Q:
                    new = _table_or_refusal(tb.y0_row_sl, la, d, q)
                    assert new == _table_or_refusal(og.y0_row_sl_by_group, la, d, q), (la, d, q)
                    if isinstance(new, tb.GreenBasisRow):
                        rows += 1
                        classes += new.classes[0][1] > 1  # classes of more than one element
    assert (rows, classes) == (2070, 86)


def test_sl_table_from_partitions_of_n_over_d_matches_the_filtered_walk():
    # rows (or the refusal) of the scaled partitions of n/d equal those
    # read off the cyclic group model for every partition of n filtered
    # by divisibility
    for n in range(1, 13):
        for d in range(1, n + 1):
            for q in SL_Q:
                new = _table_or_refusal(tb.y0_table_sl, n, d, q)
                assert new == _table_or_refusal(og.y0_table_sl_by_filter, n, d, q), (n, d, q)


def test_row_json_roundtrip():
    row = tb.y0_row_sl((2, 4), 2, 5)
    import json

    d = json.loads(json.dumps(row.to_dict(), sort_keys=True))
    assert d["lambda"] == [2, 4]
    assert d["dim"] == 1
    assert len(d["classes"]) == len(d["values"])


def test_two_extension_refusal_lists_plus_then_minus():
    # without an extension, a class with two gives its plus row, then its
    # minus row; naming the trivial extension for it is refused, and the
    # message lists plus then minus although extend_character orders the
    # extensions by value
    for N, q, la in ((11, 3, (1, 3, 7)), (13, 7, (1, 5, 7))):
        rows = tb.y0_table_spin(N, q)
        labels = [(r.la, r.extension_label) for r in rows]
        assert [x for x in labels if x[1] != "trivial"] == [(la, "plus"), (la, "minus")], (N, q)
        i = labels.index((la, "plus"))
        assert rows[i : i + 2] == [row for e in ("plus", "minus") for row in tb.y0_row_spin(la, q, extension=e)]
        assert tuple(rows[i : i + 2]) == tb.y0_row_spin(la, q)
        with pytest.raises(ValueError) as exc:
            tb.y0_table_spin(N, q, extension="trivial")
        assert str(exc.value) == "two extensions exist; pass extension= one of ['plus', 'minus']", (N, q)


def test_spin_table_extends_each_class_once(monkeypatch):
    # X_27 at q = 3: 75 classes give rows, 35 of them a plus and a minus
    # row, and each class runs extend_character once for both
    calls = []

    def counted(rho, A):
        calls.append(rho)
        return cg.extend_character(rho, A)

    monkeypatch.setattr(tb, "extend_character", counted)
    rows = tb.y0_table_spin(27, 3)
    assert len({r.la for r in rows}) == len(calls) == 75
    assert len(rows) == 110


def _omega_of(chi, G):
    """The --omega value of a character on the full word, when it has one."""
    if G.r % 2 or G.r == 0:
        return None
    ring = chi.ring
    names = {"1": ring.one(), "-1": -ring.one(), "i": ring.i(), "-i": -ring.i()}
    return next(name for name, unit in names.items() if chi.values[G.full_word()] == unit * chi.dim)


def test_twisted_extensions_are_orthonormal_and_opposite():
    # every tau-nontrivial row of dimension 2: the value on 1*tau is the
    # trace of the intertwiner, not dim rho, and the row check is twisted
    # orthogonality
    seen = 0
    for N in range(3, 14):
        for q in (3, 7):
            for la in pt.enumerate_XN(N):
                G = cg.build_spin_gamma(la, tau_signs=tb.spin_tau_signs(la, q))
                if og.tau_is_identity_on_group(G):
                    continue
                for chi in cg.spin_irreducibles(G):
                    if chi.dim != 2 or not cg.is_tau_stable(G, chi):
                        continue
                    omega = _omega_of(chi, G)
                    plus, minus = tb.y0_row_spin(la, q, omega_value=omega)
                    for row in (plus, minus):
                        norm = sum(v * v.conj() * size for v, (_, size) in zip(row.values, row.classes))
                        assert norm == G.order, (la, q, row.extension_label)
                    assert plus.classes == minus.classes
                    assert plus.values == tuple(-v for v in minus.values), (la, q)
                    seen += 1
    assert seen == 4  # (1,3,7) and (1,5,7), each at q = 3 and q = 7


def test_every_two_extension_row_is_twisted_orthonormal():
    # the table builder does not check twisted orthogonality itself (the
    # intertwiner checks in extend_character imply it): every plus and
    # minus row of N <= 27 at q = 3 and of N <= 21 at q = 7 satisfies
    # sum over classes of size * |value|^2 = |A|
    seen = 0
    for q, n_max in ((3, 27), (7, 21)):
        for N in range(3, n_max + 1):
            for row in tb.y0_table_spin(N, q):
                if row.extension_label == "trivial":
                    continue
                sizes = [size for _, size in row.classes]
                assert sum(v * v.conj() * size for v, size in zip(row.values, sizes)) == sum(sizes), (row.la, q)
                seen += 1
    assert seen == 244
