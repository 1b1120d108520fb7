"""Dense linear algebra over a FieldSpec.

Matrices are tuples of tuples of encoded field elements (row major),
vectors are tuples.  Everything returns new immutable values; reduced
row echelon form with leading ones is the canonical representative used
to compare subspaces.  Row operations touch the nonzero entries of the
row they add only, so a sparse row costs its support, not its length.

One reduction, `reduce`, takes a vector's components along echelon rows
away; span membership, basis extension and the quotient action all go
through it.  One pivot step, `pivot`, serves `rref`, `det` and the
extension of an echelon basis by a vector reduced against it.  One rank
routine, `subquotient_type`, gives the Jordan type of a nilpotent map on
any subquotient of stable spans from the ranks of its powers there: on
V itself (`jordan_partition`), on W'/W for the SL flags and on E-perp/E
for the SO flags; no matrix of the map on a subspace is built.  (The
type on V/W of the split shift is read off its power images by
`varieties.quotient_type`.)  The line representatives of a reduced
echelon basis come in lexicographic order.  There is no linear solve:
`split` writes its Hermitian form level by level, and the solves the
test oracles run live in tests/oracles_flags.py.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Sequence

from .ffield import FieldSpec

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def mat(rows: Iterable[Iterable[int]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def identity(K: FieldSpec, n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_add(K: FieldSpec, a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(K.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(K: FieldSpec, a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    out = []
    for ra in a:
        row = []
        for cb in bt:
            s = 0
            for x, y in zip(ra, cb):
                if x and y:
                    s = K.add(s, K.mul(x, y))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(K: FieldSpec, a: Matrix, v: Vector) -> Vector:
    out = []
    for ra in a:
        s = 0
        for x, y in zip(ra, v):
            if x and y:
                s = K.add(s, K.mul(x, y))
        out.append(s)
    return tuple(out)


def pivot(K: FieldSpec, rows: list[list[int]], r: int, c: int) -> None:
    """The pivot step of elimination, in place: scale rows[r] to 1 at
    column c, then clear column c from the other rows by subtracting
    multiples of it, on its nonzero entries only."""
    if (inv := K.inv(rows[r][c])) != 1:
        rows[r] = [K.mul(inv, x) if x else 0 for x in rows[r]]
    support = [(j, y) for j, y in enumerate(rows[r]) if y]
    for i, row in enumerate(rows):
        if i != r and (f := row[c]):
            for j, y in support:
                row[j] = K.sub(row[j], K.mul(f, y))


def rref(K: FieldSpec, a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot(K, rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def echelon_basis(K: FieldSpec, vectors: Iterable[Vector]) -> Matrix:
    """Canonical basis of the span: RREF rows.  Equal spans give equal values."""
    vs = [v for v in vectors if any(v)]
    if not vs:
        return ()
    return rref(K, mat(vs))[0]


def reduce(K: FieldSpec, v: Vector, rows: Sequence[Vector], pivots: Sequence[int]) -> Vector:
    """v minus its components along the rows, taken in order.  Each row
    must be 1 at its pivot and 0 at the pivots of the rows before it
    (RREF rows are); the remainder is 0 at every pivot, and it is zero
    exactly when v lies in the span of the rows."""
    v = list(v)
    for row, c in zip(rows, pivots):
        if f := v[c]:
            for j, b in enumerate(row):
                if b:
                    v[j] = K.sub(v[j], K.mul(f, b))
    return tuple(v)


def span_vectors(K: FieldSpec, basis: Matrix, coeffs: Sequence[Sequence[int]]) -> Iterator[Vector]:
    """Every combination of the rows, row i taking its coefficient from
    coeffs[i], the coefficient of row 0 varying fastest.  An empty basis
    spans only the empty vector.  The partial sums sum_{j >= i} c_j row_j
    of the slower rows sit on an odometer, and the fastest digit runs as
    an inner loop adding each multiple of row 0 to partial[1]; so a
    vector costs one row addition (plus one per carried digit), and none
    is stored.  A row multiple is kept on the row's support only, so
    adding it touches the row's nonzero entries, and a zero multiple is
    no addition."""
    if not basis:
        yield ()
        return
    multiples = [
        [[(t, a if c == 1 else K.mul(c, a)) for t, a in enumerate(row) if a] if c else [] for c in cs]
        for row, cs in zip(basis, coeffs)
    ]
    if not all(multiples):
        return

    def plus(u: Vector, multiple: list[tuple[int, int]]) -> Vector:
        if not multiple:
            return u
        v = list(u)
        for t, b in multiple:
            v[t] = K.add(a, b) if (a := v[t]) else b
        return tuple(v)

    digits = [0] * len(basis)
    partial = [(0,) * len(basis[0])] * (len(basis) + 1)  # partial[i] = sum_{j >= i} c_j row_j
    i = len(basis) - 1
    while True:
        for j in range(i, 0, -1):
            partial[j] = plus(partial[j + 1], multiples[j][digits[j]])
        base = partial[1]
        for multiple in multiples[0]:  # plus(base, multiple), inlined: the innermost loop
            if multiple:
                v = list(base)
                for t, b in multiple:
                    v[t] = K.add(a, b) if (a := v[t]) else b
                yield tuple(v)
            else:
                yield base
        i = 1
        while i < len(digits) and digits[i] == len(multiples[i]) - 1:
            digits[i] = 0
            i += 1
        if i == len(digits):
            return
        digits[i] += 1


def line_representatives(K: FieldSpec, basis: Matrix) -> Iterator[Vector]:
    """One vector per line of the span: its leading coefficient is 1.  The
    leads run from the last row to the first, and under each lead the
    rows after it vary with the last row fastest.  For a reduced echelon
    basis a vector's entry at the pivot of row j is its coefficient of
    row j, so that is increasing lexicographic order.  The lead row is
    the odometer's slowest digit, so it is summed once per lead."""
    for lead in range(len(basis) - 1, -1, -1):
        tail = basis[:lead:-1]
        yield from span_vectors(K, tail + (basis[lead],), [K.elements()] * len(tail) + [(1,)])


def extend_basis(K: FieldSpec, small: Matrix, big: Matrix) -> Matrix:
    """Rows of big, chosen greedily in order, extending small to a basis
    of span(small + big).  Each candidate is reduced against the echelon
    rows of small and the remainders of the rows already chosen; a
    nonzero remainder, scaled to 1 at its first entry, joins them."""
    red, pivots = rref(K, small)
    rows, pivots = list(red), list(pivots)
    out = []
    for v in big:
        r = reduce(K, v, rows, pivots)
        c = next((i for i, a in enumerate(r) if a), None)
        if c is not None:
            inv = K.inv(r[c])
            rows.append(tuple(K.mul(inv, a) for a in r))
            pivots.append(c)
            out.append(v)
    return mat(out)


def nullspace(K: FieldSpec, a: Matrix) -> Matrix:
    """Canonical basis of {v : a v = 0} (column null space)."""
    if not a:
        return ()
    ncols = len(a[0])
    red, pivots = rref(K, a)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(red[r][fc])
        basis.append(tuple(v))
    return echelon_basis(K, basis)


def det(K: FieldSpec, a: Matrix) -> int:
    """Determinant by elimination: a row swap negates it, and each pivot
    step multiplies it by the pivot entry before `pivot` scales that row
    to 1 and clears its column from the rows still to be pivoted; the
    pivot row is then set aside."""
    rows = [list(r) for r in a]
    d = 1
    for c in range(len(a)):
        pr = next((i for i, row in enumerate(rows) if row[c]), None)
        if pr is None:
            return 0
        if pr:
            rows[0], rows[pr] = rows[pr], rows[0]
            d = K.neg(d)
        d = K.mul(d, rows[0][c])
        pivot(K, rows, 0, c)
        rows.pop(0)
    return d


def subquotient_type(K: FieldSpec, a: Matrix, big: Matrix, small: Matrix) -> tuple[int, ...]:
    """Jordan type of a on span(big) / span(small), as ascending block
    sizes, for a-stable spans with span(small) inside span(big), each
    given by a basis.  The rank of a^k there is dim(a^k big + small) -
    dim small; a^k big + small is the echelon basis of the images of the
    previous one's rows together with small, and the ranks stop at the
    first zero.  A map whose n-th power keeps nonzero rank is not
    nilpotent."""
    s = len(small)
    ranks, span = [len(big) - s], big
    while ranks[-1]:
        if len(ranks) > len(a):
            raise ValueError("matrix is not nilpotent")
        span = echelon_basis(K, [mat_vec(K, a, v) for v in span] + list(small))
        ranks.append(len(span) - s)
    return partition_from_ranks(tuple(ranks))


def jordan_partition(K: FieldSpec, a: Matrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix, as ascending block sizes."""
    return subquotient_type(K, a, identity(K, len(a)), ())


@cache
def partition_from_ranks(ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending Jordan block sizes from r_k = rank(a^k), k = 0..len - 1,
    for a nilpotent a: there are r_{k-1} - 2 r_k + r_{k+1} blocks of size
    exactly k, with ranks past the end read as 0.  Memoised: few rank
    tuples occur, and many subspaces share each."""
    r = list(ranks) + [0]
    parts = []
    for k in range(1, len(ranks)):
        parts.extend([k] * (r[k - 1] - 2 * r[k] + r[k + 1]))
    return tuple(sorted(parts))


def quotient_action(K: FieldSpec, a: Matrix, sub: Matrix) -> tuple[Matrix, list[int]]:
    """Matrix of the induced action on V / span(sub), and its basis.

    The quotient basis is the set of standard coordinates that are not
    pivot columns of the subspace's echelon basis; their indices are
    returned with the matrix, so a quotient vector lifts to V by placing
    its entries at those coordinates.
    """
    n = len(a)
    red, pivots = rref(K, sub)
    pivset = set(pivots)
    compl = [c for c in range(n) if c not in pivset]
    cols = []
    for c in compl:
        e = tuple(1 if i == c else 0 for i in range(n))
        w = reduce(K, mat_vec(K, a, e), red, pivots)
        cols.append(tuple(w[i] for i in compl))
    return transpose(mat(cols)), compl
