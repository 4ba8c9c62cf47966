"""The sparse integer kernel against the former dense routines.

The zero-skipping integer product, the sparse structure-constant table
behind `bracket`/`ad`, and the block coordinate maps behind
`restrict_operator` and `quotient_operator` must return exactly what the
dense loops they replaced returned.  Those loops are kept here as
references.
"""

import random
from fractions import Fraction as F
from operator import mul

from hypothesis import example, given, settings, strategies as st

from generators import random_solvable
from liecert.algebra import LieAlgebra, lie_algebra_from_matrices
from liecert.builders import build_example, catalog_names
from liecert.linalg import (
    Coordinates,
    _int_matmul,
    coords_in_basis,
    extend_basis,
    identity,
    invariant_under,
    matmul,
    matrix,
    quotient_operator,
    restrict_operator,
    row_basis,
    transpose,
)
from liecert.poly import RationalPolynomial
from liecert.spectral import apply_poly
from test_linalg import reference_apply_poly, reference_matmul, reference_rref

# -- the integer product ------------------------------------------------------


def reference_int_matmul(a, b):
    """Dense integer product (the former _int_matmul)."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


entries = st.one_of(st.integers(-9, 9), st.integers(-(10**9), 10**9))


@st.composite
def int_rows(draw, k):
    """One row of length k: sparse (at most 5 % nonzero), dense, mixed or zero."""
    kind = draw(st.sampled_from(["sparse", "dense", "mixed", "zero"]))
    row = [0] * k
    if kind == "zero" or not k:
        return row
    if kind == "sparse":
        for j in draw(st.lists(st.integers(0, k - 1), max_size=k // 20, unique=True)):
            row[j] = draw(entries.filter(bool))
    elif kind == "dense":
        row = [draw(entries.filter(bool)) for _ in range(k)]
    else:
        row = [draw(entries) if draw(st.booleans()) else 0 for _ in range(k)]
    return row


@st.composite
def int_products(draw):
    """(a, b) with a r x k and b k x c; any of r, k, c may be zero."""
    k = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 20, 40]))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    a = [draw(int_rows(k)) for _ in range(r)]
    b = [draw(int_rows(c)) for _ in range(k)]
    return a, b


@given(int_products())
@example(([], []))
@example(([[], []], []))
@example(([[0, 0, 0]], [[1, 2], [3, 4], [5, 6]]))
@example(([[0, 1, 0, 0]], [[1], [2], [3], [4]]))
@example(([[-1, 0, 1, 0, 0, 0]], [[7, 1]] * 6))
@example(([[2, 3, 4]], [[1, -1], [10**9, 0], [0, -(10**9)]]))
@settings(max_examples=300, deadline=None)
def test_int_matmul_matches_dense_reference(pair):
    a, b = pair
    before = [row[:] for row in b]
    out = _int_matmul(a, b)
    assert out == reference_int_matmul(a, b)
    assert b == before
    # each result row is a fresh list: callers add to its diagonal in place
    assert not any(row is brow for row in out for brow in b)


wide = st.fractions(min_value=-5, max_value=5, max_denominator=10**9)


@st.composite
def sparse_squares(draw, max_n=9, n=None):
    """Square Fraction matrices with at most two nonzero entries per row."""
    if n is None:
        n = draw(st.integers(1, max_n))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
            rows[i][j] = draw(wide.filter(bool))
    return matrix(rows)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(sparse_squares(n=n), sparse_squares(n=n))))
@settings(max_examples=100, deadline=None)
def test_matmul_of_sparse_fraction_matrices_matches_reference(pair):
    a, b = pair
    assert matmul(a, b) == reference_matmul(a, b)
    assert matmul(b, a) == reference_matmul(b, a)


@given(sparse_squares(), st.lists(wide, min_size=1, max_size=6))
@example(matrix([[0, 1], [0, 0]]), [F(1), F(2), F(3)])
@settings(max_examples=100, deadline=None)
def test_apply_poly_of_sparse_matrices_matches_reference(m, coeffs):
    p = RationalPolynomial(coeffs)
    assert apply_poly(p, m) == reference_apply_poly(p.coeffs, m)


def test_apply_poly_of_a_non_normal_matrix_matches_reference():
    # a . acc and acc . a differ for a generic acc; for a polynomial in a
    # they agree, and a transposed factor would show here
    m = matrix([[1, 2, 0], [0, F(1, 3), 5], [7, 0, -1]])
    p = RationalPolynomial([F(2), F(-1, 7), F(3), F(1, 2)])
    assert apply_poly(p, m) == reference_apply_poly(p.coeffs, m)


# -- coordinates, restriction and quotient ------------------------------------


def reference_rref_coords(red, pivots, v):
    coords = tuple(v[c] for c in pivots)
    pivset = set(pivots)
    for j, x in enumerate(v):
        if j not in pivset and x != sum(
            (a * row[j] for a, row in zip(coords, red) if a), F(0)
        ):
            return None
    return coords


def reference_basis_coordinates(basis):
    """The former basis_coordinates: Fraction rref of [basis | I], one vector per call."""
    k = len(basis)
    if not k:
        return lambda v: () if all(x == 0 for x in v) else None
    n = len(basis[0])
    red, piv = reference_rref(tuple(tuple(row) + e for row, e in zip(basis, identity(k))))
    piv = tuple(c for c in piv if c < n)
    left = tuple(row[:n] for row in red[: len(piv)])
    back = tuple(row[n:] for row in red[: len(piv)])

    def coords(v):
        c = reference_rref_coords(left, piv, v)
        if c is None:
            return None
        return tuple(sum((a * t[i] for a, t in zip(c, back) if a), F(0)) for i in range(k))

    return coords


def reference_restrict_operator(m, basis):
    """The former restrict_operator: each image mapped on its own."""
    if not basis:
        return ()
    coords = reference_basis_coordinates(basis)
    cols = []
    for image in reference_matmul(basis, transpose(m)):
        c = coords(image)
        if c is None:
            return None
        cols.append(c)
    k = len(basis)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def reference_quotient_operator(m, basis):
    """The former quotient_operator: restriction first, then a second elimination."""
    n = len(m)
    if reference_restrict_operator(m, basis) is None and basis:
        return None
    comp = extend_basis(basis, n)
    full = tuple(basis) + tuple(tuple(F(int(i == j)) for i in range(n)) for j in comp)
    coords = reference_basis_coordinates(full)
    columns = transpose(m)
    k = len(basis)
    cols = [coords(columns[j])[k:] for j in comp]
    q = len(comp)
    return tuple(tuple(cols[j][i] for j in range(q)) for i in range(q)), comp


@st.composite
def operator_and_span(draw, max_n=6):
    """(m, basis, invariant?): a sparse or dense m and an independent basis.

    An invariant basis is the Krylov closure of random rows under m
    (rows b -> b m^T); otherwise the rows are random and mostly not
    invariant.  Entries may have denominators up to 10^9.
    """
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        m = draw(sparse_squares(n=n))
    else:
        m = matrix([[draw(wide) for _ in range(n)] for _ in range(n)])
    seeds = [
        tuple(draw(wide) if draw(st.booleans()) else F(0) for _ in range(n))
        for _ in range(draw(st.integers(0, n)))
    ]
    invariant = draw(st.booleans())
    if invariant:
        rows = list(seeds)
        while True:
            span = row_basis(tuple(rows)) if rows else ()
            grown = row_basis(tuple(rows) + reference_matmul(span, transpose(m))) if span else ()
            if len(grown) == len(span):
                break
            rows = list(grown)
        basis = span
    else:
        basis = row_basis(tuple(seeds)) if seeds else ()
    if basis and draw(st.booleans()):
        # a non-echelon basis of the same span: add row 0 into the others
        basis = (basis[0],) + tuple(
            tuple(x + y for x, y in zip(row, basis[0])) for row in basis[1:]
        )
    return m, basis, invariant


@given(operator_and_span(), st.data())
@settings(max_examples=200, deadline=None)
def test_block_coordinates_match_reference(case, data):
    m, basis, _ = case
    n = len(m)
    ref = reference_basis_coordinates(basis)
    k = len(basis)
    block = []  # members, random vectors (mostly outside) and zero
    for _ in range(data.draw(st.integers(0, 3))):
        cs = data.draw(st.lists(wide, min_size=k, max_size=k))
        block.append(tuple(sum((c * row[j] for c, row in zip(cs, basis)), F(0)) for j in range(n)))
    for _ in range(data.draw(st.integers(0, 3))):
        block.append(tuple(data.draw(wide) for _ in range(n)))
    block.append((F(0),) * n)
    coords = Coordinates(basis)
    expected = tuple(ref(v) for v in block)
    assert coords.map(tuple(block)) == expected
    assert coords.contains(tuple(block)) == [c is not None for c in expected]
    assert all(type(x) is F for c in expected if c is not None for x in c)
    for v, c in zip(block, expected):
        assert coords_in_basis(basis, v) == c


@given(operator_and_span())
@example((matrix([[0, 1], [0, 0]]), matrix([[0, 1]]), False))
@example((matrix([[0, 1], [0, 0]]), matrix([[1, 0]]), True))
@example((matrix([[F(1, 10**9), 0], [0, 2]]), (), True))
@settings(max_examples=200, deadline=None)
def test_restriction_and_quotient_match_reference(case):
    m, basis, invariant = case
    restricted = restrict_operator(m, basis)
    assert restricted == reference_restrict_operator(m, basis)
    assert quotient_operator(m, basis) == reference_quotient_operator(m, basis)
    if invariant:
        assert restricted is not None
    assert invariant_under([m], basis) == [restricted is not None]


def test_non_invariant_span_is_none_on_both_sides():
    # e_0 -> e_1 under m: span(e_0) is not invariant, span(e_1) is
    m = matrix([[0, 0, 0], [1, 0, 0], [0, 0, 5]])
    e0, e1 = matrix([[1, 0, 0]]), matrix([[0, 1, 0]])
    for basis in (e0, e0 + matrix([[0, 0, 1]])):
        assert restrict_operator(m, basis) is None
        assert reference_restrict_operator(m, basis) is None
        assert quotient_operator(m, basis) is None
        assert reference_quotient_operator(m, basis) is None
    assert invariant_under([m, identity(3)], e0) == [False, True]
    assert restrict_operator(m, e1) == matrix([[0]])
    assert quotient_operator(m, e1) == reference_quotient_operator(m, e1)


# -- sparse structure constants -------------------------------------------------


def reference_bracket(g, x, y):
    """The former bracket: a triple loop over the dense table."""
    n = g.dim
    out = [F(0)] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in enumerate(g.table[i][j]):
                if c != 0:
                    out[k] += xi * yj * c
    return tuple(out)


def reference_ad_basis(g):
    n = g.dim
    return tuple(
        tuple(tuple(g.table[a][j][i] for j in range(n)) for i in range(n)) for a in range(n)
    )


def reference_ad(g, x):
    """The former ad: a combination of the dense ad(e_a)."""
    n = g.dim
    ads = reference_ad_basis(g)
    out = [[F(0)] * n for _ in range(n)]
    for a, xa in enumerate(x):
        if xa != 0:
            for i in range(n):
                for j in range(n):
                    out[i][j] += xa * ads[a][i][j]
    return tuple(tuple(r) for r in out)


def assert_sparse_table_matches(g, rng):
    n = g.dim
    basis = [g.basis_vector(i) for i in range(n)]
    assert g.ad_basis == reference_ad_basis(g)
    for x in basis:
        for y in basis:
            assert g.bracket(x, y) == reference_bracket(g, x, y)
    for _ in range(4):
        x = tuple(F(rng.randint(-3, 3), rng.randint(1, 10**9)) for _ in range(n))
        y = tuple(F(rng.randint(-3, 3)) if rng.random() < 0.5 else F(0) for _ in range(n))
        assert g.bracket(x, y) == reference_bracket(g, x, y)
        assert g.bracket(y, x) == reference_bracket(g, y, x)
        assert g.ad(x) == reference_ad(g, x)
        assert g.ad(y) == reference_ad(g, y)


def test_bracket_and_ad_match_reference_on_the_catalog():
    rng = random.Random(3)
    for name in catalog_names():
        assert_sparse_table_matches(build_example(name).ambient, rng)


def test_bracket_and_ad_match_reference_on_random_solvable_closures():
    rng = random.Random(11)
    for _ in range(12):
        assert_sparse_table_matches(random_solvable(rng, 2, 6), rng)


def test_bracket_and_ad_match_reference_on_a_table_that_is_not_antisymmetric():
    # the constructor accepts any table (validate() reports the defects),
    # so the sparse table must hold (j, i) as given, not as -(i, j)
    rng = random.Random(5)
    n = 4
    table = [
        [tuple(F(rng.randint(-2, 2)) if rng.random() < 0.3 else F(0) for _ in range(n)) for _ in range(n)]
        for _ in range(n)
    ]
    assert_sparse_table_matches(LieAlgebra(table), rng)


def test_lie_algebra_from_matrices_maps_the_commutator_block_like_the_reference():
    # sl(3): every commutator mapped at once equals the one-by-one coordinates
    def e(i, j):
        return matrix([[int((r, c) == (i, j)) for c in range(3)] for r in range(3)])

    mats = [matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), matrix([[0, 0, 0], [0, 1, 0], [0, 0, -1]])]
    mats += [e(i, j) for i in range(3) for j in range(3) if i != j]
    g = lie_algebra_from_matrices(mats)
    flat = tuple(tuple(x for row in m for x in row) for m in mats)
    coords = reference_basis_coordinates(flat)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            comm = reference_matmul(a, b)
            anti = reference_matmul(b, a)
            cf = tuple(x - y for rp, ra in zip(comm, anti) for x, y in zip(rp, ra))
            assert g.table[i][j] == coords(cf)
