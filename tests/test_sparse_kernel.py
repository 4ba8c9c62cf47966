"""The sparse integer kernel against the former dense routines.

The zero-skipping integer product, the sparse structure-constant table
behind `bracket`/`ad`, and the block coordinate maps behind
`restrict_operator` must return exactly what the dense loops they
replaced returned.  Those loops are kept here as references, with the
former quotient operator, which the tests of quotient spectra use.
"""

import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from generators import fraction_ad, matrix, random_solvable
from liecert.algebra import (
    LieAlgebra,
    StructureError,
    Subspace,
    _unital_envelope,
    as_subalgebra,
    bracket_space,
    full_space,
    levi_decomposition,
    lie_algebra_from_matrices,
    nilradical,
    normalizer,
    quotient_by_ideal,
    radical,
    zero_space,
)
from liecert.builders import build_example, catalog_names
from liecert.linalg import (
    Coordinates,
    Echelon,
    _int_matmul,
    combine,
    extend_basis,
    identity,
    integer_row,
    invariant_under,
    matmul,
    matvec,
    nullspace,
    restrict_operator,
    row_basis,
    solve,
    transpose,
    vec_add,
)
from liecert.poly import RationalPolynomial
from liecert.spectral import apply_poly, char_poly
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
        assert coords.map((v,)) == (c,)


@given(operator_and_span())
@example((matrix([[0, 1], [0, 0]]), matrix([[0, 1]]), False))
@example((matrix([[0, 1], [0, 0]]), matrix([[1, 0]]), True))
@example((matrix([[F(1, 10**9), 0], [0, 2]]), (), True))
@settings(max_examples=200, deadline=None)
def test_restriction_and_quotient_match_reference(case):
    m, basis, invariant = case
    restricted = restrict_operator(m, basis)
    assert restricted == reference_restrict_operator(m, basis)
    if invariant:
        assert restricted is not None
    assert invariant_under([m], basis) == [restricted is not None]
    # the quotient's characteristic polynomial is the whole one over the restricted one
    quotient = reference_quotient_operator(m, basis)
    assert (quotient is None) == (restricted is None)
    if restricted is not None:
        whole, part = char_poly(m), char_poly(restricted)
        assert divmod(whole, part) == (char_poly(quotient[0]), RationalPolynomial())


def test_non_invariant_span_is_none_on_both_sides():
    # e_0 -> e_1 under m: span(e_0) is not invariant, span(e_1) is
    m = matrix([[0, 0, 0], [1, 0, 0], [0, 0, 5]])
    e0, e1 = matrix([[1, 0, 0]]), matrix([[0, 1, 0]])
    for basis in (e0, e0 + matrix([[0, 0, 1]])):
        assert restrict_operator(m, basis) is None
        assert reference_restrict_operator(m, basis) is None
        assert reference_quotient_operator(m, basis) is None
    assert invariant_under([m, identity(3)], e0) == [False, True]
    assert restrict_operator(m, e1) == matrix([[0]])


# -- sparse structure constants -------------------------------------------------


def reference_bracket(g, x, y):
    """The former bracket: a triple loop over the dense table."""
    n, table = g.dim, g.table
    out = [F(0)] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in enumerate(table[i][j]):
                if c != 0:
                    out[k] += xi * yj * c
    return tuple(out)


def reference_ad_basis(g):
    n, table = g.dim, g.table
    return tuple(
        tuple(tuple(table[a][j][i] for j in range(n)) for i in range(n)) for a in range(n)
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
    assert tuple(fraction_ad(g, e) for e in basis) == reference_ad_basis(g)
    for x in basis:
        for y in basis:
            assert g.bracket(x, y) == reference_bracket(g, x, y)
    for _ in range(4):
        x = tuple(F(rng.randint(-3, 3), rng.randint(1, 10**9)) for _ in range(n))
        y = tuple(F(rng.randint(-3, 3)) if rng.random() < 0.5 else F(0) for _ in range(n))
        assert g.bracket(x, y) == reference_bracket(g, x, y)
        assert g.bracket(y, x) == reference_bracket(g, y, x)
        assert fraction_ad(g, x) == reference_ad(g, x)
        assert fraction_ad(g, y) == reference_ad(g, y)


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
    table = g.table
    flat = tuple(tuple(x for row in m for x in row) for m in mats)
    coords = reference_basis_coordinates(flat)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            comm = reference_matmul(a, b)
            anti = reference_matmul(b, a)
            cf = tuple(x - y for rp, ra in zip(comm, anti) for x, y in zip(rp, ra))
            assert table[i][j] == coords(cf)


# -- integer structure constants ------------------------------------------------
#
# `LieAlgebra` keeps its structure constants as integers over one common
# denominator, and brackets, adjoints, closure checks, the nilradical's
# envelope and pairing, the normalizer rows, quotient tables and the Levi
# equations all run on them.  The references below are the former Fraction
# routines.  They read the Fraction table an algebra was built from, never
# the algebra's own `table`, which is derived from the integer one.

PRIMES = (2, 3, 5, 7, 997, 99991, 9999991, 999999937, 999999929, 999999893, 999999883)
denominators = st.one_of(st.integers(1, 10**9), st.sampled_from(PRIMES))
scalars = st.builds(F, st.integers(-9, 9).filter(bool), denominators)


class Former:
    """The former Fraction bracket and adjoint over a Fraction table."""

    def __init__(self, table):
        self.dim = len(table)
        self.constants = tuple(
            tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row) for row in table
        )

    def bracket(self, x, y):
        out = [F(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for xi, row in zip(x, self.constants):
            if not xi:
                continue
            for j, yj in ys:
                terms = row[j]
                if terms:
                    f = xi * yj
                    for k, c in terms:
                        out[k] += f * c
        return tuple(out)

    def ad(self, x):
        n = self.dim
        out = [[F(0)] * n for _ in range(n)]
        for xa, row in zip(x, self.constants):
            if not xa:
                continue
            for j, terms in enumerate(row):
                for k, c in terms:
                    out[k][j] += xa * c
        return tuple(tuple(r) for r in out)


def former_validate(ref, table):
    """(antisymmetry failures, Jacobi failures) of the former validate."""
    n = ref.dim
    anti = []
    for i in range(n):
        for j in range(i, n):
            defect = table[i][i] if i == j else vec_add(table[i][j], table[j][i])
            if any(defect):
                anti.append((i, j, defect))
    basis = identity(n)
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d = vec_add(
                    vec_add(ref.bracket(basis[i], table[j][k]), ref.bracket(basis[j], table[k][i])),
                    ref.bracket(basis[k], table[i][j]),
                )
                if any(d):
                    jac.append((i, j, k, d))
    return tuple(anti), tuple(jac)


def former_closure(ref, s):
    """The former Subalgebra closure loop: one rref_coords per ordered pair."""
    table = []
    for x in s.basis:
        row = []
        for y in s.basis:
            c = reference_rref_coords(s.basis, s.pivots, ref.bracket(x, y))
            if c is None:
                raise StructureError("span is not closed under the bracket")
            row.append(c)
        table.append(tuple(row))
    return tuple(table)


def former_bracket_space(ref, a, b):
    return Subspace(a.algebra, [ref.bracket(x, y) for x in a.basis for y in b.basis])


def former_normalizer(ref, s):
    """The former normalizer: a Fraction row -(w . ad(v)) per v in s and w in ann(s)."""
    g, n = s.algebra, s.algebra.dim
    ann = nullspace(s.basis) if s.dim else ()
    if not ann:
        vecs = identity(n)
    else:
        stacked = []
        for v in s.basis:
            adv = ref.ad(v)
            for w in ann:
                stacked.append(tuple(-sum(w[r] * adv[r][c] for r in range(n)) for c in range(n)))
        vecs = nullspace(tuple(stacked))
    return Subspace(g, vecs)


def former_envelope(mats, n):
    """The former _unital_envelope: every word multiplied with the Fraction matmul."""
    gens = []
    for m in mats:
        flat = integer_row(tuple(x for row in m for x in row))
        gens.append(tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n)))
    span = Echelon()
    found = []
    work = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    while work:
        m = work.pop()
        flat = tuple(x for row in m for x in row)
        if span.add(flat):
            found.append(flat)
            work.extend(matmul(gen, m) for gen in gens)
    return row_basis(tuple(found))


def former_radical(ref, g):
    n = g.dim
    ads = [ref.ad(e) for e in identity(n)]
    killing = tuple(
        tuple(sum((x * y for ra, cb in zip(a, zip(*b)) for x, y in zip(ra, cb)), F(0)) for b in ads)
        for a in ads
    )
    full = Subspace(g, identity(n))
    derived = former_bracket_space(ref, full, full)
    if derived.dim == 0:
        return full
    return Subspace(g, nullspace(matmul(derived.basis, killing)))


def former_nilradical(ref, g):
    """The former nilradical: the trace pairing as one Fraction sum per entry."""
    rad = former_radical(ref, g)
    if rad.dim == 0:
        return rad
    n = g.dim
    ads = [ref.ad(r) for r in rad.basis]
    env = former_envelope(ads, n)
    pairings = [
        tuple((j * n + i, x) for i, row in enumerate(adr) for j, x in enumerate(row) if x)
        for adr in ads
    ]
    rows = [
        tuple(sum((x * bflat[k] for k, x in terms), F(0)) for terms in pairings) for bflat in env
    ]
    return Subspace(g, matmul(nullspace(tuple(rows)), rad.basis))


def former_quotient(ref, ideal):
    """The former quotient: a bracket and a Fraction matvec per table entry."""
    n = ref.dim
    unit = identity(n)
    comp = extend_basis(ideal.basis, n)
    k, q = ideal.dim, len(comp)
    coords = reference_basis_coordinates(ideal.basis + tuple(unit[j] for j in comp))
    inv = [coords(e) for e in unit]
    projection = tuple(tuple(inv[i][k + a] for i in range(n)) for a in range(q))
    section = tuple(tuple(F(int(comp[a] == i)) for a in range(q)) for i in range(n))
    table = tuple(
        tuple(matvec(projection, ref.bracket(unit[comp[a]], unit[comp[b]])) for b in range(q))
        for a in range(q)
    )
    return table, projection, section


def former_levi(ref, g, rad):
    """The former _levi_complement on the former quotient, closure and radical."""
    n = g.dim
    if rad.dim == 0:
        return Subspace(g, identity(n))
    if rad.dim == n:
        return Subspace(g, ())
    rad_derived = former_bracket_space(ref, rad, rad)
    if rad_derived.dim > 0:
        table, projection, section = former_quotient(ref, rad_derived)
        qg = LieAlgebra(table)
        qrad = Subspace(qg, [matvec(projection, v) for v in rad.basis])
        qlevi = former_levi(Former(table), qg, qrad)
        pre = Subspace(g, tuple(matvec(section, v) for v in qlevi.basis) + rad_derived.basis)
        sub_table = former_closure(ref, pre)
        sref, sg = Former(sub_table), LieAlgebra(sub_table)
        inner = former_levi(sref, sg, former_radical(sref, sg))
        return Subspace(g, matmul(inner.basis, pre.basis))
    unit = identity(n)
    comp = extend_basis(rad.basis, n)
    xs = [unit[j] for j in comp]
    q, k = len(xs), rad.dim
    coords = reference_basis_coordinates(rad.basis + tuple(xs))
    inv = [coords(e) for e in unit]
    proj_rad = tuple(tuple(inv[i][a] for i in range(n)) for a in range(k))
    proj_comp = tuple(tuple(inv[i][k + a] for i in range(n)) for a in range(q))
    cbar = [[matvec(proj_comp, ref.bracket(xs[a], xs[b])) for b in range(q)] for a in range(q)]
    phi = [[matvec(proj_rad, ref.bracket(xs[a], xs[b])) for b in range(q)] for a in range(q)]
    rad_vec = list(rad.basis)
    ad_on_rad = []
    for a in range(q):
        cols = [matvec(proj_rad, ref.bracket(xs[a], rad_vec[r])) for r in range(k)]
        ad_on_rad.append(tuple(tuple(cols[c][r] for c in range(k)) for r in range(k)))
    rows, rhs = [], []
    for a in range(q):
        for b in range(a + 1, q):
            for r in range(k):
                row = [F(0)] * (q * k)
                for c in range(k):
                    row[b * k + c] += ad_on_rad[a][r][c]
                    row[a * k + c] -= ad_on_rad[b][r][c]
                for cidx in range(q):
                    if cbar[a][b][cidx] != 0:
                        row[cidx * k + r] -= cbar[a][b][cidx]
                rows.append(tuple(row))
                rhs.append(-phi[a][b][r])
    sol = solve(tuple(rows), tuple(rhs)) if rows else (F(0),) * (q * k)
    return Subspace(g, [vec_add(xs[a], combine(sol[a * k : (a + 1) * k], rad_vec, n)) for a in range(q)])


def assert_brackets_match_former(g, table, xs, ys):
    ref = Former(table)
    expected = tuple(ref.bracket(x, y) for x in xs for y in ys)
    assert g.brackets(xs, ys) == expected
    assert all(type(c) is F for v in expected for c in v)
    for x in xs:
        assert fraction_ad(g, x) == ref.ad(x)
        for y in ys:
            assert g.bracket(x, y) == ref.bracket(x, y)


def assert_structure_matches_former(g, table):
    """Every touched structure routine of g against the former routines."""
    ref = Former(table)
    n = g.dim
    full = full_space(g)
    assert_brackets_match_former(g, table, full.basis, full.basis)
    assert tuple(fraction_ad(g, e) for e in identity(n)) == tuple(ref.ad(e) for e in identity(n))
    report = g.validate()
    assert (report.antisymmetry_failures, report.jacobi_failures) == former_validate(ref, table)
    rad = radical(g)
    assert rad == former_radical(ref, g)
    ads = [fraction_ad(g, r) for r in rad.basis]
    assert _unital_envelope(ads, n) == former_envelope([ref.ad(r) for r in rad.basis], n)
    nil = nilradical(g)
    assert nil == former_nilradical(ref, g)
    derived = bracket_space(full, full)
    assert derived == former_bracket_space(ref, full, full)
    assert bracket_space(full, rad) == former_bracket_space(ref, full, rad)
    first = Subspace(g, identity(n)[:1])
    for s in (full, rad, nil, derived, zero_space(g), first):
        assert normalizer(g, s) == former_normalizer(ref, s)
        try:
            expected = former_closure(ref, s)
        except StructureError:
            with pytest.raises(StructureError):
                as_subalgebra(s)
            continue
        sub, basis = as_subalgebra(s).as_algebra()
        assert sub.table == expected and basis == s.basis
        assert sub == LieAlgebra(expected)
    for ideal in (rad, nil, derived):
        quo = quotient_by_ideal(g, ideal)
        expected, projection, section = former_quotient(ref, ideal)
        assert quo.quotient.table == expected
        assert quo.quotient == LieAlgebra(expected)
        assert (quo.projection, quo.section) == (projection, section)
    levi, rad_again = levi_decomposition(g)
    assert rad_again == rad
    assert levi == former_levi(ref, g, former_radical(ref, g))


@st.composite
def fraction_tables(draw, max_n=5):
    """A Fraction table, antisymmetric or not, with denominators up to 10^9.

    With `distinct` the m-th entry has the m-th prime of PRIMES as its
    denominator, so the common denominator is their product.
    """
    n = draw(st.integers(0, max_n))
    antisymmetric = draw(st.booleans())
    distinct = draw(st.booleans())
    index = st.integers(0, max(n - 1, 0))
    cells = draw(st.lists(st.tuples(index, index, index, scalars), max_size=3 * n * n if n else 0))
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for m, (i, j, k, v) in enumerate(cells):
        if distinct and m < len(PRIMES):
            v = F(v.numerator, PRIMES[m])
        if antisymmetric:
            if i == j:
                continue
            table[j][i][k] = -v
        table[i][j][k] = v
    return tuple(tuple(tuple(v) for v in row) for row in table)


def vectors(n):
    return st.lists(st.one_of(st.just(F(0)), scalars), min_size=n, max_size=n).map(tuple)


@given(fraction_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_table_brackets_and_validate_match_former(table, data):
    n = len(table)
    g = LieAlgebra(table)
    assert g.table == table
    assert g == LieAlgebra(g.table) and hash(g) == hash(LieAlgebra(g.table))
    xs = data.draw(st.lists(vectors(n), max_size=3))
    ys = data.draw(st.lists(vectors(n), max_size=3))
    xs.append((F(0),) * n)  # a zero vector on the left
    assert_brackets_match_former(g, table, tuple(xs), tuple(ys))
    assert g.brackets((), ys) == () and g.brackets(xs, ()) == ()
    report = g.validate()
    assert (report.antisymmetry_failures, report.jacobi_failures) == former_validate(Former(table), table)


def _closed_span(ref, vecs):
    """The span of vecs closed under the former bracket."""
    rows = row_basis(tuple(vecs)) if vecs else ()
    while True:
        grown = row_basis(rows + tuple(ref.bracket(x, y) for x in rows for y in rows)) if rows else ()
        if len(grown) == len(rows):
            return rows
        rows = grown


@given(fraction_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_closure_check_and_normalizer_match_former_on_any_table(table, data):
    # spans that are closed (the closure of random vectors) and spans that
    # are mostly not; a table that is not antisymmetric is checked on every
    # ordered pair, and both sides raise StructureError on the same spans
    n = len(table)
    g, ref = LieAlgebra(table), Former(table)
    vecs = data.draw(st.lists(vectors(n), max_size=3))
    if data.draw(st.booleans()):
        vecs = _closed_span(ref, vecs)
    s = Subspace(g, vecs)
    other = Subspace(g, data.draw(st.lists(vectors(n), max_size=2)))
    assert bracket_space(s, other) == former_bracket_space(ref, s, other)
    try:
        expected = former_closure(ref, s)
    except StructureError:
        with pytest.raises(StructureError):
            as_subalgebra(s)
    else:
        sub, basis = as_subalgebra(s).as_algebra()
        assert sub.table == expected and basis == s.basis
    try:
        expected_normalizer = former_normalizer(ref, s)
        former_closure(ref, expected_normalizer)
    except StructureError:
        with pytest.raises(StructureError):
            normalizer(g, s)
    else:
        assert normalizer(g, s) == expected_normalizer


def test_closure_of_a_span_that_is_not_closed_raises_on_both_sides():
    # [e0, e1] = e2 leaves span(e0, e1); the table is not antisymmetric, and
    # only the pair (1, 0) leaves span(e0, e2)
    z = (F(0),) * 3
    table = ((z, (0, 0, F(1, 999999937)), z), (z, z, z), (z, z, z))
    table = tuple(tuple(tuple(F(c) for c in v) for v in row) for row in table)
    g, ref = LieAlgebra(table), Former(table)
    for vecs in (identity(3)[:2], ((1, 0, 0), (0, 1, 1))):
        s = Subspace(g, vecs)
        with pytest.raises(StructureError):
            former_closure(ref, s)
        with pytest.raises(StructureError):
            as_subalgebra(s)
    lower = ((z, z, z), ((F(0), F(0), F(1)), z, z), (z, z, z))
    s = Subspace(LieAlgebra(lower), ((1, 0, 0), (0, 0, 1)))
    assert as_subalgebra(s).as_algebra()[0].dim == 2  # (0, 1) and (1, 0) stay inside
    s = Subspace(LieAlgebra(lower), identity(3)[:2])
    with pytest.raises(StructureError):  # only (1, 0) leaves the span
        as_subalgebra(s)


def _matrix_unit(i, j, n=3):
    return matrix([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def _affine(with_center):
    """aff(sl2) or aff(gl2) as 3x3 matrices: a Levi part and a radical.

    The radical of aff(gl2) is not abelian, so Levi takes its recursive branch.
    """
    mats = [matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), _matrix_unit(0, 1), _matrix_unit(1, 0)]
    if with_center:
        mats.append(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    return lie_algebra_from_matrices(mats + [_matrix_unit(0, 2), _matrix_unit(1, 2)])


def _base_algebras():
    rng = random.Random(17)
    base = [build_example(name).ambient for name in catalog_names()]
    base += [_affine(False), _affine(True)]
    base += [random_solvable(rng, 3, 6) for _ in range(4)]
    return base


BASE_ALGEBRAS = _base_algebras()


def rescaled(table, lams):
    """The table in the basis lam_i e_i: c_ij^k lam_i lam_j / lam_k."""
    n = len(table)
    return tuple(
        tuple(tuple(table[i][j][k] * lams[i] * lams[j] / lams[k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def test_structure_matches_former_on_the_catalog_and_random_solvable_closures():
    for g in BASE_ALGEBRAS:
        assert_structure_matches_former(g, g.table)


@given(st.sampled_from(range(len(BASE_ALGEBRAS))), st.data())
@settings(max_examples=40, deadline=None)
def test_structure_matches_former_with_large_and_distinct_prime_denominators(which, data):
    base = BASE_ALGEBRAS[which].table
    n = len(base)
    if data.draw(st.booleans()):
        lams = [F(data.draw(st.integers(1, 9)), p) for p in data.draw(st.permutations(PRIMES))[:n]]
    else:
        lams = [data.draw(scalars) for _ in range(n)]
    table = rescaled(base, lams)
    g = LieAlgebra(table)
    assert g.table == table
    assert_structure_matches_former(g, table)


# -- ad(x) stays an integer matrix through the decisions ------------------------


def test_decisions_build_no_fraction_adjoint():
    """ad(x) has one form, the IntMatrix of `LieAlgebra.ad_integer`: the
    `Fraction` views `ad` and `ad_basis` are gone, and check_anosov,
    restricted_roots, is_ad_hyperbolic, cartan_subspace, hyperbolic_span,
    find_csa and classify run on it through restriction, quotient,
    charpoly, kernels and the Jordan-Chevalley parts."""
    from liecert.anosov import ActionSpec, check_anosov, classify
    from liecert.cartan import (
        cartan_subspace,
        find_csa,
        hyperbolic_span,
        is_ad_hyperbolic,
        restricted_roots,
    )
    from test_acceptance import _sl_basis

    assert not hasattr(LieAlgebra, "ad")
    assert not hasattr(LieAlgebra, "ad_basis")
    sl3 = lie_algebra_from_matrices(_sl_basis(3))
    actions = [ActionSpec(sl3, cartan_subspace(sl3))]
    actions += [build_example(name) for name in catalog_names()]
    for action in actions:
        g = action.ambient
        for h in action.flow.basis + (combine([1] * action.flow.dim, action.flow.basis, g.dim),):
            is_ad_hyperbolic(g, h)
            check_anosov(action, h)
        find_csa(g)
        classify(action)
        if radical(g).dim == 0:
            restricted_roots(g, action.flow)
            cartan_subspace(g)
            assert hyperbolic_span(g, action.flow.basis + action.isotropy.basis) is not None
