"""Exact linear algebra: determinism, correctness against brute force."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from liecert.linalg import (
    Echelon,
    charpoly,
    coords_in_basis,
    det,
    extend_basis,
    frac,
    identity,
    in_span,
    intersect_spaces,
    inverse,
    matmul,
    matrix,
    matvec,
    nullspace,
    rank,
    rref,
    row_basis,
    solve,
    spaces_equal,
    sum_spaces,
    symmetric_inertia,
    trace,
    vector,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def sq(rows):
    return matrix(rows)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_is_canonical():
    m = sq([[2, 4], [1, 2]])
    r, pivots = rref(m)
    assert r == sq([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rank_and_nullspace_dimensions():
    m = sq([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    for v in ns:
        assert matvec(m, v) == vector([0, 0, 0])


def test_solve_and_inverse_roundtrip():
    m = sq([[2, 1], [1, 1]])
    b = vector([3, 2])
    x = solve(m, b)
    assert matvec(m, x) == b
    mi = inverse(m)
    assert matmul(m, mi) == identity(2)


def test_solve_inconsistent_returns_none():
    m = sq([[1, 1], [1, 1]])
    assert solve(m, vector([0, 1])) is None


def test_det_via_permutation_expansion():
    m = sq([[1, 2, 0], [3, 1, 1], [0, 2, 2]])
    # brute force over permutations
    import itertools

    n = 3
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    assert det(m) == total


def test_charpoly_matches_trace_and_det():
    m = sq([[1, 2], [3, 4]])
    cp = charpoly(m)  # ascending, det(tI - A)
    assert cp[-1] == 1
    assert cp[1] == -trace(m)
    assert cp[0] == det(m)


def test_charpoly_cayley_hamilton():
    m = sq([[0, 1, 0], [0, 0, 1], [2, -3, 1]])
    cp = charpoly(m)
    acc = [[F(0)] * 3 for _ in range(3)]
    power = identity(3)
    for c in cp:
        for i in range(3):
            for j in range(3):
                acc[i][j] += c * power[i][j]
        power = matmul(power, m)
    assert all(x == 0 for row in acc for x in row)


def test_span_operations():
    a = (vector([1, 0, 0]), vector([0, 1, 0]))
    b = (vector([0, 1, 0]), vector([0, 0, 1]))
    s = sum_spaces(a, b)
    assert len(row_basis(s)) == 3
    i = intersect_spaces(a, b)
    assert len(i) == 1
    assert in_span((vector([0, 1, 0]),), i[0])


def test_coords_in_basis():
    basis = (vector([1, 1]), vector([0, 1]))
    v = vector([2, 3])
    cs = coords_in_basis(basis, v)
    assert cs == (F(2), F(1))


def test_extend_basis_deterministic():
    part = (vector([1, 1, 0]),)
    idx = extend_basis(part, 3)
    # e0 enlarges the span; afterwards e1 = (1,1,0) - (1,0,0) is inside it
    assert idx == (0, 2)


def test_symmetric_inertia_diagonal():
    m = sq([[2, 0, 0], [0, -3, 0], [0, 0, 0]])
    assert symmetric_inertia(m) == (1, 1, 1)


def test_symmetric_inertia_zero_diagonal_pivot():
    # hyperbolic plane: eigenvalues +-1
    m = sq([[0, 1], [1, 0]])
    assert symmetric_inertia(m) == (1, 1, 0)


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = matrix(rows)
    assert rank(m) + len(nullspace(m)) == 3


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows):
    m = matrix(rows)
    r1, _ = rref(m)
    r2, _ = rref(r1)
    assert r1 == r2


@given(
    st.lists(
        st.lists(rationals, min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
@settings(max_examples=60, deadline=None)
def test_spaces_equal_under_row_ops(rows):
    m = matrix(rows)
    doubled = matrix([[2 * x for x in row] for row in rows])
    nonzero_rows = tuple(r for r in m if any(x != 0 for x in r))
    nonzero_doubled = tuple(r for r in doubled if any(x != 0 for x in r))
    assert spaces_equal(nonzero_rows, nonzero_doubled)


# -- the fraction-free kernel against textbook Gauss-Jordan ------------------------


def reference_rref(m):
    """Fraction Gauss-Jordan with first-nonzero pivoting (the former kernel)."""
    rows = [list(r) for r in m]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_rank(m):
    return len(reference_rref(m)[1])


def reference_in_span(rows, v):
    if all(x == 0 for x in v):
        return True
    return bool(rows) and reference_rank(rows) == reference_rank(rows + (v,))


def reference_extend_basis(rows, n):
    acc = list(rows)
    r = reference_rank(rows)
    picked = []
    for j in range(n):
        e = tuple(F(int(i == j)) for i in range(n))
        if reference_rank(tuple(acc) + (e,)) > r:
            acc.append(e)
            r += 1
            picked.append(j)
        if r == n:
            break
    return tuple(picked)


def reference_coords(basis, v):
    """Solve sum_i c_i basis[i] = v through the reference rref, or None."""
    k = len(basis)
    aug = tuple(tuple(b[j] for b in basis) + (v[j],) for j in range(len(v)))
    red, piv = reference_rref(aug)
    if k in piv:
        return None
    c = [F(0)] * k
    for r, pc in enumerate(piv):
        c[pc] = red[r][k]
    return tuple(c)


@st.composite
def rational_matrices(draw, max_rows=7, max_cols=7):
    """Empty, zero-row, tall and wide rational matrices, often rank-deficient."""
    nr = draw(st.integers(0, max_rows))
    nc = draw(st.integers(0, max_cols))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    # repeat combinations of earlier rows so dependencies are common
    for i in range(1, nr):
        if draw(st.booleans()):
            a, b = draw(rationals), draw(rationals)
            j = draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[i - 1])]
        if draw(st.integers(0, 5)) == 0:
            rows[i] = [F(0)] * nc
    return matrix(rows) if nr else ()


@given(rational_matrices())
@example(())
@example(matrix([[0, 0, 0], [0, 0, 0]]))
@example(matrix([[1], [2], [F(1, 3)], [0]]))
@example(matrix([[0, F(-2, 3), 5, 1, 0, 7]]))
@settings(max_examples=150, deadline=None)
def test_rref_and_rank_match_reference(m):
    assert rref(m) == reference_rref(m)
    assert rank(m) == reference_rank(m)


@given(rational_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_span_queries_match_reference(m, data):
    n = len(m[0]) if m else data.draw(st.integers(0, 5))
    inside = [F(0)] * n
    for row in m:
        c = data.draw(rationals)
        inside = [x + c * y for x, y in zip(inside, row)]
    outside = data.draw(st.lists(rationals, min_size=n, max_size=n))
    for v in (tuple(inside), tuple(outside), (F(0),) * n):
        assert in_span(m, v) == reference_in_span(m, v)
    assert extend_basis(m, n) == reference_extend_basis(m, n)


@given(rational_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_coords_in_basis_matches_reference(m, data):
    basis = tuple(r for r in m if any(r))
    if reference_rank(basis) != len(basis):
        basis = reference_rref(basis)[0][: reference_rank(basis)]
    n = len(m[0]) if m else 0
    coeffs = data.draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
    inside = tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), F(0)) for j in range(n))
    outside = tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    for v in (inside, outside):
        assert coords_in_basis(basis, v) == reference_coords(basis, v)
    if basis:
        assert coords_in_basis(basis, inside) == tuple(coeffs)


@given(rational_matrices(), st.lists(st.lists(rationals, min_size=7, max_size=7), max_size=4))
@settings(max_examples=150, deadline=None)
def test_echelon_matches_reference(m, probes):
    n = len(m[0]) if m else 0
    span = Echelon()
    added = []
    for i, row in enumerate(m):
        grew = reference_rank(tuple(added) + (row,)) > len(added)
        assert span.add(row) == grew
        if grew:
            added.append(row)
        assert span.rank == len(added) == reference_rank(m[: i + 1])
    for p in probes:
        v = tuple(p[:n])
        assert span.contains(v) == reference_in_span(tuple(added), v)
    for row in m:
        assert span.contains(row)
