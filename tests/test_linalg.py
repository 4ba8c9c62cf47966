"""Exact linear algebra: determinism, correctness against brute force."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from generators import inverse, matrix, matvec
from liecert.linalg import (
    Coordinates,
    Echelon,
    IntMatrix,
    _from_integer,
    _integer_form,
    charpoly,
    combine,
    extend_basis,
    frac,
    generalized_kernel,
    identity,
    in_span,
    invariant_under,
    mat_pow,
    mat_poly,
    matmul,
    nullspace,
    restrict_operator,
    rref,
    row_basis,
    solve,
    vec_add,
    vector,
)
from liecert.poly import RationalPolynomial
from liecert.spectral import apply_poly, char_poly, operator_sign_counts

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def sq(rows):
    return matrix(rows)


def trace(a):
    return sum((a[i][i] for i in range(len(a))), F(0))


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
    assert Echelon(m).rank == 2
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
    # det(A) = (-1)^n det(tI - A) at t = 0
    assert charpoly(m)[0] * (-1) ** n == total


def test_charpoly_matches_trace_and_det():
    m = sq([[1, 2], [3, 4]])
    cp = charpoly(m)  # ascending, det(tI - A)
    assert cp[-1] == 1
    assert cp[1] == -trace(m)
    assert cp[0] == 1 * 4 - 2 * 3


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
    s = row_basis(a + b)
    assert len(row_basis(s)) == 3


def test_coords_in_basis():
    basis = (vector([1, 1]), vector([0, 1]))
    v = vector([2, 3])
    assert Coordinates(basis).map((v,)) == ((F(2), F(1)),)


def test_extend_basis_deterministic():
    part = (vector([1, 1, 0]),)
    idx = extend_basis(part, 3)
    # e0 enlarges the span; afterwards e1 = (1,1,0) - (1,0,0) is inside it
    assert idx == (0, 2)


def inertia(m):
    """(n_pos, n_neg, n_zero) of a symmetric matrix, read off the sign counts
    of its characteristic polynomial, as `cartan.ellipticity_proxy` does."""
    c = operator_sign_counts(m)
    return c.n_pos, c.n_neg, c.n_zero_real


def test_symmetric_inertia_diagonal():
    m = sq([[2, 0, 0], [0, -3, 0], [0, 0, 0]])
    assert inertia(m) == (1, 1, 1)


def test_symmetric_inertia_zero_diagonal_pivot():
    # hyperbolic plane: eigenvalues +-1
    m = sq([[0, 1], [1, 0]])
    assert inertia(m) == (1, 1, 0)


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
    assert Echelon(m).rank + len(nullspace(m)) == 3


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
    assert row_basis(nonzero_rows) == row_basis(nonzero_doubled)


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
    assert Echelon(m).rank == reference_rank(m)


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
    coords = Coordinates(basis)
    for v in (inside, outside):
        assert coords.map((v,)) == (reference_coords(basis, v),)
    if basis:
        assert coords.map((inside,)) == (tuple(coeffs),)


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


@given(rational_matrices(), st.data())
@example(matrix([[0, 2, 4], [0, 1, 2], [3, 0, 1]]), None)
@settings(max_examples=150, deadline=None)
def test_echelon_reduced_is_the_rref_in_any_row_order(m, data):
    red, piv = reference_rref(m)
    expected = (red[: len(piv)], piv)
    orders = [list(m), list(reversed(m))]
    if data is not None:
        orders += [data.draw(st.permutations(list(m))) for _ in range(3)]
    for rows in orders:
        span = Echelon(rows)
        ints, pivots = span.reduced()
        assert all(gcd(*row) == 1 for row in ints)
        emitted = tuple(tuple(F(a, row[c]) for a in row) for row, c in zip(ints, pivots))
        assert (emitted, tuple(pivots)) == expected
        # the span still answers after it has been reduced
        assert span.rank == len(piv) and all(span.contains(row) for row in m)


def reference_inertia(m):
    """Sylvester inertia (n_pos, n_neg, n_zero) of a symmetric matrix.

    Congruence diagonalization over Q (the former `linalg.symmetric_inertia`).
    The off-diagonal repair step (adding row j to row i) preserves the
    congruence class.
    """
    n = len(m)
    a = [list(r) for r in m]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            jd = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if jd is not None:
                # Swap rows and columns k <-> jd (a congruence).
                a[k], a[jd] = a[jd], a[k]
                for r in range(n):
                    a[r][k], a[r][jd] = a[r][jd], a[r][k]
            else:
                jo = next((j for j in range(k + 1, n) if a[j][k] != 0), None)
                if jo is None:
                    zero += 1
                    continue
                # Trailing diagonal is all zero, so the new pivot is
                # 2 a[jo][k] != 0 after adding row and column jo.
                for c in range(n):
                    a[k][c] += a[jo][c]
                for r in range(n):
                    a[r][k] += a[r][jo]
        p = a[k][k]
        assert p != 0, "pivot repair failed"
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if a[r][k] != 0:
                f = a[r][k] / p
                for c in range(n):
                    a[r][c] -= f * a[k][c]
        for c in range(k + 1, n):
            if a[k][c] != 0:
                f = a[k][c] / p
                for r in range(n):
                    a[r][c] -= f * a[r][k]
    return pos, neg, zero


@st.composite
def symmetric_matrices(draw, max_n=6):
    """Symmetric rational matrices, some with a zero diagonal, some singular."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["dense", "zero-diagonal", "singular"]))
    entry = st.one_of(st.just(F(0)), rationals)
    if kind == "singular" and n:
        # c^T diag(d) c has rank at most k < n
        k = draw(st.integers(0, n - 1))
        c = [[draw(entry) for _ in range(n)] for _ in range(k)]
        d = [draw(entry) for _ in range(k)]
        rows = [
            [sum((d[r] * c[r][i] * c[r][j] for r in range(k)), F(0)) for j in range(n)]
            for i in range(n)
        ]
    else:
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(entry)
        if kind == "zero-diagonal":
            for i in range(n):
                rows[i][i] = F(0)
    return matrix(rows) if n else ()


@given(symmetric_matrices())
@example(sq([[2, 0, 0], [0, -3, 0], [0, 0, 0]]))
@example(sq([[0, 1], [1, 0]]))
@example(())
@example(sq([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
@settings(max_examples=150, deadline=None)
def test_charpoly_sign_counts_are_the_inertia(m):
    assert inertia(m) == reference_inertia(m)


# -- the integer product kernel against the former Fraction routines ---------------


def reference_matmul(a, b):
    """Dense Fraction product (the former matmul)."""
    if not a or not b:
        return tuple((F(0),) * (len(b[0]) if b else 0) for _ in a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_mat_pow(a, k):
    out = identity(len(a))
    base = a
    while k > 0:
        if k & 1:
            out = reference_matmul(out, base)
        k >>= 1
        if k:
            base = reference_matmul(base, base)
    return out


def reference_charpoly(a):
    """Faddeev-LeVerrier in Fractions (the former charpoly)."""
    n = len(a)
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    if n == 0:
        return tuple(coeffs)
    b = a
    coeffs[n - 1] = -trace(b)
    for k in range(2, n + 1):
        m = tuple(
            tuple(b[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n))
            for i in range(n)
        )
        b = reference_matmul(a, m)
        coeffs[n - k] = -trace(b) / k
    return tuple(coeffs)


def reference_apply_poly(coeffs, a):
    """sum c_i a^i with one product per coefficient (the former apply_poly)."""
    n = len(a)
    acc = [[F(0)] * n for _ in range(n)]
    power = identity(n)
    for c in coeffs:
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * power[i][j]
        power = reference_matmul(power, a)
    return tuple(tuple(row) for row in acc)


def reference_nullspace(m):
    nc = len(m[0]) if m else 0
    red, piv = reference_rref(m)
    basis = []
    for fc in range(nc):
        if fc not in piv:
            v = [F(0)] * nc
            v[fc] = F(1)
            for r, pc in enumerate(piv):
                v[pc] = -red[r][fc]
            basis.append(tuple(v))
    return tuple(basis)


def reference_generalized_kernel(b):
    red, piv = reference_rref(reference_nullspace(reference_mat_pow(b, len(b))))
    return red[: len(piv)]


def jordan_block(n, value=0):
    return matrix([[value if i == j else int(j == i + 1) for j in range(n)] for i in range(n)])


def all_fractions(m):
    return all(type(x) is F for row in m for x in row)


# large denominators, so the common denominator of a matrix is far from 1
wide_rationals = st.one_of(
    st.just(F(0)),
    rationals,
    st.fractions(min_value=-5, max_value=5, max_denominator=10**9),
)


@st.composite
def square_matrices(draw, max_n=5):
    """Dense, nilpotent and singular square matrices, conjugated to hide it."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["dense", "nilpotent", "singular"]))
    rows = [[draw(wide_rationals) for _ in range(n)] for _ in range(n)]
    if kind != "dense":
        for i in range(n):
            for j in range(i + 1):
                if j < i or kind == "nilpotent" or draw(st.booleans()):
                    rows[i][j] = F(0)
    if n > 1 and draw(st.booleans()):
        # conjugate by a unitriangular s: b -> s b s^-1
        s = [[F(int(i == j)) if j >= i else draw(rationals) for j in range(n)] for i in range(n)]
        m = matrix(rows)
        rows = reference_matmul(reference_matmul(matrix(s), m), inverse(matrix(s)))
    return matrix(rows) if n else ()


EXAMPLE_SQUARES = [
    (),
    matrix([[F(3, 7)]]),
    matrix([[0]]),
    matrix([[0] * 3] * 3),
    jordan_block(1),
    jordan_block(4),
    jordan_block(6),
    jordan_block(3, F(-2, 5)),
    matrix([[F(1, 10**9), F(-7, 3)], [F(5, 999983), F(2, 10**9 + 7)]]),
]


def with_examples(*rest):
    """Add each of EXAMPLE_SQUARES as an explicit example, followed by `rest`."""

    def add(test):
        for m in EXAMPLE_SQUARES:
            test = example(m, *rest)(test)
        return test

    return add


@st.composite
def product_pairs(draw, max_n=4):
    """(a, b) with a r x k and b k x c, any of r, k, c possibly zero."""
    r, k, c = (draw(st.integers(0, max_n)) for _ in range(3))

    def block(rows, cols):
        return matrix([[draw(wide_rationals) for _ in range(cols)] for _ in range(rows)]) if rows else ()

    return block(r, k), block(k, c)


@given(product_pairs())
@example(((), ()))
@example((matrix([[0, 0], [0, 0]]), matrix([[0, 0], [0, 0]])))
@example((matrix([[F(1, 10**9)]]), matrix([[F(-10**9, 7)]])))
@settings(max_examples=150, deadline=None)
def test_matmul_matches_reference(pair):
    a, b = pair
    out = matmul(a, b)
    assert out == reference_matmul(a, b)
    assert all_fractions(out)


@with_examples()
@given(square_matrices())
@settings(max_examples=100, deadline=None)
def test_mat_pow_matches_reference(m):
    for k in range(7):
        out = mat_pow(m, k)
        assert out == reference_mat_pow(m, k)
        assert all_fractions(out)


@with_examples()
@given(square_matrices())
@settings(max_examples=100, deadline=None)
def test_charpoly_matches_reference(m):
    cp = charpoly(m)
    assert cp == reference_charpoly(m)
    assert all(type(x) is F for x in cp)


@st.composite
def permuted_block_triangular(draw, max_blocks=4):
    """Block upper-triangular with dense diagonal blocks of size 1-3 and
    rational entries, conjugated by a random permutation: what the
    linear-factor peel of `charpoly` takes apart, down to its dense blocks."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=max_blocks))
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = [[draw(wide_rationals) if block[i] <= block[j] else F(0) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return matrix(out) if n else ()


@given(permuted_block_triangular())
@example(matrix([[1, 0, 0], [2, 3, 0], [4, 5, 6]]))
@example(matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example(matrix([[0, 1, 7], [1, 0, 0], [0, 0, F(2, 3)]]))
@settings(max_examples=150, deadline=None)
def test_charpoly_of_a_permuted_block_triangular_matrix_matches_reference(m):
    assert charpoly(m) == reference_charpoly(m)


def _charpoly_products(monkeypatch, m):
    """The shapes (rows of a, rows of b) of every `_int_matmul` in charpoly(m)."""
    from liecert import linalg

    calls = []
    real = linalg._int_matmul

    def counted(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(linalg, "_int_matmul", counted)
    assert charpoly(m) == reference_charpoly(m)
    return calls


def test_charpoly_peels_triangular_matrices_without_products(monkeypatch):
    diagonal = matrix([[F(i, 3) if i == j else 0 for j in range(6)] for i in range(6)])
    assert _charpoly_products(monkeypatch, diagonal) == []
    # strictly lower triangular, conjugated by the permutation i -> 3i mod 7
    perm = [3 * i % 7 for i in range(7)]
    rows = [[0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i):
            rows[perm[i]][perm[j]] = F(i - 2 * j, j + 1)
    assert _charpoly_products(monkeypatch, matrix(rows)) == []


def test_charpoly_runs_faddeev_leverrier_on_the_core_only(monkeypatch):
    # indices 1 and 3 form the dense 2 x 2 core [[1, 2], [3, 4]]; 4 peels
    # off by its row, 0 by its column, and 2 by its column once 0 has gone
    m = matrix(
        [
            [5, 7, 6, 0, 1],
            [0, 1, 0, 2, 1],
            [0, 0, -1, 1, 1],
            [0, 3, 0, 4, 0],
            [0, 0, 0, 0, F(1, 2)],
        ]
    )
    assert _charpoly_products(monkeypatch, m) == [(2, 2)]


@with_examples([F(1, 2), F(-3, 10**9), F(7, 5)])
@given(square_matrices(), st.lists(wide_rationals, max_size=6))
@example((), [])
@example(matrix([[F(1, 3), 2], [0, F(-5, 7)]]), [])
@example(matrix([[F(1, 3), 2], [0, F(-5, 7)]]), [F(-9, 10**9)])
@example(jordan_block(3), [F(4), F(0), F(0)])
@settings(max_examples=100, deadline=None)
def test_apply_poly_matches_reference(m, coeffs):
    p = RationalPolynomial(coeffs)
    out = apply_poly(p, m)
    assert out == reference_apply_poly(p.coeffs, m)
    assert all_fractions(out)


@with_examples()
@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_generalized_kernel_matches_reference(m):
    assert generalized_kernel(m) == reference_generalized_kernel(m)


@pytest.mark.parametrize("n", range(1, 8))
def test_generalized_kernel_of_a_jordan_block_needs_its_full_fitting_index(n):
    j = jordan_block(n)
    assert Echelon(mat_pow(j, n - 1)).rank == 1
    assert generalized_kernel(j) == identity(n)
    # an invertible block beside it adds nothing to the kernel
    big = matrix(
        [[j[i][k] if i < n and k < n else int(i == k) for k in range(n + 2)] for i in range(n + 2)]
    )
    assert generalized_kernel(big) == identity(n + 2)[:n]


def test_charpoly_self_check_raises_algebra_error(monkeypatch):
    from liecert import linalg
    from liecert.algebra import AlgebraError

    def broken(a, b):
        out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        out[0][0] += 1
        return out

    monkeypatch.setattr(linalg, "_int_matmul", broken)
    with pytest.raises(AlgebraError):
        # no index peels off, so the product runs
        charpoly(matrix([[0, 1], [1, 0]]))


def reference_combine(coeffs, rows, n):
    """The former fold: zero_vector(n), then vec_add(v, vec_scale(c, row)) per row."""
    v = (F(0),) * n
    for c, row in zip(coeffs, rows):
        v = vec_add(v, tuple(c * x for x in row))
    return v


@st.composite
def combinations(draw, max_rows=5, max_n=6):
    """(coefficient rows, basis, n): r x k coefficients over a k x n basis.

    Coefficients are rationals, or plain ints as in the integer grid search.
    """
    r, k, n = draw(st.integers(0, 4)), draw(st.integers(0, max_rows)), draw(st.integers(0, max_n))
    coeff = draw(st.sampled_from([wide_rationals, st.integers(-7, 7)]))
    coeff_rows = tuple(tuple(draw(coeff) for _ in range(k)) for _ in range(r))
    basis = tuple(tuple(draw(wide_rationals) for _ in range(n)) for _ in range(k))
    return coeff_rows, basis, n


@given(combinations())
@example((((), ()), (), 4))
@example((((2, -1),), (vector([F(1, 3), 0]), vector([F(2, 3), 0])), 2))
@settings(max_examples=150, deadline=None)
def test_combine_matches_reference_fold(case):
    coeff_rows, basis, n = case
    for coeffs in coeff_rows:
        out = combine(coeffs, basis, n)
        assert out == reference_combine(coeffs, basis, n)
        assert len(out) == n and all(type(x) is F for x in out)
    # a whole coefficient matrix folds as one product (rows of length n
    # need at least one basis row to fix n)
    if basis:
        out = matmul(coeff_rows, basis)
        assert out == tuple(reference_combine(c, basis, n) for c in coeff_rows)
        assert all_fractions(out)


# -- the integer matrix value against the Fraction matrix ----------------------


def fraction_view(x):
    """The Fraction matrix of an IntMatrix; anything else as it is."""
    return _from_integer(*x) if isinstance(x, IntMatrix) else x


def invariant_and_other_bases(m):
    """(), ker m^n, the Krylov space of e_0 (all invariant) and span(e_0)."""
    n = len(m)
    if not n:
        return [()]
    e0 = tuple(F(int(i == 0)) for i in range(n))
    krylov = [e0]
    while len(krylov) < n:
        krylov.append(matvec(m, krylov[-1]))
    return [(), generalized_kernel(m), row_basis(tuple(krylov)), (e0,)]


@given(square_matrices(), st.lists(wide_rationals, max_size=4))
@with_examples([F(1, 2), F(-3), F(0), F(2, 5)])
@example(matrix([[F(1, 3), 0], [F(2, 7), F(-5, 4)]]), [])
@example(matrix([[F(1, 3), 0], [F(2, 7), F(-5, 4)]]), [F(7, 3)])
@settings(max_examples=150, deadline=None)
def test_kernel_entry_points_agree_on_an_int_matrix(m, coeffs):
    im = _integer_form(m)
    assert isinstance(im, IntMatrix) and _integer_form(im) is im
    assert fraction_view(im) == m
    assert charpoly(im) == charpoly(m)
    p = mat_poly(coeffs, im)
    assert isinstance(p, IntMatrix) and fraction_view(p) == mat_poly(coeffs, m)
    assert generalized_kernel(im) == generalized_kernel(m)
    assert all(mat_pow(im, k) == mat_pow(m, k) for k in range(3))
    for basis in invariant_and_other_bases(m):
        r = restrict_operator(im, basis)
        assert r is None or isinstance(r, IntMatrix)
        assert fraction_view(r) == restrict_operator(m, basis)
        assert invariant_under([im], basis) == invariant_under([m], basis)


@with_examples()
@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_quotient_charpoly_is_the_division_by_the_restricted_one(m):
    """m is block-triangular along an invariant span W, so charpoly(m) is
    charpoly(m|W) times the charpoly of the operator m induces on the
    quotient; that operator comes from an independent elimination."""
    from test_sparse_kernel import reference_quotient_operator  # it imports this module

    for basis in invariant_and_other_bases(m):
        restricted = restrict_operator(m, basis)
        if restricted is None:
            continue
        quotient, _ = reference_quotient_operator(m, basis)
        p_q, rem = divmod(char_poly(m), char_poly(restricted))
        assert rem.is_zero
        assert p_q == char_poly(quotient)
