"""Spectral machinery: decompositions, splittings, gaps."""

import random
from fractions import Fraction as F
from math import prod

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import liecert.spectral
from generators import inverse, mat_sub, matrix, root_polynomials
from liecert.algebra import StructureError, lie_algebra_from_matrices
from liecert.anosov import ActionSpec, check_anosov
from liecert.builders import sl_basis
from liecert.cartan import cartan_subspace, restricted_roots
from liecert.linalg import (
    _from_integer,
    _integer_form,
    identity,
    matmul,
    restrict_operator,
    row_basis,
    vector,
)
from liecert.poly import (
    RationalPolynomial as P,
    RootSignCount,
    count_real_roots_squarefree,
    root_bound,
    root_sign_counts,
    squarefree_part,
    squarefree_sign_counts,
)
from liecert.spectral import (
    _inverse_mod,
    apply_poly,
    char_poly,
    factor_with_multiplicity,
    invariant_splitting,
    jordan_chevalley,
    line_factors,
    operator_sign_counts,
    spectral_gap,
)
from test_acceptance import _sl_diagonal
from test_poly import ref_root_sign_counts, ref_shift, wide_polynomials


def test_char_poly_companion():
    # companion matrix of t^3 - 2t - 5
    m = matrix([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(m).coeffs == (F(-5), F(-2), F(0), F(1))


def test_hyperbolicity_flags():
    assert operator_sign_counts(matrix([[1, 0], [0, -1]])).n_zero_real == 0
    assert operator_sign_counts(matrix([[0, -1], [1, 0]])).n_zero_real == 2


def test_jordan_chevalley_jordan_block():
    m = matrix([[2, 1], [0, 2]])
    jc = jordan_chevalley(m)
    assert jc.semisimple == matrix([[2, 0], [0, 2]])
    assert jc.nilpotent == matrix([[0, 1], [0, 0]])
    assert jc.exact
    assert jc.hyperbolic == jc.semisimple  # real spectrum
    assert jc.elliptic == matrix([[0, 0], [0, 0]])


def test_jordan_chevalley_rotation():
    m = matrix([[0, -1], [1, 0]])
    jc = jordan_chevalley(m)
    assert jc.semisimple == m
    assert jc.exact
    assert jc.hyperbolic == matrix([[0, 0], [0, 0]])
    assert jc.elliptic == m


def test_jordan_chevalley_shifted_rotation():
    # eigenvalues 1 +- i: hyperbolic part is the identity
    m = matrix([[1, -1], [1, 1]])
    jc = jordan_chevalley(m)
    assert jc.exact
    assert jc.hyperbolic == identity(2)
    assert jc.elliptic == matrix([[0, -1], [1, 0]])


def test_jordan_chevalley_honest_inexact():
    # companion of t^4 - 2: real parts 0, +-2^(1/4); no rational refinement
    m = matrix([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    jc = jordan_chevalley(m)
    assert jc.semisimple == m
    assert jc.nilpotent == tuple(tuple(F(0) for _ in range(4)) for _ in range(4))
    assert not jc.exact
    assert jc.hyperbolic is jc.elliptic is None


def test_jordan_chevalley_mixed_block():
    # diag-ish with both a Jordan block and a rotation
    m = matrix([
        [3, 1, 0, 0],
        [0, 3, 0, 0],
        [0, 0, 0, -2],
        [0, 0, 2, 0],
    ])
    jc = jordan_chevalley(m)
    assert jc.exact
    assert jc.nilpotent == matrix([
        [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]
    ])
    assert jc.hyperbolic == matrix([
        [3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]
    ])


def _split(m):
    """invariant_splitting of m along the factors of its characteristic polynomial."""
    return invariant_splitting(m, line_factors(char_poly(m)))


def test_invariant_splitting_diagonal():
    with pytest.raises(StructureError, match="imaginary axis"):
        _split(matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 2]]))
    assert _split(matrix([[-1, 0], [0, 2]])) == (matrix([[1, 0]]), (), matrix([[0, 1]]))


def test_invariant_splitting_nilpotent_block():
    with pytest.raises(StructureError, match="imaginary axis"):
        _split(matrix([[0, 1], [0, 0]]))


def test_invariant_splitting_defective_stable():
    # stable Jordan block plus an unstable direction: the stable part is the x-y plane
    m = matrix([[-1, 1, 0], [0, -1, 0], [0, 0, 3]])
    assert _split(m) == (matrix([[1, 0, 0], [0, 1, 0]]), (), matrix([[0, 0, 1]]))


def test_invariant_splitting_irrational_axis():
    # companion of t^4 - 2: two of its roots, +-i 2^(1/4), are on the axis
    m = matrix([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(StructureError, match="imaginary axis"):
        _split(m)


@st.composite
def axis_free_matrices(draw):
    """Square integer matrices with no eigenvalue on the imaginary axis."""
    n = draw(st.integers(1, 5))
    m = matrix([[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)])
    assume(operator_sign_counts(m).n_zero_real == 0)
    return m


@given(axis_free_matrices())
@example(matrix([[1, -1], [1, 1]]))  # 1 +- i: one complex pair, both unstable
@example(matrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]]))  # a single unstable Jordan block
@example(matrix([[0, 1, 0], [2, 0, 0], [0, 0, -1]]))  # +-sqrt(2) mixed, -1 stable
@settings(max_examples=150, deadline=None)
def test_invariant_splitting_ranks_match_exact_counts(m):
    parts = _split(m)
    total = operator_sign_counts(m)
    neg = pos = 0
    for side, part in zip((-1, 0, 1), parts):
        counts = operator_sign_counts(restrict_operator(m, part))  # None if not invariant
        assert counts.n_zero_real == 0
        assert side != -1 or counts.n_pos == 0
        assert side != 1 or counts.n_neg == 0
        assert side != 0 or not part or (counts.n_neg and counts.n_pos)
        neg, pos = neg + counts.n_neg, pos + counts.n_pos
    assert (neg, pos) == (total.n_neg, total.n_pos)
    # the three parts are complementary
    assert len(row_basis(sum(parts, ()))) == len(m)


def test_spectral_gap_exact_dyadic():
    p = P([0, 1]) * P([-4, 0, 1])  # roots 0, +-2
    gap, exact = spectral_gap(p)
    assert gap == F(2) and exact


def test_spectral_gap_certified_bound():
    p = P([-1, -1, 1])  # golden ratio roots, gap = (sqrt5 - 1)/2
    gap, exact = spectral_gap(p)
    assert not exact
    g = (5 ** 0.5 - 1) / 2
    assert float(gap) <= g < float(gap) + 1e-6


def test_spectral_gap_all_axis():
    assert spectral_gap(P([1, 0, 1])) == (None, True)


def reference_spectral_gap(p, bits=30):
    """The former bisection: two full Fraction counts of shifted p at every step."""
    if p.degree < 1:
        return None, True
    base = ref_root_sign_counts(p)
    if base.n_neg + base.n_pos == 0:
        return None, True
    hi = F(1)
    bound = root_bound(p)
    while hi < bound:
        hi *= 2
    lo = F(0)
    for _ in range(bits):
        mid = (lo + hi) / 2
        empty, attained = reference_band(p, base, mid)
        if empty and attained:
            return mid, True
        if empty:
            lo = mid
        else:
            hi = mid
    return lo, False


def reference_band(p, base, delta):
    """(no root with 0 < |Re| < delta, some root with |Re| = delta), by two
    full Fraction counts of shifted p; base is p's unshifted count."""
    right = ref_root_sign_counts(ref_shift(p, delta))
    left = ref_root_sign_counts(ref_shift(p, -delta))
    inside = (base.n_pos - right.n_pos - right.n_zero_real) + (
        base.n_neg - left.n_neg - left.n_zero_real
    )
    return inside == 0, right.n_zero_real > 0 or left.n_zero_real > 0


def assert_gap_matches_reference(p):
    """spectral_gap(p) is the former bisection's, or an exact gap m that the
    bisection only approached from lo <= m: the reference's own counts at
    +-m find a root on |Re| = m and none with 0 < |Re| < m."""
    got, want = spectral_gap(p), reference_spectral_gap(p)
    if got == want:
        return
    (m, exact), (lo, lo_exact) = got, want
    assert exact and not lo_exact and lo <= m
    assert reference_band(p, ref_root_sign_counts(p), m) == (True, True)


def _power(f, k):
    p = P([1])
    for _ in range(k):
        p = p * f
    return p


@given(root_polynomials(max_factors=3, max_multiplicity=2))
@example(P([-2, 1]))  # the only root sits on the power-of-two bound
@example(P([2, 1]) * P([1, 0, 1]))
@example(_power(P([1, 1]), 12))
@example(P([-2, 0, 0, 0, 1]))
@example(P([25, 0, 6, 0, 1]) * P([0, 1]))
@example(P([-1, -1, 1]) * P([F(1, 3), 1]))
@example(P([34, -48, 28, -8, 1]))  # (t - 2)^4 + 4 (t - 2)^2 + 2: roots on Re = 2
@example(P([-1, 0, 1, 0, 1]))  # irreducible, two roots on the axis and two off it
@example(P([F(-1, 3), 1]) * P([-2, 0, 1]))  # linear times an irrational quadratic
@example(P([F(-1, 3), 1]) * P([2, 1]))  # roots 1/3 and -2: exact, not dyadic
@settings(max_examples=60, deadline=None)
def test_spectral_gap_matches_reference(p):
    assert_gap_matches_reference(p)


@given(wide_polynomials)
@example(P([F(-1, 10**9), 1]) * P([F(3, 7), 1]) * -1)
@settings(max_examples=25, deadline=None)
def test_spectral_gap_matches_reference_on_wide_coefficients(p):
    assert_gap_matches_reference(p)


def test_spectral_gap_counts_only_below_the_bound(monkeypatch):
    calls = []
    real = liecert.spectral.squarefree_sign_counts
    monkeypatch.setattr(
        liecert.spectral,
        "squarefree_sign_counts",
        lambda f, shift=0: calls.append((f, F(shift))) or real(f, shift),
    )
    # (t + 1)^12: the root -1 of its one factor answers every band, no count
    assert spectral_gap(_power(P([1, 1]), 12)) == (F(1), True)
    assert calls == []
    # (t^2 - 3)^6: Cauchy's bound 1459 starts the bisection at 2048, but the
    # squarefree part t^2 - 3 puts every root within 4; its roots +-sqrt(3)
    # share no real part, so the bands below 4 are counted on t^2 - 3 alone
    p = _power(P([-3, 0, 1]), 6)
    assert spectral_gap(p) == reference_spectral_gap(p)
    assert calls and all(f == P([-3, 0, 1]) for f, _ in calls)
    assert max(abs(shift) for _, shift in calls) == 4


def test_shifted_counts_move_the_line():
    p = P([-1, 0, 1])  # roots +-1
    c = root_sign_counts(ref_shift(p, F(2)))
    assert (c.n_neg, c.n_zero_real, c.n_pos) == (2, 0, 0)
    c = root_sign_counts(ref_shift(p, F(1)))
    assert (c.n_neg, c.n_zero_real, c.n_pos) == (1, 1, 0)


def test_restrict_and_quotient_block_triangular():
    m = matrix([
        [-1, 0, 7],
        [0, 2, 1],
        [0, 0, 3],
    ])
    basis = (vector([1, 0, 0]), vector([0, 1, 0]))
    restricted = restrict_operator(m, basis)
    assert restricted == matrix([[-1, 0], [0, 2]])
    quotient, rem = divmod(char_poly(m), char_poly(restricted))
    assert rem.is_zero and quotient.coeffs == (F(-3), F(1))
    assert operator_sign_counts(restricted) == RootSignCount(1, 0, 1)
    assert root_sign_counts(quotient) == RootSignCount(0, 0, 1)


def test_restrict_and_quotient_rejects_noninvariant():
    m = matrix([[0, -1], [1, 0]])
    assert restrict_operator(m, (vector([1, 0]),)) is None


def test_random_block_triangular_counts_add():
    rng = random.Random(11)
    for _ in range(25):
        n, k = 4, 2
        rows = []
        for i in range(n):
            rows.append([
                F(rng.randint(-3, 3)) if (j >= k or i < k) else F(0)
                for j in range(n)
            ])
        m = matrix(rows)
        basis = tuple(vector([1 if c == i else 0 for c in range(n)]) for i in range(k))
        restricted = restrict_operator(m, basis)
        quotient, rem = divmod(char_poly(m), char_poly(restricted))
        assert rem.is_zero
        both = operator_sign_counts(restricted) + root_sign_counts(quotient)
        assert both == operator_sign_counts(m)


def test_jordan_chevalley_random_consistency():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        jc = jordan_chevalley(m)
        assert mat_sub(m, jc.semisimple) == jc.nilpotent
        assert matmul(jc.semisimple, jc.nilpotent) == matmul(
            jc.nilpotent, jc.semisimple
        )
        if jc.exact:
            assert mat_sub(jc.semisimple, jc.hyperbolic) == jc.elliptic
            assert matmul(jc.hyperbolic, jc.elliptic) == matmul(
                jc.elliptic, jc.hyperbolic
            )
            hc = root_sign_counts(char_poly(jc.hyperbolic))
            assert hc.n_zero_real >= operator_sign_counts(m).n_zero_real


def former_hyperbolic_part(op, s):
    """The former refinement of jordan_chevalley: the sum over the factors of
    f of s P or m P, with P the CRT projector of each factor, given the
    semisimple part s; (exact, hyperbolic)."""
    n = len(op)
    f = squarefree_part(char_poly(op))
    parts = []
    for phi, _ in factor_with_multiplicity(f):
        d = phi.degree
        mean = -phi.coeffs[d - 1] / (d * phi.coeffs[d])
        if count_real_roots_squarefree(phi) == d:
            parts.append(("real", phi, mean))
        elif squarefree_sign_counts(phi, mean).n_zero_real == d:
            parts.append(("line", phi, mean))
        else:
            return False, None
    hyper = tuple(tuple(F(0) for _ in range(n)) for _ in range(n))
    for kind, phi, mean in parts:
        other = f // phi
        proj = apply_poly((_inverse_mod(other, phi) * other) % f, s)
        block = matmul(s, proj) if kind == "real" else tuple(
            tuple(mean * x for x in row) for row in proj
        )
        hyper = tuple(tuple(x + y for x, y in zip(r, b)) for r, b in zip(hyper, block))
    return True, hyper


def _companion(p):
    """The companion matrix of the monic integer polynomial p."""
    n = p.degree
    return tuple(
        tuple(F(int(i == j + 1)) - (p.coeffs[i] if j == n - 1 else 0) for j in range(n))
        for i in range(n)
    )


# blocks by spectrum: real, on one vertical line, and neither (t^4 - 2)
_REAL_BLOCKS = (P([-2, 1]), P([-2, 0, 1]), P([1, -3, 1]), P([3, 1]) * P([3, 1]))
_LINE_BLOCKS = (P([1, 0, 1]), P([2, -2, 1]), P([34, -48, 28, -8, 1]), P([1, 0, 1]) * P([1, 0, 1]))
_OTHER_BLOCKS = (P([-2, 0, 0, 0, 1]),)


@st.composite
def spectra_matrices(draw):
    """Block-diagonal companions of real, line and (rarely) other spectra,
    a Jordan coupling sometimes, conjugated by an integer unimodular matrix."""
    kinds = draw(st.sampled_from([_REAL_BLOCKS, _LINE_BLOCKS, _REAL_BLOCKS + _LINE_BLOCKS,
                                  _REAL_BLOCKS + _LINE_BLOCKS + _OTHER_BLOCKS]))
    blocks = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    blocks = [_companion(b) for b in blocks]
    while sum(len(b) for b in blocks) > 7:  # at most 7 x 7; one block has at most 4 rows
        blocks.pop()
    n = sum(len(b) for b in blocks)
    m = [[F(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at : at + len(b)] = row
        at += len(b)
    if draw(st.booleans()) and len(blocks) > 1 and len(blocks[0]) == len(blocks[1]):
        k = len(blocks[0])
        for i in range(k):  # a Jordan chain when the two blocks agree
            m[i][k + i] = F(1)
    u = identity(n)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i != j:
            u = tuple(
                tuple(x + c * u[j][col] if r == i else x for col, x in enumerate(row))
                for r, row in enumerate(u)
            )
    return matmul(matmul(u, tuple(map(tuple, m))), inverse(u))


@given(spectra_matrices())
@example(matrix([[0, -1], [1, 0]]))
@example(matrix([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, -3]]))
@settings(max_examples=40, deadline=None)
def test_jordan_chevalley_matches_projector_sum(m):
    jc = jordan_chevalley(m)
    exact, hyper = former_hyperbolic_part(m, jc.semisimple)
    assert jc.exact == exact
    assert jc.hyperbolic == hyper
    if exact:
        assert jc.elliptic == mat_sub(jc.semisimple, hyper)
    # the integer form of m gives the same parts, as integer matrices
    ijc = jordan_chevalley(_integer_form(m))
    assert ijc.exact == jc.exact
    for part, ipart in zip(
        (jc.semisimple, jc.nilpotent, jc.hyperbolic, jc.elliptic),
        (ijc.semisimple, ijc.nilpotent, ijc.hyperbolic, ijc.elliptic),
    ):
        assert (part is None and ipart is None) or _from_integer(*ipart) == part


def test_jordan_chevalley_builds_no_projector_on_real_spectra(monkeypatch):
    # Newton's step inverts modulo the characteristic polynomial; a CRT
    # projector is an inverse modulo an irreducible factor, and only those count
    calls = []
    real = liecert.spectral._inverse_mod

    def counted(a, m):
        if factor_with_multiplicity(m) == [(m, 1)]:
            calls.append(m)
        return real(a, m)

    monkeypatch.setattr(liecert.spectral, "_inverse_mod", counted)
    m = matrix([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
    assert jordan_chevalley(m).hyperbolic == matrix([[2, 0, 0], [0, 2, 0], [0, 0, -1]])
    assert calls == []
    jordan_chevalley(matrix([[1, -1, 0], [1, 1, 0], [0, 0, 3]]))
    assert calls == [P([2, -2, 1])]


def reference_factor_with_multiplicity(p):
    """The former bridge: a sympy expression built term by term, factored over QQ."""
    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i
        for i, c in enumerate(p.coeffs)
    )
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        cs = map(sympy.Rational, fac.all_coeffs()[::-1])
        q = P([F(int(c.p), int(c.q)) for c in cs])
        out.append((q.monic(), int(mult)))
    return out


def _product(factors):
    out = P([1])
    for f in factors:
        out = out * f
    return out


@st.composite
def split_polynomials(draw):
    """A rational constant times rational linear factors, each to a power,
    zero roots and non-monic roots such as 2/3 and -5/7 among them, and
    sometimes one of the irreducible t^2 + 1, t^2 - 2, t^4 - 2."""
    roots = st.one_of(
        st.sampled_from([F(0), F(1), F(-1), F(2, 3), F(-5, 7)]),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    lead = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
    factors = [P([lead])]
    for _ in range(draw(st.integers(0, 6))):
        factors += [P([-draw(roots), 1])] * draw(st.integers(1, 4))
    for q in draw(st.lists(st.sampled_from([(1, 0, 1), (-2, 0, 1), (-2, 0, 0, 0, 1)]), max_size=2)):
        factors.append(P(q))
    return _product(factors)


_big = st.integers(-(10**200), 10**200)


@st.composite
def quadratics(draw):
    """a t^2 + b t + c with a != 0: small, non-monic or 200-digit entries,
    and products (p t - q)(r t - s) whose discriminant is a square."""
    ints = draw(st.sampled_from([st.integers(-30, 30), _big]))
    if draw(st.booleans()):
        p, r = draw(ints.filter(bool)), draw(ints.filter(bool))
        q, s = draw(ints), draw(ints)
        return P([q * s, -(p * s + q * r), p * r]) * draw(
            st.fractions(max_denominator=9).filter(bool)
        )
    return P([draw(ints), draw(ints), draw(ints.filter(bool))])


@given(st.one_of(root_polynomials(), wide_polynomials, split_polynomials(), quadratics()))
@example(P([-2, 0, 0, 0, 1]) * P([F(-1, 3)]))
@example(P([1, 1]) * P([1, 1]) * P([2, 0, 1]) * P([F(5, 7), -1]))
@example(P([F(1, 10**9), 0, 1]) * P([F(-7, 10**9), 1]) * -1)
@example(P([3, 5, -7]))
@example(P([1, 2, 1]))
@example(P([10**200 + 1, 0, -3]))
@settings(max_examples=160, deadline=None)
def test_factor_bridge_matches_reference(p):
    assert factor_with_multiplicity(p) == reference_factor_with_multiplicity(p)


_PRIMORIAL_97 = prod(q for q in range(2, 100) if all(q % r for r in range(2, q)))


@pytest.mark.parametrize(
    "p",
    [
        _product(P([-k, 1]) for k in range(1, 21)),  # Wilkinson's polynomial
        _product(P([-k, 1]) for k in range(1, 11) for _ in range(3)),
        _product([P([-(2**3000 + 1), 1]), P([-(2**3000 + 3), 1]), P([2, 0, 1])]),
        _product([P([-(2**3000 + 1), 1]), P([1, 1]), P([F(-2, 3), 1])]),
        _product([P([0, 1])] * 4 + [P([-1, 1])] * 4 + [P([F(1, 2), 1])] * 5),
        P([5]),
        P([]),
        P([3, -2]),
        # the two roots are congruent modulo every prime below 100
        P([0, 1]) * P([-_PRIMORIAL_97, 1]),
        P([-1, 1]) * P([-1 - _PRIMORIAL_97, 1]),
        # no prime up to 13 may carry the lifting
        _product([P([-1, 30030]), P([1, 1]), P([-5, 1])]),
        # the 42 roots d_i - d_j, d = (1, 2, 4, ..., 64)
        _product(P([2**j - 2**i, 1]) for i in range(7) for j in range(7) if i != j),
    ],
    ids=["wilkinson-20", "three-copies", "beyond-float", "beyond-float-split",
         "multiple-roots", "constant", "zero", "linear-negative-lead",
         "congruent-below-100", "congruent-below-100-shifted", "lead-30030",
         "powers-of-two-differences"],
)
def test_factor_bridge_matches_reference_on_hard_inputs(p):
    assert factor_with_multiplicity(p) == reference_factor_with_multiplicity(p)


def test_split_polynomials_never_reach_sympy(monkeypatch):
    # rational restricted roots: every factor is peeled before sympy
    calls = []

    def refuse(self, *args, **kwargs):
        calls.append(self)
        raise AssertionError("split polynomial sent to sympy")

    monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
    g = lie_algebra_from_matrices(sl_basis(4))
    action = ActionSpec(g, cartan_subspace(g))
    assert restricted_roots(g, action.flow).exact
    assert check_anosov(action, _sl_diagonal([3, 1, -1, -3])).accepted
    assert not check_anosov(action, _sl_diagonal([1, 1, -2, 0])).accepted
    assert factor_with_multiplicity(_product([P([F(2, 3), 1])] * 3 + [P([0, 1])])) == [
        (P([0, 1]), 1),
        (P([F(2, 3), 1]), 3),
    ]
    assert calls == []


def test_only_an_irreducible_residual_reaches_sympy(monkeypatch):
    calls = []
    real = sympy.Poly.factor_list
    monkeypatch.setattr(
        sympy.Poly, "factor_list", lambda self: calls.append(self.all_coeffs()) or real(self)
    )
    p = _product([P([-2, 0, 0, 0, 1]), P([1, 1]), P([1, 1]), P([F(-5, 7), 1]), P([0, 1])])
    assert factor_with_multiplicity(p) == [
        (P([0, 1]), 1),
        (P([F(-5, 7), 1]), 1),
        (P([1, 1]), 2),
        (P([-2, 0, 0, 0, 1]), 1),
    ]
    assert calls == [[1, 0, 0, 0, -2]]


def test_irreducible_quadratic_residual_skips_sympy(monkeypatch):
    p = _product([P([1, 3, -5]), P([F(-5, 7), 1]), P([0, 1]), P([1, 1]), P([1, 1])])
    # every rational root is found, so a cubic residual is irreducible too
    cubic = _product([P([-2, 0, 0, 1]), P([F(3, 2), 1]), P([-4, 1]), P([-4, 1])])
    wants = [reference_factor_with_multiplicity(q) for q in (p, cubic)]
    calls = []
    monkeypatch.setattr(sympy.Poly, "factor_list", lambda self: calls.append(self))
    assert factor_with_multiplicity(P([1, 1, 1]) * -3) == [(P([1, 1, 1]), 1)]
    assert factor_with_multiplicity(p) == wants[0]
    assert factor_with_multiplicity(cubic) == wants[1]
    assert (P([-2, 0, 0, 1]), 1) in wants[1]
    assert calls == []


def test_sl5_chamber_polynomial_skips_sympy(monkeypatch):
    # p_q of the first sl(5) chamber sample, diag(1, -17/8, -1/4, 17/32, 27/32):
    # its 20 roots d_i - d_j are rationals over 32, and its primitive integer
    # form has so large a leading coefficient that the closest fraction of
    # that size to a float root is the float itself
    d = [F(1), F(-17, 8), F(-1, 4), F(17, 32), F(27, 32)]
    p = _product(P([d[j] - d[i], 1]) for i in range(5) for j in range(5) if i != j)
    want = reference_factor_with_multiplicity(p)
    calls = []
    real = sympy.Poly.factor_list
    monkeypatch.setattr(
        sympy.Poly, "factor_list", lambda self: calls.append(self.all_coeffs()) or real(self)
    )
    assert factor_with_multiplicity(p) == want
    assert calls == []
