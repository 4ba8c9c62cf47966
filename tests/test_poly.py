"""Root counting by half-plane, checked against numpy and hand-built products."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import liecert.poly
from generators import root_polynomials
from liecert.poly import (
    RationalPolynomial as P,
    RootSignCount,
    _hurwitz_index,
    axis_parts,
    axis_root_count_squarefree,
    cauchy_index,
    count_real_roots,
    count_real_roots_in_interval,
    count_real_roots_squarefree,
    isolate_real_roots,
    poly_gcd,
    power_of_two_root_bound,
    root_sign_counts,
    squarefree_decomposition,
    squarefree_part,
    squarefree_sign_counts,
)


def counts(p):
    r = root_sign_counts(p)
    return (r.n_neg, r.n_zero_real, r.n_pos)


# -- frozen values -------------------------------------------------------


def test_two_real_roots():
    assert counts(P([-1, 0, 1])) == (1, 0, 1)


def test_pure_imaginary_pair():
    assert counts(P([1, 0, 1])) == (0, 2, 0)


def test_plastic_cubic():
    # one real root near 1.3247, complex pair in the left half plane
    assert counts(P([-1, -1, 0, 1])) == (2, 0, 1)


def test_fourth_roots_of_two():
    # axis roots are irrational here; no rational axis factor exists
    assert counts(P([-2, 0, 0, 0, 1])) == (1, 2, 1)


def test_zero_root_multiplicity():
    assert counts(P([0, 1])) == (0, 1, 0)
    assert counts(P([0, 0, 0, 1])) == (0, 3, 0)


def test_mixed_product_with_multiplicities():
    p = P([1])
    for f, k in [(P([-1, 1]), 3), (P([2, 1]), 2), (P([0, 1]), 1)]:
        for _ in range(k):
            p = p * f
    assert counts(p) == (2, 1, 3)


def test_repeated_axis_pair_with_offaxis_root():
    p = P([1, 0, 1]) * P([1, 0, 1]) * P([-3, 1])
    assert counts(p) == (0, 4, 1)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        root_sign_counts(P([]))


def test_constant_has_no_roots():
    assert counts(P([5])) == (0, 0, 0)


# -- structural helpers --------------------------------------------------


def test_axis_parts_signs():
    # p(t) = t^4 + t^3 + t^2 + t + 1 at t = iy
    re, im = axis_parts(P([1, 1, 1, 1, 1]))
    assert re.coeffs == (F(1), F(0), F(-1), F(0), F(1))
    assert im.coeffs == (F(0), F(1), F(0), F(-1))


def test_squarefree_decomposition_structure():
    p = P([0, 0, 1]) * P([-1, 1]) * P([-1, 1]) * P([-1, 1])
    parts = squarefree_decomposition(p)
    assert [(tuple(f.coeffs), k) for f, k in parts] == [
        ((F(0), F(1)), 2),
        ((F(-1), F(1)), 3),
    ]


def test_gcd_monic():
    a = P([-1, 0, 1]) * P([2, 1]) * 3
    b = P([-1, 0, 1]) * P([5, 1]) * 7
    g = poly_gcd(a, b)
    assert g == P([-1, 0, 1])


def test_real_root_counts_with_multiplicity():
    p = P([-1, 1]) * P([-1, 1]) * P([4, 0, 1])
    assert count_real_roots(p) == 2


def test_interval_count_excludes_endpoints():
    f = P([0, -2, 0, 1])  # roots -sqrt2, 0, sqrt2
    assert count_real_roots_in_interval(f, F(0), F(2)) == 1
    assert count_real_roots_in_interval(f, F(-2), F(2)) == 3


def test_isolation_separates_and_covers():
    f = P([0, -2, 0, 1])
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3
    assert ivs[1] == (F(0), F(0))
    for a, b in ivs:
        if a == b:
            assert f(a) == 0
        else:
            assert f(a) * f(b) < 0


def test_cauchy_index_simple_pole():
    # 1/t jumps -oo -> +oo at 0: index +1
    assert cauchy_index(P([0, 1]), P([1])) == 1
    # -1/t: index -1
    assert cauchy_index(P([0, 1]), P([-1])) == -1


# -- randomized cross-checks --------------------------------------------


def _np_counts(p, margin=1e-7):
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    if any(0 < abs(z.real) < margin for z in roots):
        return None  # too close to classify in floating point
    nn = sum(1 for z in roots if z.real < -margin)
    npos = sum(1 for z in roots if z.real > margin)
    return (nn, len(roots) - nn - npos, npos)


def test_random_polynomials_against_numpy():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(300):
        deg = rng.randint(1, 9)
        cs = [F(rng.randint(-9, 9)) for _ in range(deg)]
        cs.append(F(rng.choice([1, 2, -1, 3])))
        p = P(cs)
        if p.degree < 1:
            continue
        expected = _np_counts(p)
        if expected is None:
            continue
        assert counts(p) == expected
        checked += 1
    assert checked > 200


def test_random_constructed_products():
    rng = random.Random(99)
    for _ in range(120):
        p = P([F(1)])
        expect = [0, 0, 0]
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            k = rng.randint(1, 3)
            if kind < 0.5:
                a = F(rng.randint(-4, 4), rng.randint(1, 3))
                f = P([-a, F(1)])
                slot = 0 if a < 0 else (1 if a == 0 else 2)
                expect[slot] += k
            else:
                a = F(rng.randint(-3, 3), rng.randint(1, 2))
                b = F(rng.randint(1, 6))
                f = P([a * a + b, -2 * a, F(1)])
                slot = 0 if a < 0 else (1 if a == 0 else 2)
                expect[slot] += 2 * k
            for _ in range(k):
                p = p * f
        assert counts(p) == tuple(expect)


coef = st.fractions(min_value=-12, max_value=12, max_denominator=4)


@given(st.lists(coef, min_size=2, max_size=7))
@settings(max_examples=80, deadline=None)
def test_total_count_is_degree(cs):
    p = P(cs)
    if p.degree < 1:
        return
    r = root_sign_counts(p)
    assert r.total == p.degree


@given(st.lists(coef, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_reflection_swaps_halves(cs):
    p = P(cs)
    if p.degree < 1:
        return
    r = root_sign_counts(p)
    q = root_sign_counts(p.reflect())
    assert (r.n_neg, r.n_zero_real, r.n_pos) == (q.n_pos, q.n_zero_real, q.n_neg)


@given(st.lists(coef, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_squarefree_part_has_same_distinct_roots(cs):
    p = P(cs)
    if p.degree < 1:
        return
    sf = squarefree_part(p)
    total = sum(
        count_real_roots_squarefree(f) for f, _ in squarefree_decomposition(p)
    )
    assert count_real_roots_squarefree(sf) == total


# -- axis roots without shifts, checked against the former delta loop ---------


def reference_counts_squarefree(f):
    """The former count: shrink dyadic shifts f(t +- delta) around the axis."""
    n = f.degree
    if n <= 0:
        return RootSignCount(0, 0, 0)
    n0 = axis_root_count_squarefree(f)
    if n0 == n:
        return RootSignCount(0, n, 0)
    if n0 == 0:
        d = _hurwitz_index(f)
        assert (n + d) % 2 == 0
        return RootSignCount((n + d) // 2, 0, n - (n + d) // 2)
    off = n - n0
    delta = F(1)
    while True:
        delta /= 2
        fp = f.shift(delta)
        fm = f.shift(-delta)
        if axis_root_count_squarefree(fp) or axis_root_count_squarefree(fm):
            continue
        n_right = (n - _hurwitz_index(fp)) // 2
        n_left = (n + _hurwitz_index(fm)) // 2
        if n_right + n_left == off:
            return RootSignCount(n_left, n0, n_right)


def reference_root_sign_counts(p):
    total = RootSignCount(0, 0, 0)
    for f, k in squarefree_decomposition(p):
        total = total + reference_counts_squarefree(f).scaled(k)
    return total


@given(root_polynomials())
@example(P([-2, 0, 0, 0, 1]))  # axis roots +-i 2^(1/4), real +-2^(1/4)
@example(P([25, 0, 6, 0, 1]))  # +-1 +- 2i: pairs lambda, -conj(lambda)
@example(P([0, 1]) * P([1, 0, 1]) * P([-1, 1]) * P([5, -2, 1]))
@example(P([1, 0, 1]) * P([F(1, 1024), 0, 1]) * P([F(-1, 4), 1]))
@settings(max_examples=150, deadline=None)
def test_sign_counts_match_delta_loop(p):
    f = squarefree_part(p)
    assert squarefree_sign_counts(f) == reference_counts_squarefree(f)
    assert root_sign_counts(p) == reference_root_sign_counts(p)


@pytest.mark.parametrize(
    "f",
    [P([-1, 0, 1]), P([0, 1]) * P([1, 0, 1]) * P([-2, 1]), P([-2, 0, 0, 0, 1])],
    ids=["no-axis-roots", "axis-roots", "irrational-axis-roots"],
)
def test_parity_failure_is_raised(monkeypatch, f):
    monkeypatch.setattr(liecert.poly, "_hurwitz_index", lambda g: _hurwitz_index(g) + 1)
    with pytest.raises(AssertionError, match="parity"):
        squarefree_sign_counts(f)


@given(root_polynomials(max_multiplicity=2))
@example(P([-2, 1]))  # Fujiwara is exact here: the bound is the root
@example(P([0, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_power_of_two_root_bound(p):
    b = power_of_two_root_bound(p)
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    top = max((abs(z) for z in roots), default=0.0)
    if top == 0:
        assert b == 0
        return
    m = b.numerator * b.denominator
    assert 1 in (b.numerator, b.denominator) and m & (m - 1) == 0  # a power of two
    assert top <= float(b) * (1 + 1e-9)
    # at least Fujiwara's bound 2 max(terms) and less than twice it
    n, lead = p.degree, abs(float(p.leading))
    terms = [(abs(float(p.coeffs[n - j])) / lead) ** (1 / j) for j in range(1, n)]
    terms.append((abs(float(p.coeffs[0])) / (2 * lead)) ** (1 / n))
    assert 2 * max(terms) * (1 - 1e-9) <= float(b) < 4 * max(terms) * (1 + 1e-9)


def test_power_of_two_root_bound_values():
    assert power_of_two_root_bound(P([-2, 1])) == 2
    assert power_of_two_root_bound(P([1, 1])) == 1
    assert power_of_two_root_bound(P([F(-1, 8), 1])) == F(1, 8)
    assert power_of_two_root_bound(P([0, 0, 0, 1])) == 0
    p = P([1])
    for _ in range(12):
        p = p * P([1, 1])
    # (t + 1)^12: Cauchy's bound is 925 and Fujiwara's 24; its squarefree part gives 1
    assert power_of_two_root_bound(p) == 32
    assert power_of_two_root_bound(squarefree_part(p)) == 1
