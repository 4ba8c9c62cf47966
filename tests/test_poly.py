"""Root counting by half-plane, checked against numpy and hand-built products.

The integer kernel of liecert.poly is also checked for exact equality
against the former Fraction routines, kept below as references.
"""

import random
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import liecert.poly
from generators import _dyadic, root_polynomials
from liecert.linalg import integer_row
from liecert.poly import (
    RationalPolynomial as P,
    RootSignCount,
    _axis_chain,
    _axis_pair,
    _cauchy_index,
    _scaled_shift,
    _gcd,
    _monic,
    _yun,
    count_real_roots_squarefree,
    power_of_two_root_bound,
    root_sign_counts,
    squarefree_part,
    squarefree_sign_counts,
)


def yun_monic(p):
    """[(f_k, k)] from the integer Yun's algorithm, each f_k monic."""
    if p.degree <= 0:
        return []
    return [(_monic(f), k) for f, k in _yun(integer_row(p.coeffs))]


def cauchy(f, g):
    """Cauchy index of g/f through the integer chain of liecert.poly."""
    return _cauchy_index(integer_row(f.coeffs), integer_row(g.coeffs))


def monic_gcd(a, b):
    """Monic gcd over Q through the integer chain of liecert.poly."""
    return _monic(_gcd(integer_row(a.coeffs), integer_row(b.coeffs)))


def axis_gcd(p):
    """gcd of the real and imaginary parts of p(iy): the last member of its axis chain."""
    return _monic(_axis_chain(integer_row(p.coeffs))[-1])


def skew_axis_index(monkeypatch):
    """Make the Cauchy index of every axis chain one too large."""
    axis_chains = []
    axis_chain, index = liecert.poly._axis_chain, liecert.poly._index
    monkeypatch.setattr(
        liecert.poly, "_axis_chain", lambda cs: axis_chains.append(axis_chain(cs)) or axis_chains[-1]
    )
    monkeypatch.setattr(
        liecert.poly, "_index", lambda chain: index(chain) + any(chain is c for c in axis_chains)
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
    re, im = _axis_pair([1, 1, 1, 1, 1])
    assert re == [1, 0, -1, 0, 1]
    assert im == [0, 1, 0, -1]


def test_squarefree_decomposition_structure():
    p = P([0, 0, 1]) * P([-1, 1]) * P([-1, 1]) * P([-1, 1])
    parts = yun_monic(p)
    assert [(tuple(f.coeffs), k) for f, k in parts] == [
        ((F(0), F(1)), 2),
        ((F(-1), F(1)), 3),
    ]


def test_gcd_monic():
    a = P([-1, 0, 1]) * P([2, 1]) * 3
    b = P([-1, 0, 1]) * P([5, 1]) * 7
    g = monic_gcd(a, b)
    assert g == P([-1, 0, 1])


def test_cauchy_index_simple_pole():
    # 1/t jumps -oo -> +oo at 0: index +1
    assert cauchy(P([0, 1]), P([1])) == 1
    # -1/t: index -1
    assert cauchy(P([0, 1]), P([-1])) == -1


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
    assert r.n_neg + r.n_zero_real + r.n_pos == p.degree


@given(st.lists(coef, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_reflection_swaps_halves(cs):
    p = P(cs)
    if p.degree < 1:
        return
    r = root_sign_counts(p)
    reflected = P([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])  # p(-t)
    q = root_sign_counts(reflected)
    assert (r.n_neg, r.n_zero_real, r.n_pos) == (q.n_pos, q.n_zero_real, q.n_neg)


@given(st.lists(coef, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_squarefree_part_has_same_distinct_roots(cs):
    p = P(cs)
    if p.degree < 1:
        return
    sf = squarefree_part(p)
    total = sum(
        count_real_roots_squarefree(f) for f, _ in yun_monic(p)
    )
    assert count_real_roots_squarefree(sf) == total


_PRIME = liecert.poly._SQUAREFREE_PRIME


@pytest.mark.parametrize(
    "cs, coprime_mod_prime",
    [
        ([-2, 0, 1], True),  # t^2 - 2
        ([2, -3, 0, 1], False),  # (t - 1)^2 (t + 2)
        ([0, -_PRIME, 1], False),  # t (t - P): squarefree, but t^2 mod P
        ([-1, 0, _PRIME], False),  # P t^2 - 1: P divides the leading coefficient
    ],
)
def test_squarefree_part_skips_the_gcd_only_when_coprime_mod_prime(
    cs, coprime_mod_prime, monkeypatch
):
    gcds = []
    monkeypatch.setattr(liecert.poly, "_gcd", lambda a, b: gcds.append(1) or _gcd(a, b))
    p = P(cs)
    assert squarefree_part(p) == ref_squarefree_part(p)
    assert bool(gcds) != coprime_mod_prime


# -- the former Fraction routines, kept as references ---------------------


def shift(p, c):
    """p(t + c) through the integer Taylor shift `_scaled_shift`.

    With c = a/b and p = P/d for integer P: p(t + c) = h(bt) / (d b^n),
    where h(s) = b^n P((s + a)/b).
    """
    if not c or p.degree <= 0:
        return p
    d = lcm(*(x.denominator for x in p.coeffs))
    ints = [x.numerator * (d // x.denominator) for x in p.coeffs]
    b = c.denominator
    h = _scaled_shift(ints, c.numerator, b)
    scale = d * b**p.degree
    return P([F(x * b**k, scale) for k, x in enumerate(h)])


def ref_shift(p, c):
    """p(t + c) by Horner on RationalPolynomial arithmetic."""
    out = P([])
    for coeff in reversed(p.coeffs):
        out = out * P([c, 1]) + P([coeff])
    return out


def ref_poly_gcd(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def ref_squarefree_part(p):
    if p.degree <= 0:
        return p.monic()
    return (p // ref_poly_gcd(p, p.derivative())).monic()


def ref_squarefree_decomposition(p):
    if p.degree <= 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = ref_poly_gcd(p, dp)
    b = p // a
    d = dp // a - b.derivative()
    out = []
    k = 1
    while b.degree > 0:
        f = ref_poly_gcd(b, d)
        if f.degree > 0:
            out.append((f.monic(), k))
        b2 = b // f
        d = d // f - b2.derivative()
        b = b2
        k += 1
    return out


def _ref_sign(x):
    return (x > 0) - (x < 0)


def _ref_variations(signs):
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _ref_sign_at_inf(p, positive):
    s = _ref_sign(p.leading)
    return s if positive or p.degree % 2 == 0 else -s


def ref_sturm_chain(f, g):
    chain = [f, g]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def ref_cauchy_index(f, g):
    if f.is_zero or g.is_zero:
        return 0
    if g.degree >= f.degree:
        g = g % f
        if g.is_zero:
            return 0
    chain = ref_sturm_chain(f, g)
    vm = _ref_variations([_ref_sign_at_inf(p, positive=False) for p in chain])
    vp = _ref_variations([_ref_sign_at_inf(p, positive=True) for p in chain])
    return vm - vp


def ref_count_real_roots_squarefree(f):
    return ref_cauchy_index(f, f.derivative()) if f.degree > 0 else 0


def ref_axis_parts(p):
    re = [F(0)] * len(p.coeffs)
    im = [F(0)] * len(p.coeffs)
    for j, c in enumerate(p.coeffs):
        r = j % 4
        if r == 0:
            re[j] = c
        elif r == 1:
            im[j] = c
        elif r == 2:
            re[j] = -c
        else:
            im[j] = -c
    return P(re), P(im)


def ref_axis_root_count_squarefree(f):
    if f.degree <= 0:
        return 0
    re, im = ref_axis_parts(f)
    g = im.monic() if re.is_zero else re.monic() if im.is_zero else ref_poly_gcd(re, im)
    if g.degree <= 0:
        return 0
    return ref_count_real_roots_squarefree(ref_squarefree_part(g))


def ref_hurwitz_index(f):
    re, im = ref_axis_parts(f)
    if f.degree % 2 == 1:
        return ref_cauchy_index(im, re)
    return -ref_cauchy_index(re, im)


def ref_squarefree_sign_counts(f):
    n = f.degree
    if n <= 0:
        return RootSignCount(0, 0, 0)
    n0 = ref_axis_root_count_squarefree(f)
    if n0 == n:
        return RootSignCount(0, n, 0)
    d = ref_hurwitz_index(f)
    assert (n - n0 + d) % 2 == 0
    n_neg = (n - n0 + d) // 2
    return RootSignCount(n_neg, n0, n - n0 - n_neg)


def ref_root_sign_counts(p):
    total = RootSignCount(0, 0, 0)
    for f, k in ref_squarefree_decomposition(p):
        total = total + ref_squarefree_sign_counts(f).scaled(k)
    return total


def reference_counts_squarefree(f):
    """The count before axis roots were read off the index.

    It shrinks dyadic shifts f(t +- delta) until no root is on the axis.
    """
    n = f.degree
    if n <= 0:
        return RootSignCount(0, 0, 0)
    n0 = ref_axis_root_count_squarefree(f)
    if n0 == n:
        return RootSignCount(0, n, 0)
    if n0 == 0:
        d = ref_hurwitz_index(f)
        assert (n + d) % 2 == 0
        return RootSignCount((n + d) // 2, 0, n - (n + d) // 2)
    off = n - n0
    delta = F(1)
    while True:
        delta /= 2
        fp = ref_shift(f, delta)
        fm = ref_shift(f, -delta)
        if ref_axis_root_count_squarefree(fp) or ref_axis_root_count_squarefree(fm):
            continue
        n_right = (n - ref_hurwitz_index(fp)) // 2
        n_left = (n + ref_hurwitz_index(fm)) // 2
        if n_right + n_left == off:
            return RootSignCount(n_left, n0, n_right)


def reference_root_sign_counts(p):
    total = RootSignCount(0, 0, 0)
    for f, k in ref_squarefree_decomposition(p):
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
    skew_axis_index(monkeypatch)
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


# -- the integer kernel equals the former Fraction routines ------------------

# negative leading coefficients and denominators up to 10^9
wide_polynomials = root_polynomials(
    max_factors=3, max_multiplicity=2, max_denominator=10**9
)
any_polynomials = st.one_of(root_polynomials(), wide_polynomials)
shifts = st.one_of(
    _dyadic, st.fractions(min_value=-8, max_value=8, max_denominator=10**9)
)


@given(any_polynomials, any_polynomials)
@example(P([-2, 0, 0, 0, 1]), P([0, 1]))
@example(P([0, 1]), P([-1]))
@example(P([1, 0, 1]), P([0, 0, 0, -5]))  # g reduced mod f first
@example(P([-1, 1]) * P([2, 1]), P([-1, 1]) * P([F(7, 3)]))  # g mod f is zero
@settings(max_examples=80, deadline=None)
def test_cauchy_index_matches_reference(f, g):
    assert cauchy(f, g) == ref_cauchy_index(f, g)
    assert cauchy(f, f.derivative()) == ref_cauchy_index(f, f.derivative())


@given(any_polynomials, any_polynomials, any_polynomials)
@example(P([F(-1, 3)]), P([0, 1]), P([-2, 0, 0, 0, 1]))
@settings(max_examples=80, deadline=None)
def test_gcd_and_yun_match_reference(p, q, common):
    a, b = p * common, q * common
    assert monic_gcd(a, b) == ref_poly_gcd(a, b)
    assert monic_gcd(a, P([])) == ref_poly_gcd(a, P([]))
    assert squarefree_part(a) == ref_squarefree_part(a)
    assert yun_monic(a) == ref_squarefree_decomposition(a)
    assert sum(k * count_real_roots_squarefree(f) for f, k in yun_monic(a)) == sum(
        k * ref_count_real_roots_squarefree(f) for f, k in ref_squarefree_decomposition(a)
    )


@given(any_polynomials)
@example(P([F(-7, 10**9), 0, 0, 0, F(-3, 5)]))
@example(P([0, 1]) * P([1, 0, 1]) * P([-1, 1]) * P([5, -2, 1]) * -1)
@settings(max_examples=120, deadline=None)
def test_sign_counts_match_reference(p):
    f = squarefree_part(p)
    assert squarefree_sign_counts(f) == ref_squarefree_sign_counts(f)
    assert squarefree_sign_counts(f * F(-2, 3)) == ref_squarefree_sign_counts(f)
    assert root_sign_counts(p) == ref_root_sign_counts(p)
    assert axis_gcd(p) == ref_axis_gcd(p)


def ref_axis_gcd(p):
    re, im = ref_axis_parts(p)
    return im.monic() if re.is_zero else re.monic() if im.is_zero else ref_poly_gcd(re, im)


@given(any_polynomials, shifts)
@example(P([1, 2, 3]), F(1, 3))
@example(P([0, 0, 1]) * P([1, 0, 1]), F(-5, 2))
@example(P([-1, 0, 1]), F(1))  # a root moves onto the axis
@settings(max_examples=100, deadline=None)
def test_shift_matches_reference(p, c):
    assert shift(p, c) == ref_shift(p, c)
    f = squarefree_part(p)
    assert squarefree_sign_counts(f, c) == ref_squarefree_sign_counts(ref_shift(f, c))


@pytest.mark.parametrize(
    "f",
    [P([-1, 0, 1]), P([0, 1]) * P([1, 0, 1]) * P([-2, 1]), P([-2, 0, 0, 0, 1])],
    ids=["no-axis-roots", "axis-roots", "irrational-axis-roots"],
)
def test_one_axis_chain_per_count(monkeypatch, f):
    """The index and the axis gcd come from one chain on Re/Im of f(iy)."""
    gcd_degree = axis_gcd(f).degree
    re, im = _axis_pair(integer_row(f.coeffs))
    pair = {tuple(abs(c) for c in re), tuple(abs(c) for c in im)} - {()}
    chains = []
    real = liecert.poly._remainder_chain
    monkeypatch.setattr(
        liecert.poly, "_remainder_chain", lambda a, b: chains.append((a, b)) or real(a, b)
    )
    assert squarefree_sign_counts(f) == ref_squarefree_sign_counts(f)
    started = [
        {tuple(abs(c) for c in a), tuple(abs(c) for c in b)} - {()} for a, b in chains
    ]
    assert started.count(pair) == 1
    # the only other chain is the Sturm chain of the axis gcd, when it has roots
    assert len(chains) == 1 + (gcd_degree > 0)


def test_parity_failure_is_raised_on_shifted_counts(monkeypatch):
    skew_axis_index(monkeypatch)
    with pytest.raises(AssertionError, match="parity"):
        squarefree_sign_counts(P([-1, 0, 1]) * P([5, -2, 1]), F(1, 3))
