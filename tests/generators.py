"""Shared randomized inputs for the test suites.

Solvable algebras come from Lie closures inside upper-triangular 3x3
matrices, so every draw is genuinely solvable and has dimension at most
6.  Action data comes from nilpotent-by-abelian extensions with exact
integer derivation spectra, so hyperbolicity facts are known at
construction time.  Polynomials are products of factors whose roots
are known by construction: rational (dyadic among them), irrational
real, on the imaginary axis, off-axis conjugate pairs and the
negation-symmetric quartics t^4 + c t^2 + d, whose roots come in pairs
lambda, -conj(lambda); factors may repeat.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

from liecert.algebra import LieAlgebra, lie_algebra_from_matrices
from liecert.cartan import RootInfo, RootSystem
from liecert.linalg import _from_integer, identity, in_span, matmul, rref, vector
from liecert.poly import RationalPolynomial

F = Fraction


def matrix(rows) -> tuple:
    """An exact matrix from rows of ints, Fractions or strings like '3/4'."""
    out = tuple(vector(r) for r in rows)
    assert all(len(r) == len(out[0]) for r in out), "ragged matrix"
    return out


def dot(a, b) -> Fraction:
    """The scalar product of two exact vectors."""
    return sum((x * y for x, y in zip(a, b)), F(0))


def matvec(a, v) -> tuple:
    """The product a . v of a matrix and a vector."""
    return tuple(dot(row, v) for row in a)


def mat_sub(a, b) -> tuple:
    """The entrywise difference a - b of two matrices."""
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def inverse(a) -> tuple | None:
    """The inverse of a square matrix, by the rref of [a | I], or None when singular."""
    n = len(a)
    red, piv = rref(tuple(row + iden for row, iden in zip(a, identity(n))))
    if tuple(piv[:n]) != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red[:n])


def fraction_ad(g, x) -> tuple:
    """ad(x) as a `Fraction` matrix: the integer adjoint over its denominator."""
    return _from_integer(*g.ad_integer(x))


def functional_root_system(values, k):
    """A root system over the standard base of Q^k carrying +-v for each value."""
    roots = []
    for v in values:
        for s in (1, -1):
            w = tuple(F(s * x) for x in v)
            roots.append(RootInfo(1, (), w, None, tuple((float(x), 0.0) for x in w), True))
    base = tuple(tuple(F(int(i == j)) for j in range(k)) for i in range(k))
    return RootSystem(base, tuple(roots), True, ())


def random_solvable(rng: random.Random, min_dim: int = 2, max_dim: int = 6) -> LieAlgebra:
    """Lie closure of random upper-triangular 3x3 matrices."""
    while True:
        mats = []
        for _ in range(rng.choice([2, 3])):
            m = [[F(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    m[i][j] = F(rng.randint(-2, 2))
            mats.append(tuple(tuple(r) for r in m))
        flat = lambda mm: tuple(x for row in mm for x in row)
        basis = []
        for m in mats:
            if not in_span(tuple(flat(b) for b in basis), flat(m)):
                basis.append(m)
        work = list(basis)
        while work:
            a = work.pop()
            for b in list(basis):
                c = mat_sub(matmul(a, b), matmul(b, a))
                if not in_span(tuple(flat(x) for x in basis), flat(c)):
                    basis.append(c)
                    work.append(c)
        if min_dim <= len(basis) <= max_dim:
            return lie_algebra_from_matrices(basis)


def random_hyperbolic_suspension(rng: random.Random):
    """Action datum on a nilpotent-by-abelian algebra, Anosov by design.

    The ambient algebra is N x| span(T) where N is abelian Q^m or the
    Heisenberg algebra and T acts by an invertible diagonal derivation
    with nonzero integer eigenvalues.  Returns (algebra, flow rows,
    expected stable dim, expected unstable dim).
    """
    heis = rng.random() < 0.5
    if heis:
        # derivation diag(a, b, a+b) with a, b, a+b nonzero
        while True:
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            if a and b and a + b:
                break
        weights = [a, b, a + b]
        m = 3
    else:
        m = rng.randint(2, 4)
        weights = []
        for _ in range(m):
            w = 0
            while w == 0:
                w = rng.randint(-3, 3)
            weights.append(w)
    n = m + 1
    zero = tuple(F(0) for _ in range(n))
    t = [[zero] * n for _ in range(n)]
    if heis:
        t[0][1] = tuple(F(1) if r == 2 else F(0) for r in range(n))
        t[1][0] = tuple(F(-1) if r == 2 else F(0) for r in range(n))
    for i, w in enumerate(weights):
        t[m][i] = tuple(F(w) if r == i else F(0) for r in range(n))
        t[i][m] = tuple(F(-w) if r == i else F(0) for r in range(n))
    g = LieAlgebra(t)
    flow = (tuple(F(1) if r == m else F(0) for r in range(n)),)
    stable = sum(1 for w in weights if w < 0)
    unstable = sum(1 for w in weights if w > 0)
    return g, flow, stable, unstable


_dyadic = st.builds(lambda k, e: F(k, 2**e), st.integers(-12, 12), st.integers(0, 4))


def _factor(kind: str, a: Fraction, b: Fraction) -> RationalPolynomial:
    if kind == "rational":
        return RationalPolynomial([-a, 1])
    if kind == "real-pair":  # a +- sqrt(b)
        return RationalPolynomial([a * a - b, -2 * a, 1])
    if kind == "axis":  # +- i sqrt(b), or 0
        return RationalPolynomial([b, 0, 1]) if a > 0 else RationalPolynomial([0, 1])
    if kind == "conjugate-pair":  # a +- i sqrt(b)
        return RationalPolynomial([a * a + b, -2 * a, 1])
    return RationalPolynomial([b, 0, a, 0, 1])  # t^4 + a t^2 + b


@st.composite
def root_polynomials(
    draw, max_factors: int = 4, max_multiplicity: int = 3, max_denominator: int = 4
):
    """A nonconstant product of known-root factors, each to a small power.

    Factor parameters are dyadic or have denominators up to
    max_denominator.  The leading coefficient is 1, -3 or 2/5; above the
    default max_denominator it is any nonzero rational of either sign
    with such a denominator.
    """
    small = st.fractions(min_value=-6, max_value=6, max_denominator=max_denominator)
    positive = st.fractions(min_value=F(1, 4), max_value=9, max_denominator=max_denominator)
    if max_denominator <= 4:
        lead = draw(st.sampled_from([F(1), F(-3), F(2, 5)]))
    else:
        lead = draw(small.filter(bool))
    p = RationalPolynomial([lead])
    kinds = ("rational", "real-pair", "axis", "conjugate-pair", "symmetric-quartic")
    for _ in range(draw(st.integers(1, max_factors))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.one_of(_dyadic, small))
        b = draw(positive) if kind != "symmetric-quartic" else draw(small)
        f = _factor(kind, a, b)
        for _ in range(draw(st.integers(1, max_multiplicity))):
            p = p * f
    return p
