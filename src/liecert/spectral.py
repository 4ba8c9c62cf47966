"""Spectral analysis of exact rational operators.

Everything here is exact.  Eigenvalues are counted by the sign of their
real part, and the invariant parts of an operator are the generalized
kernels of products of its characteristic polynomial's irreducible
factors over Q: for an operator with no eigenvalue on the imaginary
axis, the factors with every root on the left, every root on the right,
and roots on both sides give its stable, unstable and mixed parts, each
rational.  The mixed part is empty exactly when the characteristic
polynomial splits by sign over Q; otherwise its stable and unstable
dimensions are exact counts, and no basis over the reals is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import isqrt, prod

from .linalg import (
    AlgebraError,
    Matrix,
    StructureError,
    _int_matmul,
    _integer_form,
    charpoly,
    generalized_kernel,
    integer_row,
    mat_poly,
    mat_pow,
)
from .poly import (
    RationalPolynomial,
    RootSignCount,
    _exact_quotient,
    _monic,
    _product,
    _root_exponent,
    _squarefree,
    count_real_roots_squarefree,
    power_of_two_root_bound,
    root_bound,
    root_sign_counts,
    squarefree_part,
    squarefree_sign_counts,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def char_poly(op: Matrix) -> RationalPolynomial:
    """Characteristic polynomial det(tI - op)."""
    return RationalPolynomial(charpoly(op))


def _linear_factors(cs: list[int]) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Divide every rational root out of cs, each found exactly by p-adic lifting.

    cs is a primitive integer polynomial, ascending, with cs[0] != 0.  Its
    rational roots a/b (lowest terms, b > 0) are those of its squarefree
    part f, so b divides f's leading coefficient B and a its constant, and
    |a| <= A, the least of |f(0)| and B times f's root bound.  Each
    reduces to a root of f modulo any prime p not dividing B.  At the first
    such prime where every root of f mod p is simple (f' does not vanish
    there), each root lifts uniquely by Newton's iteration to a root modulo some
    m = p^(2^k) > 2 A B, and a half-extended Euclid on m and the lift
    rebuilds the one fraction a/b with |a| <= A and 0 < b <= B congruent to
    it, when there is one (rational reconstruction).  So every rational
    root is rebuilt from some root mod p (Loos, SIAM J. Comput. 12, 1983),
    and such a prime exists: any prime dividing neither B nor the
    discriminant of f.  A candidate whose a and b divide the end
    coefficients of f is divided out of cs exactly, as often as it goes,
    and a false one fails that division.  Returns the cofactor, which has
    no rational root, and the peeled factors b t - a as ([-a, b], mult).
    """
    if len(cs) < 2:
        return cs, []
    f, df, g = _squarefree(cs)
    lead = abs(f[-1])
    big = min(abs(f[0]), lead << max(0, _root_exponent(f)))
    for p in count(2):
        if lead % p and all(p % q for q in range(2, isqrt(p) + 1)):  # a prime
            roots = _simple_roots(f, df, p)
            if roots is not None:
                break
    peeled: list[tuple[list[int], int]] = []
    for r in roots:
        m = p
        while m <= 2 * big * lead:
            m *= m
            r = (r - _value(f, r, m) * pow(_value(df, r, m), -1, m)) % m
        a, b = _reconstruct(r, m, big)
        if not a or f[0] % a or lead % b:
            continue
        mult = 0
        while mult == 0 or len(g) > 1:  # a root of a squarefree cs is simple
            try:
                cs = _exact_quotient(cs, [-a, b])
            except ArithmeticError:
                break
            mult += 1
        if mult:
            peeled.append(([-a, b], mult))
    return cs, peeled


def _value(cs: list[int], x: int, m: int) -> int:
    """cs(x) mod m, by Horner."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _simple_roots(f: list[int], df: list[int], p: int) -> list[int] | None:
    """The roots of f mod p, or None when f' vanishes at one of them."""
    f, df = [c % p for c in f], [c % p for c in df]
    roots = []
    for x in range(p):
        if not _value(f, x, p):
            if not _value(df, x, p):
                return None
            roots.append(x)
    return roots


def _reconstruct(r: int, m: int, bound: int) -> tuple[int, int]:
    """(a, b), b > 0, with a = b r mod m: the first remainder <= bound of the
    Euclidean chain of m and r, and its cofactor of r."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def factor_key(cs: list[int], mult: int) -> tuple:
    """The place of the primitive factor cs (ascending, positive leading
    coefficient) of multiplicity mult in sympy's order of factors
    (`polyutils._sort_factors`): length, multiplicity, then coefficients
    from the highest.  A linear factor b t - a has the key (2, mult, [b, -a])."""
    return len(cs), mult, cs[::-1]


def factor_with_multiplicity(
    p: RationalPolynomial,
) -> list[tuple[RationalPolynomial, int]]:
    """Monic irreducible factors of p over Q with their multiplicities.

    This is the one bridge to sympy's factorization, and it returns exactly
    the list that sympy's `factor_list` gives for the primitive integer
    coefficients of p, order included; factors over Z and over Q agree up
    to constants, which `monic` removes.  Most of the polynomials met here
    split over Q (restricted roots of split Cartan subspaces are rational),
    so the linear factors are peeled first, in integers: the zero root is
    stripped, then `_linear_factors` finds every other rational root
    exactly and divides it out.  A cofactor of degree 2 or 3 then has no
    linear factor, so it is irreducible; any cofactor of degree >= 4 goes
    to sympy.  Each cofactor is primitive, being a primitive polynomial
    divided by primitive ones (Gauss's lemma).  The factorization into
    primitive irreducibles with positive leading coefficient is unique, so
    the peeled factors and sympy's are together the same set with the same
    multiplicities, and sorting them by sympy's own key (`factor_key`)
    gives sympy's order.
    """
    cs = integer_row(p.coeffs)
    zeros = 0
    while zeros < len(cs) - 1 and not cs[zeros]:
        zeros += 1
    cs, factors = _linear_factors(cs[zeros:])
    if zeros:
        factors.append(([0, 1], zeros))
    if len(cs) in (3, 4):
        factors.append(([c if cs[-1] > 0 else -c for c in cs], 1))
    elif len(cs) > 4:
        import sympy

        poly_zz = sympy.Poly.from_list(cs[::-1], sympy.Symbol("x"), domain=sympy.ZZ)
        _, rest = poly_zz.factor_list()
        for fac, mult in rest:
            factors.append(([int(c) for c in reversed(fac.all_coeffs())], int(mult)))
    factors.sort(key=lambda f: factor_key(*f))
    return [(_monic(fac), mult) for fac, mult in factors]


def operator_sign_counts(op: Matrix) -> RootSignCount:
    return root_sign_counts(char_poly(op))


def apply_poly(p: RationalPolynomial, op: Matrix) -> Matrix:
    """p(op), by Horner on the integer form of op, of the kind of op."""
    return mat_poly(p.coeffs, op)


# -- Jordan-Chevalley ------------------------------------------------------


@dataclass(frozen=True)
class JordanChevalley:
    """op = semisimple + nilpotent, commuting, all exact.

    The semisimple part further splits as hyperbolic + elliptic
    (commuting, real vs purely imaginary spectrum).  That refinement is
    exact when each irreducible factor of the minimal polynomial has
    either all-real roots or all roots on one vertical line with rational
    real part; otherwise `exact` is False and both parts are None.  Each
    part is a polynomial in op, of the kind of op (`IntMatrix` or `Fraction`).
    """

    semisimple: Matrix
    nilpotent: Matrix
    exact: bool
    hyperbolic: Matrix | None
    elliptic: Matrix | None


def jordan_chevalley(op: Matrix) -> JordanChevalley:
    """The parts of op as polynomials in op, computed in Q[t].

    With p the characteristic polynomial and f its squarefree part, the
    semisimple part is s(op): s = t when f(op) = 0, else Newton's
    s <- s - f(s) / f'(s) mod p from s = t, which doubles the power of f
    dividing f(s) at each step (Chevalley; Hoffman & Kunze, ch. 7).
    """
    a = _integer_form(op)
    n = len(a.rows)
    p = char_poly(a)
    f = squarefree_part(p)
    s = t = RationalPolynomial([_ZERO, _ONE])
    if any(map(any, apply_poly(f, a).rows)):
        fd = f.derivative()
        fs = f % p
        for _ in range(n.bit_length()):
            s = (s - fs * _inverse_mod(_compose(fd, s, p), p)) % p
            fs = _compose(f, s, p)
            if fs.is_zero:
                break
        else:
            raise AlgebraError("semisimple iteration did not converge")
    semisimple, nil = mat_poly(s.coeffs, op), mat_poly((t - s).coeffs, op)
    ints, intn = _integer_form(semisimple).rows, _integer_form(nil).rows
    if _int_matmul(ints, intn) != _int_matmul(intn, ints):
        raise AlgebraError("semisimple and nilpotent parts do not commute")
    if any(map(any, mat_pow(nil, n))):
        raise AlgebraError("nilpotent part is not nilpotent")
    # the hyperbolic part is s e(s) over the factors with real roots and
    # m e(s) over those whose roots share the real part m, e being each
    # factor's CRT idempotent; the e(s) sum to I, as f(s) = 0, so it is s
    # minus (s - m) e(s) over the latter, and s itself when all roots are real
    elliptic = RationalPolynomial([])
    for phi, _ in factor_with_multiplicity(f):
        if phi.degree == 1 or count_real_roots_squarefree(phi) == phi.degree:
            continue
        m = _common_real_part(phi)
        if m is None:
            return JordanChevalley(semisimple, nil, False, None, None)
        other = f // phi  # e = u * other, with u * other + v * phi = 1
        elliptic = elliptic + RationalPolynomial([-m, _ONE]) * _inverse_mod(other, phi) * other
    if elliptic.is_zero:
        return JordanChevalley(semisimple, nil, True, semisimple, mat_poly((), op))
    e = _compose(elliptic % f, s, p)  # the correction in s, as a polynomial in t
    hyper = mat_poly((s - e).coeffs, op)
    return JordanChevalley(semisimple, nil, True, hyper, mat_poly(e.coeffs, op))


def _compose(g: RationalPolynomial, s: RationalPolynomial, m: RationalPolynomial):
    """g(s) mod m, by Horner."""
    acc = RationalPolynomial([])
    for c in reversed(g.coeffs):
        acc = (acc * s + RationalPolynomial([c])) % m
    return acc


def _common_real_part(phi: RationalPolynomial) -> Fraction | None:
    """The real part shared by every root of the monic irreducible phi, or
    None: the mean of the roots, when the count shifted to it finds them all."""
    d = phi.degree
    mean = -phi.coeffs[d - 1] / d
    if d == 1 or squarefree_sign_counts(phi, mean).n_zero_real == d:
        return mean
    return None


def _inverse_mod(a: RationalPolynomial, m: RationalPolynomial) -> RationalPolynomial:
    """a^{-1} mod m for coprime a, m, by extended Euclid."""
    r0, r1 = m, a % m
    s0, s1 = RationalPolynomial([]), RationalPolynomial([_ONE])
    while not r1.is_zero:
        q, r2 = divmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise AlgebraError("polynomials are not coprime")
    return (s0 * (_ONE / r0.coeffs[0])) % m


# -- spectral gap ----------------------------------------------------------


# bisection steps of spectral_gap
GAP_BITS = 30


def spectral_gap(p: RationalPolynomial) -> tuple[Fraction | None, bool]:
    """(bound, exact): off-axis roots satisfy |Re| >= bound.

    exact=True means some root attains |Re| = bound.  Returns (None, True)
    when every root is on the axis.  When each irreducible factor's roots
    share a real part m, the gap is the least nonzero |m|.  Otherwise it
    is bisected between powers of two from p's Cauchy bound, so dyadic
    gaps are detected exactly; steps above the tighter power-of-two
    Fujiwara bound of its squarefree part need no count, since every root
    lies in their band.  A band is decided by whether it holds a root, so
    each irreducible factor answers for itself: one whose roots share the
    real part m by |m|, any other by its own Sturm counts.
    """
    if p.degree < 1:
        return None, True
    return _gap(p, line_factors(p))


# (phi, multiplicity, m): a monic irreducible factor and its roots' common real part
LineFactors = list[tuple[RationalPolynomial, int, Fraction | None]]


def line_factors(p: RationalPolynomial) -> LineFactors:
    """The irreducible factors of p over Q, each with its common real part."""
    return [(phi, mult, _common_real_part(phi)) for phi, mult in factor_with_multiplicity(p)]


def _gap(p: RationalPolynomial, factors: LineFactors) -> tuple[Fraction | None, bool]:
    """spectral_gap(p), given `line_factors(p)`."""
    # the least |m| of a factor off the axis (m = 0 puts every root on it)
    least = min((abs(m) for _, _, m in factors if m), default=None)
    others = [(phi, squarefree_sign_counts(phi)) for phi, _, m in factors if m is None]
    if not others:
        # every root lies on a line: the least |m| off the axis is attained
        return least, True
    hi = _ONE
    bound = root_bound(p)
    while hi < bound:
        hi *= 2
    # the squarefree part is the product of the factors
    top = power_of_two_root_bound(prod(phi for phi, _, _ in factors))
    lo = _ZERO

    def band_empty(delta: Fraction) -> tuple[bool, bool]:
        """(no off-axis root with |Re| < delta, some root with |Re| = delta);
        the second is moot when the first is False."""
        if least is not None and least < delta:
            return False, False
        attained = least == delta
        for phi, base in others:
            right = squarefree_sign_counts(phi, delta)
            left = squarefree_sign_counts(phi, -delta)
            if (base.n_pos - right.n_pos - right.n_zero_real) or (
                base.n_neg - left.n_neg - left.n_zero_real
            ):
                return False, False
            attained = attained or right.n_zero_real > 0 or left.n_zero_real > 0
        return True, attained

    # hi exceeds every |root|, so the open band below hi misses nothing
    for _ in range(GAP_BITS):
        mid = (lo + hi) / 2
        if mid > top:
            # every root has |Re| <= top < mid: the band holds them all
            hi = mid
            continue
        empty, attained = band_empty(mid)
        if empty and attained:
            return mid, True
        if empty:
            lo = mid
        else:
            hi = mid
    return lo, False


# -- invariant splitting ----------------------------------------------------


def invariant_splitting(op: Matrix, factors: LineFactors) -> tuple[Matrix, Matrix, Matrix]:
    """(stable, mixed, unstable): the exact invariant parts of op along factors.

    factors are the `line_factors` of a polynomial with no root on the
    imaginary axis.  Each irreducible factor goes to the left product when
    all its roots have negative real part, to the right one when all have
    positive real part, and to the mixed one when it has roots on both
    sides: a factor with a common real part lies on that part's side, any
    other is counted.  Each part is the generalized kernel of its product
    at op, () for an empty product, so mixed is () exactly when the
    polynomial splits by sign over Q.  Raises StructureError when a factor
    has a root on the imaginary axis.
    """
    products = {-1: [1], 0: [1], 1: [1]}  # keyed by side: left, mixed, right
    for phi, mult, m in factors:
        c = squarefree_sign_counts(phi) if m is None else None
        if m == 0 or (c is not None and c.n_zero_real):
            raise StructureError("operator has eigenvalues on the imaginary axis")
        if c is None:
            side = (m > 0) - (m < 0)
        else:
            side = (c.n_pos == phi.degree) - (c.n_neg == phi.degree)
        cs = integer_row(phi.coeffs)
        for _ in range(mult):
            products[side] = _product(products[side], cs)
    return tuple(
        generalized_kernel(mat_poly(products[side], op)) if len(products[side]) > 1 else ()
        for side in (-1, 0, 1)
    )
