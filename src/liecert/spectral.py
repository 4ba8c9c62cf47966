"""Spectral analysis of exact rational operators.

Counts of eigenvalues by the sign of their real part are always exact.
Stable and unstable bases are computed in floating point, and only for
an operator with no eigenvalue on the imaginary axis: `check_anosov`
certifies that exactly before it asks for a splitting, because the
neutral space of an Anosov element is exactly flow + isotropy and is
split off by exact linear algebra.  The bases' ranks are pinned to the
exact counts and an invariance residual is reported against a
tolerance; when that is unattainable the result degrades to counts
only, and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebra import AlgebraError, StructureError
from .linalg import (
    Matrix,
    _integer_form,
    charpoly,
    integer_row,
    inverse,
    mat_poly,
    mat_pow,
    mat_scale,
    mat_sub,
    matmul,
    quotient_operator,
    restrict_operator,
)
from .poly import (
    RationalPolynomial,
    RootSignCount,
    _exact_quotient,
    _monic,
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
    """Divide the rational roots proposed by numeric root finding out of cs.

    cs is a primitive integer polynomial, ascending, with cs[0] != 0.  Each
    round takes the roots of the current cofactor in floating point (the
    coefficients shifted right until they fit a float) and turns every
    finite, not clearly complex one into a candidate a/b with
    b <= |leading coefficient|.  A candidate is tried only when a divides
    the constant and b the leading coefficient, as for every rational root;
    (b t - a) is then divided out exactly, as often as it goes.  Rounds
    repeat on the deflated cofactor until one peels nothing: a multiple
    root comes out of floating point as a cluster spread by about
    eps^(1/m), which may round wrongly until its neighbours are gone
    (three copies of (t - 1)...(t - 10) take two rounds).  Returns the
    cofactor and the peeled factors b t - a, b > 0, as ([-a, b], mult).
    """
    import numpy as np

    peeled: list[tuple[list[int], int]] = []
    found = True
    while found and len(cs) > 2:
        found = False
        shift = max(0, max(abs(c).bit_length() for c in cs) - 1000)
        try:
            roots = np.roots([float(c >> shift) for c in reversed(cs)])
        except np.linalg.LinAlgError:  # no proposals: sympy factors the rest
            break
        tried = set()
        for z in roots:
            if not np.isfinite(z) or abs(z.imag) > 0.25 * max(1.0, abs(z)):
                continue
            r = Fraction(float(z.real)).limit_denominator(abs(cs[-1]))
            a, b = r.numerator, r.denominator
            if r in tried or not a or cs[0] % a or cs[-1] % b:
                continue
            tried.add(r)
            mult = 0
            while len(cs) > 1:
                try:
                    cs = _exact_quotient(cs, [-a, b])
                except ArithmeticError:
                    break
                mult += 1
            if mult:
                peeled.append(([-a, b], mult))
                found = True
    return cs, peeled


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


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
    stripped, then `_linear_factors` divides out the candidates that
    numeric roots propose.  Numerics only propose; exact division decides,
    and a root they miss stays in the cofactor.  A quadratic cofactor
    whose discriminant is not a square has no rational root, so it is
    irreducible; any other cofactor of degree >= 2 goes to sympy.  Each
    cofactor is primitive, being a primitive polynomial divided by
    primitive ones (Gauss's lemma).  The factorization into primitive
    irreducibles with positive leading coefficient is unique, so the peeled
    factors and sympy's are together the same set with the same
    multiplicities, and sorting them by sympy's own key
    (`polyutils._sort_factors`: length, multiplicity, then coefficients
    from the highest) gives sympy's order.
    """
    cs = integer_row(p.coeffs)
    zeros = 0
    while zeros < len(cs) - 1 and not cs[zeros]:
        zeros += 1
    cs, factors = _linear_factors(cs[zeros:])
    if zeros:
        factors.append(([0, 1], zeros))
    if len(cs) == 2 or (len(cs) == 3 and not _is_square(cs[1] ** 2 - 4 * cs[0] * cs[2])):
        factors.append(([c if cs[-1] > 0 else -c for c in cs], 1))
    elif len(cs) > 2:
        import sympy

        poly_zz = sympy.Poly.from_list(cs[::-1], sympy.Symbol("x"), domain=sympy.ZZ)
        _, rest = poly_zz.factor_list()
        for fac, mult in rest:
            factors.append(([int(c) for c in reversed(fac.all_coeffs())], int(mult)))
    factors.sort(key=lambda f: (len(f[0]), f[1], f[0][::-1]))
    return [(_monic(fac), mult) for fac, mult in factors]


def operator_sign_counts(op: Matrix) -> RootSignCount:
    return root_sign_counts(char_poly(op))


def is_hyperbolic(op: Matrix) -> bool:
    """No eigenvalue on the imaginary axis."""
    if not op:
        return True
    return operator_sign_counts(op).n_zero_real == 0


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
    real part; otherwise `exact` is False and both parts are None.
    """

    semisimple: Matrix
    nilpotent: Matrix
    exact: bool
    hyperbolic: Matrix | None
    elliptic: Matrix | None


def _newton_semisimple(op: Matrix, f: RationalPolynomial) -> Matrix:
    n = len(op)
    s = op
    fd = f.derivative()
    for _ in range(n.bit_length() + 2):
        fs = apply_poly(f, s)
        if all(all(x == 0 for x in row) for row in fs):
            return s
        fds = apply_poly(fd, s)
        inv = inverse(fds)
        if inv is None:
            raise AlgebraError("derivative became singular in the Newton step")
        s = mat_sub(s, matmul(fs, inv))
    fs = apply_poly(f, s)
    if not all(all(x == 0 for x in row) for row in fs):
        raise AlgebraError("semisimple iteration did not converge")
    return s


def jordan_chevalley(op: Matrix) -> JordanChevalley:
    n = len(op)
    if n == 0:
        return JordanChevalley((), (), True, (), ())
    f = squarefree_part(char_poly(op))
    s = _newton_semisimple(op, f)
    nil = mat_sub(op, s)
    if matmul(s, nil) != matmul(nil, s):
        raise AlgebraError("semisimple and nilpotent parts do not commute")
    if not all(all(x == 0 for x in row) for row in mat_pow(nil, n)):
        raise AlgebraError("nilpotent part is not nilpotent")
    # refinement into hyperbolic + elliptic
    parts = []
    for phi, _ in factor_with_multiplicity(f):
        d = phi.degree
        mean = -phi.coeffs[d - 1] / (d * phi.coeffs[d])
        if count_real_roots_squarefree(phi) == d:
            parts.append(("real", phi, mean))
        elif squarefree_sign_counts(phi, mean).n_zero_real == d:
            parts.append(("line", phi, mean))
        else:
            return JordanChevalley(s, nil, False, None, None)
    hyper = tuple(tuple(_ZERO for _ in range(n)) for _ in range(n))
    for kind, phi, mean in parts:
        proj = _crt_projector(f, phi, s)
        if kind == "real":
            block = matmul(s, proj)
        else:
            block = mat_scale(mean, proj)
        hyper = tuple(
            tuple(hyper[i][j] + block[i][j] for j in range(n)) for i in range(n)
        )
    return JordanChevalley(s, nil, True, hyper, mat_sub(s, hyper))


def _crt_projector(f: RationalPolynomial, phi: RationalPolynomial, s: Matrix) -> Matrix:
    """Projector onto the phi-primary component, as a polynomial in s."""
    other = f // phi
    # u * other + v * phi = 1
    u = _inverse_mod(other, phi)
    e = (u * other) % f
    return apply_poly(e, s)


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
    when every root is on the axis.  Bisection endpoints are powers of
    two, so gaps at dyadic rationals are detected exactly.  The start of
    the bisection is fixed by p's Cauchy bound; steps above the tighter
    power-of-two Fujiwara bound need no count, since every root lies in
    their band.  Counts are taken on the squarefree part, since a band is
    decided by whether it holds a root, not by how many.
    """
    if p.degree < 1:
        return None, True
    f = squarefree_part(p)
    base = squarefree_sign_counts(f)
    if base.n_neg + base.n_pos == 0:
        return None, True
    hi = _ONE
    bound = root_bound(p)
    while hi < bound:
        hi *= 2
    top = power_of_two_root_bound(f)
    lo = _ZERO

    def band_empty(delta: Fraction) -> tuple[bool, bool]:
        """(no off-axis root with |Re| < delta, some root with |Re| = delta)."""
        right = squarefree_sign_counts(f, delta)
        left = squarefree_sign_counts(f, -delta)
        attained = (right.n_zero_real > 0) or (left.n_zero_real > 0)
        inside = (base.n_pos - right.n_pos - right.n_zero_real) + (
            base.n_neg - left.n_neg - left.n_zero_real
        )
        return inside == 0, attained

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


@dataclass(frozen=True)
class InvariantSplitting:
    """Stable / unstable data for one operator with no imaginary-axis eigenvalue.

    counts are always exact.  The stable and unstable bases are floating
    point rows with rank pinned to the exact counts and `residual` the
    verified invariance defect.  When the bases could not be certified at
    the tolerance both are None and `degraded` explains why.
    """

    counts: RootSignCount
    stable_basis: tuple | None
    unstable_basis: tuple | None
    residual: float | None
    tolerance: float
    degraded: str | None


# stopping rule of the sign-function Newton iteration
NEWTON_TOL = 1e-13
NEWTON_ITERS = 80


def _sign_newton(a):
    import numpy as np

    s = a.copy()
    n = a.shape[0]
    for _ in range(NEWTON_ITERS):
        inv = np.linalg.inv(s)
        d = abs(np.linalg.det(s))
        mu = d ** (-1.0 / n) if d > 0 else 1.0
        s_next = 0.5 * (mu * s + inv / mu)
        step = np.linalg.norm(s_next - s, "fro")
        if step <= NEWTON_TOL * max(1.0, np.linalg.norm(s, "fro")):
            return s_next
        s = s_next
    return s


def _basis_from_projector(p, dim: int):
    import numpy as np

    u, sv, _ = np.linalg.svd(p)
    return u[:, :dim]


def invariant_splitting(op: Matrix, tolerance: float = 1e-9) -> InvariantSplitting:
    """Stable and unstable bases of op, which must be free of axis eigenvalues.

    The sign function of op, by scaled Newton iteration, gives the two
    spectral projectors; their leading singular vectors, as many as the
    exact counts, are the bases.  Raises StructureError when op has an
    eigenvalue on the imaginary axis.  op is a `Fraction` matrix or a
    `linalg.IntMatrix`.
    """
    import numpy as np

    rows, den = op = _integer_form(op)
    n = len(rows)
    if n == 0:
        return InvariantSplitting(RootSignCount(0, 0, 0), (), (), 0.0, tolerance, None)
    counts = root_sign_counts(char_poly(op))
    if counts.n_zero_real:
        raise StructureError("operator has eigenvalues on the imaginary axis")
    # int / int is correctly rounded: each entry is float(Fraction(x, den))
    opf = np.array([[x / den for x in row] for row in rows])
    s = _sign_newton(opf)
    eye = np.eye(n)
    bases = (
        _basis_from_projector(0.5 * (eye - s), counts.n_neg),
        _basis_from_projector(0.5 * (eye + s), counts.n_pos),
    )
    residual = 0.0
    for v in bases:  # columns span the subspace
        if v.shape[1]:
            av = opf @ v
            proj, *_ = np.linalg.lstsq(v, av, rcond=None)
            residual = max(residual, float(np.linalg.norm(av - v @ proj)))
    if residual > tolerance:
        return InvariantSplitting(
            counts,
            None,
            None,
            residual,
            tolerance,
            f"invariance residual {residual:.3e} exceeds tolerance",
        )
    stable, unstable = (tuple(tuple(map(float, col)) for col in v.T) for v in bases)
    return InvariantSplitting(counts, stable, unstable, residual, tolerance, None)


# -- restriction and quotient ------------------------------------------------


@dataclass(frozen=True)
class RestrictionQuotient:
    restricted: Matrix
    quotient: Matrix
    complement: tuple[int, ...]
    restricted_counts: RootSignCount
    quotient_counts: RootSignCount


def restrict_and_quotient(op: Matrix, basis: Matrix) -> RestrictionQuotient:
    """Split op along an invariant subspace; counts add up, by construction.

    Raises StructureError when the span is not invariant.
    """
    restricted = restrict_operator(op, basis)
    if restricted is None:
        raise StructureError("subspace is not invariant under the operator")
    quo = quotient_operator(op, basis)
    qop, comp = quo
    rc = root_sign_counts(char_poly(restricted)) if basis else RootSignCount(0, 0, 0)
    qc = root_sign_counts(char_poly(qop)) if qop else RootSignCount(0, 0, 0)
    total = root_sign_counts(char_poly(op)) if op else RootSignCount(0, 0, 0)
    if (rc.n_neg + qc.n_neg, rc.n_zero_real + qc.n_zero_real, rc.n_pos + qc.n_pos) != (
        total.n_neg,
        total.n_zero_real,
        total.n_pos,
    ):
        raise AlgebraError("restriction and quotient counts do not add up")
    return RestrictionQuotient(restricted, qop, comp, rc, qc)
