"""Spectral analysis of exact rational operators.

Counts of eigenvalues by the sign of their real part are always exact.
Bases for stable and unstable subspaces are certified numerically: their
ranks are pinned to the exact counts and an invariance residual is
reported against a tolerance.  When even that is unattainable the result
degrades to counts only, and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError
from .linalg import (
    Matrix,
    charpoly,
    generalized_kernel,
    identity,
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
    axis_gcd,
    count_real_roots_squarefree,
    poly_gcd,
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
    and a root they miss stays in the cofactor.  Only a cofactor of degree
    >= 2 goes to sympy.  The factorization into primitive irreducibles
    with positive leading coefficient is unique, so the peeled factors and
    sympy's are together the same set with the same multiplicities, and
    sorting them by sympy's own key (`polyutils._sort_factors`: length,
    multiplicity, then coefficients from the highest) gives sympy's order.
    """
    cs = integer_row(p.coeffs)
    zeros = 0
    while zeros < len(cs) - 1 and not cs[zeros]:
        zeros += 1
    cs, factors = _linear_factors(cs[zeros:])
    if zeros:
        factors.append(([0, 1], zeros))
    if len(cs) == 2:
        factors.append(([c if cs[1] > 0 else -c for c in cs], 1))
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
    """p(op), by Horner on the integer form of op."""
    return mat_poly(p.coeffs, op)


# -- axis factor ----------------------------------------------------------


def axis_factor(p: RationalPolynomial) -> RationalPolynomial | None:
    """Rational factor of squarefree p carrying exactly its axis roots.

    p(iy) = R(y) + i I(y); the real roots y of g = gcd(R, I) are exactly
    the axis roots iy of p.  When the squarefree part g0 of g has only
    real roots, its root set is symmetric, so g0(y) = y^m G(y^2) with m in
    {0, 1}, and a(t) = t^m G(-t^2) is a rational polynomial whose roots
    are precisely the axis roots of p.  The factor is then gcd(p, a).
    Returns None when g0 has nonreal roots: the axis factor is irrational
    (p = t^4 - 2 is the standard witness) and no rational carrier exists.
    """
    if p.degree <= 0:
        return RationalPolynomial([_ONE])
    g = axis_gcd(p)
    if g.degree <= 0:
        return RationalPolynomial([_ONE])
    g0 = squarefree_part(g)
    if count_real_roots_squarefree(g0) != g0.degree:
        return None
    cs = g0.coeffs
    m = 1 if cs[0] == 0 else 0
    if m == 1:
        cs = cs[1:]
    # cs must now be even: c_1 = c_3 = ... = 0
    if any(c != 0 for i, c in enumerate(cs) if i % 2 == 1):
        raise AlgebraError("axis polynomial lost its root symmetry")
    big_g = [cs[i] for i in range(0, len(cs), 2)]
    # G(-t^2), degree doubles
    a_coeffs = [_ZERO] * (2 * (len(big_g) - 1) + 1)
    for i, c in enumerate(big_g):
        a_coeffs[2 * i] = c * ((-1) ** i)
    a = RationalPolynomial(a_coeffs)
    if m == 1:
        a = a * RationalPolynomial([_ZERO, _ONE])
    return poly_gcd(p, a)


# -- Jordan-Chevalley ------------------------------------------------------


@dataclass(frozen=True)
class JordanChevalley:
    """op = semisimple + nilpotent, commuting, all exact.

    The semisimple part further splits as hyperbolic + elliptic
    (commuting, real vs purely imaginary spectrum).  That refinement is
    exact when each irreducible factor of the minimal polynomial has
    either all-real roots or all roots on one vertical line with rational
    real part; otherwise only float approximations are given and `exact`
    is False.
    """

    semisimple: Matrix
    nilpotent: Matrix
    exact: bool
    hyperbolic: Matrix | None
    elliptic: Matrix | None
    hyperbolic_float: tuple
    elliptic_float: tuple


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
    import numpy as np

    n = len(op)
    if n == 0:
        return JordanChevalley((), (), True, (), (), (), ())
    f = squarefree_part(char_poly(op))
    s = _newton_semisimple(op, f)
    nil = mat_sub(op, s)
    if matmul(s, nil) != matmul(nil, s):
        raise AlgebraError("semisimple and nilpotent parts do not commute")
    if not all(all(x == 0 for x in row) for row in mat_pow(nil, n)):
        raise AlgebraError("nilpotent part is not nilpotent")
    # refinement into hyperbolic + elliptic
    exact = True
    hyper: Matrix | None = None
    parts = []
    for phi, _ in factor_with_multiplicity(f):
        d = phi.degree
        mean = -phi.coeffs[d - 1] / (d * phi.coeffs[d])
        if count_real_roots_squarefree(phi) == d:
            parts.append(("real", phi, mean))
        elif squarefree_sign_counts(phi, mean).n_zero_real == d:
            parts.append(("line", phi, mean))
        else:
            exact = False
            break
    if exact:
        acc = tuple(tuple(_ZERO for _ in range(n)) for _ in range(n))
        for kind, phi, mean in parts:
            proj = _crt_projector(f, phi, s)
            if kind == "real":
                block = matmul(s, proj)
            else:
                block = mat_scale(mean, proj)
            acc = tuple(
                tuple(acc[i][j] + block[i][j] for j in range(n)) for i in range(n)
            )
        hyper = acc
        ell = mat_sub(s, hyper)
        hf = tuple(tuple(float(x) for x in row) for row in hyper)
        ef = tuple(tuple(float(x) for x in row) for row in ell)
        return JordanChevalley(s, nil, True, hyper, ell, hf, ef)
    sf = np.array([[float(x) for x in row] for row in s])
    vals, vecs = np.linalg.eig(sf)
    hyp_f = vecs @ np.diag(vals.real) @ np.linalg.inv(vecs)
    hyp_f = hyp_f.real
    ell_f = sf - hyp_f
    return JordanChevalley(
        s,
        nil,
        False,
        None,
        None,
        tuple(tuple(float(x) for x in row) for row in hyp_f),
        tuple(tuple(float(x) for x in row) for row in ell_f),
    )


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


def spectral_gap(p: RationalPolynomial, bits: int = 30) -> tuple[Fraction | None, bool]:
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
    for _ in range(bits):
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
    """Stable / neutral / unstable data for one operator.

    counts are always exact.  neutral_basis is exact (rational rows) when
    the axis factor of the characteristic polynomial is rational; the
    stable and unstable bases are floating point with rank pinned to the
    exact counts and `residual` the verified invariance defect.  When a
    basis could not be certified at the tolerance the corresponding field
    is None and `degraded` explains why.
    """

    counts: RootSignCount
    neutral_basis: Matrix | None
    stable_basis: tuple | None
    unstable_basis: tuple | None
    residual: float | None
    tolerance: float
    degraded: str | None

    @property
    def stable_dim(self) -> int:
        return self.counts.n_neg

    @property
    def neutral_dim(self) -> int:
        return self.counts.n_zero_real

    @property
    def unstable_dim(self) -> int:
        return self.counts.n_pos


def _sign_newton(a, tol=1e-13, iters=80):
    import numpy as np

    s = a.copy()
    n = a.shape[0]
    for _ in range(iters):
        inv = np.linalg.inv(s)
        d = abs(np.linalg.det(s))
        mu = d ** (-1.0 / n) if d > 0 else 1.0
        s_next = 0.5 * (mu * s + inv / mu)
        if np.linalg.norm(s_next - s, "fro") <= tol * max(1.0, np.linalg.norm(s, "fro")):
            return s_next
        s = s_next
    return s


def _basis_from_projector(p, dim: int):
    import numpy as np

    u, sv, _ = np.linalg.svd(p)
    return u[:, :dim]


def invariant_splitting(op: Matrix, tolerance: float = 1e-9) -> InvariantSplitting:
    import numpy as np

    n = len(op)
    cp = char_poly(op)
    counts = root_sign_counts(cp) if n else RootSignCount(0, 0, 0)
    if n == 0:
        return InvariantSplitting(counts, (), (), (), 0.0, tolerance, None)
    f = squarefree_part(cp)
    ax = axis_factor(f)
    neutral_rows: Matrix | None = None
    off_rows: Matrix | None = None
    if ax is not None:
        if ax.degree == 0:
            neutral_rows = ()
            off_rows = tuple(identity(n))
        else:
            neutral_rows = generalized_kernel(apply_poly(ax, op))
            off_rows = generalized_kernel(apply_poly(f // ax, op))
            if len(neutral_rows) != counts.n_zero_real:
                raise AlgebraError("axis kernel has wrong dimension")
            if len(off_rows) != counts.n_neg + counts.n_pos:
                raise AlgebraError("off-axis kernel has wrong dimension")
    if counts.n_neg + counts.n_pos == 0:
        return InvariantSplitting(
            counts, neutral_rows, (), (), 0.0, tolerance, None
        )
    # numeric stable/unstable bases
    if off_rows is not None:
        restricted = restrict_operator(op, off_rows)
        if restricted is None:
            raise AlgebraError("off-axis subspace is expected to be invariant")
        a = np.array([[float(x) for x in row] for row in restricted])
        carrier = np.array([[float(x) for x in row] for row in off_rows])
    elif counts.n_zero_real == 0:
        a = np.array([[float(x) for x in row] for row in op])
        carrier = np.eye(n)
    else:
        # no rational axis carrier: fall back to eigenvector clustering
        return _splitting_by_eig(op, counts, tolerance)
    s = _sign_newton(a)
    eye = np.eye(a.shape[0])
    p_stable = 0.5 * (eye - s)
    p_unstable = 0.5 * (eye + s)
    sb = _basis_from_projector(p_stable, counts.n_neg)
    ub = _basis_from_projector(p_unstable, counts.n_pos)
    # back to ambient coordinates (rows of carrier span the invariant subspace)
    sb_amb = (carrier.T @ sb).T if sb.size else np.zeros((0, n))
    ub_amb = (carrier.T @ ub).T if ub.size else np.zeros((0, n))
    opf = np.array([[float(x) for x in row] for row in op])
    residual = 0.0
    for rows in (sb_amb, ub_amb):
        if rows.shape[0] == 0:
            continue
        v = rows.T  # columns span the subspace
        av = opf @ v
        proj, *_ = np.linalg.lstsq(v, av, rcond=None)
        residual = max(residual, float(np.linalg.norm(av - v @ proj)))
    if residual > tolerance:
        return InvariantSplitting(
            counts,
            neutral_rows,
            None,
            None,
            residual,
            tolerance,
            f"invariance residual {residual:.3e} exceeds tolerance",
        )
    return InvariantSplitting(
        counts,
        neutral_rows,
        tuple(tuple(float(x) for x in row) for row in sb_amb),
        tuple(tuple(float(x) for x in row) for row in ub_amb),
        residual,
        tolerance,
        None,
    )


def _splitting_by_eig(op: Matrix, counts: RootSignCount, tolerance: float):
    import numpy as np

    n = len(op)
    a = np.array([[float(x) for x in row] for row in op])
    vals, vecs = np.linalg.eig(a)
    order = np.argsort(vals.real)
    stable_cols = []
    unstable_cols = []
    for idx in order[: counts.n_neg]:
        stable_cols.append(vecs[:, idx])
    for idx in order[n - counts.n_pos:]:
        unstable_cols.append(vecs[:, idx])

    def realify(cols, dim):
        if not dim:
            return np.zeros((0, n)), 0.0
        m = np.array(cols).T
        stacked = np.hstack([m.real, m.imag])
        u, sv, _ = np.linalg.svd(stacked)
        basis = u[:, :dim]
        av = a @ basis
        proj, *_ = np.linalg.lstsq(basis, av, rcond=None)
        res = float(np.linalg.norm(av - basis @ proj))
        return basis.T, res

    sb, r1 = realify(stable_cols, counts.n_neg)
    ub, r2 = realify(unstable_cols, counts.n_pos)
    residual = max(r1, r2)
    if residual > tolerance:
        return InvariantSplitting(
            counts, None, None, None, residual, tolerance,
            "no rational axis carrier and eigenvector bases failed the residual check",
        )
    return InvariantSplitting(
        counts,
        None,
        tuple(tuple(float(x) for x in row) for row in sb),
        tuple(tuple(float(x) for x in row) for row in ub),
        residual,
        tolerance,
        "neutral basis unavailable: axis factor is irrational",
    )


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
    from .algebra import StructureError

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
