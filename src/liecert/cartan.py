"""Cartan subalgebras, Cartan subspaces, restricted roots, chambers.

Cartan subalgebras are found by Engel-kernel descent and certified by an
exact nilpotency plus self-normalizer check, so the search heuristics
never affect soundness.  Inner derivations are solved in one place,
`_inner_solution`: `solve_ad` asks it for y with ad(y) equal to a given
operator, and `inner_corrected_flow` for the element of [k, k] that acts
on [k, k] as a flow generator does.  Whether an element is ad-hyperbolic
is decided once per vector and algebra (`is_ad_hyperbolic`).
An action's Cartan subalgebra is assembled from its data, flow plus a
maximal abelian part of [k, k] plus the center of k (`csa_from_action`);
its split into a hyperbolic and a compact part is the Cartan subspace a
and the zero-root complement that `classify` reads off one frame, so it
is not computed a second way here.
Restricted roots are read off one generic element of the Cartan
subspace: its primary components, each split again by the first operator
of the family that is not scalar plus nilpotent on it.  The splitting
runs on integer reduced echelon rows from start to finish: a component
is an integer generalized kernel, an operator is restricted to it by
reading its images at the pivots, and the scalar test is N^d = 0 for an
integer N, so a `Fraction` row is built once per returned block.  The
data is exact whenever every joint value is rational and some generic
element separates them, which fixes the order of the roots; otherwise
each joint invariant subspace of a generic element is still exact and
carries the minimal polynomial of its family of pairings, with a float
witness for each: the root of largest modulus of that polynomial, by a
Weierstrass iteration (`_largest_root`).  Per-root isolating intervals
do not exist in the merged case (conjugate functionals share one
rational subspace), so the block form is the strongest exact statement
available.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence

from .algebra import (
    AlgebraError,
    LieAlgebra,
    StructureError,
    Subspace,
    _integer_terms,
    _trace_form,
    bracket_space,
    centralizer,
    full_space,
    killing_form,
    normalizer,
    radical,
    subspace_is_nilpotent,
    zero_space,
)
from .linalg import (
    Coordinates,
    IntMatrix,
    Matrix,
    Vector,
    _from_integer,
    _int_generalized_kernel,
    _int_matmul,
    _integer_echelon,
    _integer_form,
    _integer_reduced,
    _rref_rows,
    combine,
    generalized_kernel,
    identity,
    integer_row,
    is_zero_vector,
    matmul,
    nullspace,
    primitive,
    restrict_operators,
    row_basis,
    transpose,
    vec_sub,
    vector,
)
from .poly import (
    RationalPolynomial,
    count_real_roots_squarefree,
    power_of_two_root_bound,
    squarefree_part,
    squarefree_sign_counts,
)
from .spectral import (
    apply_poly,
    char_poly,
    factor_key,
    factor_with_multiplicity,
    jordan_chevalley,
    operator_sign_counts,
)

_ONE = Fraction(1)


# -- Engel subalgebras and Cartan subalgebras --------------------------------


def engel_subalgebra(g: LieAlgebra, x: Vector) -> Subspace:
    """Generalized null space of ad(x); always a subalgebra containing x."""
    return Subspace(g, generalized_kernel(g.ad_integer(x)))


def is_csa(g: LieAlgebra, s: Subspace) -> bool:
    """Nilpotent and self-normalizing."""
    if s.dim == 0:
        return g.dim == 0
    try:
        if not subspace_is_nilpotent(s):
            return False
    except StructureError:
        return False
    return normalizer(g, s)._rows == s._rows  # s may belong to another equal algebra


# elements sampled by find_csa before it gives up
CSA_ATTEMPTS = 400


def find_csa(g: LieAlgebra, seed: int = 0) -> Subspace:
    """Cartan subalgebra by Engel-kernel descent.

    Samples rational elements of growing coefficient height, takes the
    Engel subalgebra, and recurses inside it whenever the dimension
    strictly drops.  When a level stops shrinking it is checked to be
    nilpotent and self-normalizing in the ambient algebra; failure
    resumes sampling.  Deterministic in (table, seed).

    Each level is a span of g with its canonical basis: an element is
    drawn in coordinates of that basis and taken into g, and ad of it
    restricted to the span, in that basis, is the ad of the level's own
    structure constants, so no table of the level is built.
    """
    if g.dim == 0:
        return zero_space(g)
    current = full_space(g)
    basis = current.basis
    rng = random.Random(seed)
    for attempt in range(CSA_ATTEMPTS):
        d = current.dim
        if attempt < d:
            x = basis[attempt]
        else:
            height = 1 + attempt // 20
            x_local = tuple(
                Fraction(rng.randint(-height, height)) for _ in range(d)
            )
            if is_zero_vector(x_local):
                continue
            x = combine(x_local, basis, g.dim)
        # on all of g the restriction is ad(x) itself
        ad = g.ad_integer(x) if d == g.dim else restrict_operators([g.ad_integer(x)], basis)[0]
        e_local = generalized_kernel(ad)
        if len(e_local) < d:
            current = Subspace(g, matmul(e_local, basis))
            if not current.is_subalgebra():
                raise StructureError("span is not closed under the bracket")
            basis = current.basis
            continue
        if subspace_is_nilpotent(current) and normalizer(g, current) == current:
            return current
    raise AlgebraError("no Cartan subalgebra found within the attempt budget")


# -- splitting a compact-type algebra ----------------------------------------


@dataclass(frozen=True)
class CompactSplit:
    semisimple: Subspace
    central: Subspace
    reductive: bool


def compact_levi_split(g: LieAlgebra, k: Subspace) -> CompactSplit:
    """k = [k, k] + center(k), checked to be direct and exhaustive."""
    kstar = bracket_space(k, k)
    t1 = centralizer(g, k).intersect(k)
    direct = kstar.intersect(t1).dim == 0
    total = kstar.sum(t1).dim == k.dim
    return CompactSplit(kstar, t1, direct and total)


@dataclass(frozen=True)
class EllipticityReport:
    all_axis: bool
    killing_neg_semidefinite: bool
    kernel_matches_center: bool

    @property
    def passed(self) -> bool:
        return (
            self.all_axis
            and self.killing_neg_semidefinite
            and self.kernel_matches_center
        )


def ellipticity_proxy(g: LieAlgebra, k: Subspace) -> EllipticityReport:
    """Necessary conditions for k to integrate to a compact isotropy."""
    all_axis = True
    for v in k.basis:
        c = operator_sign_counts(g.ad_integer(v))
        if c.n_neg or c.n_pos:
            all_axis = False
            break
    if k.dim == 0:
        return EllipticityReport(True, True, True)
    # ad(v) on k for each basis vector v of k; None when [v, k] leaves k,
    # so this is the closure test
    rs = restrict_operators([g.ad_integer(v) for v in k.basis], k.basis)
    if None in rs:
        return EllipticityReport(all_axis, False, False)
    den = lcm(*(r.den for r in rs))
    ops = [[[x * (den // r.den) for x in row] for row in r.rows] for r in rs]
    # the Killing form of k is the trace form of its adjoint; a symmetric
    # matrix has only real eigenvalues, so the sign counts of its
    # characteristic polynomial are its inertia (Sylvester)
    inertia = operator_sign_counts(_trace_form(ops, den))
    # the center of k is the common kernel of the ad(v) on k
    zdim = k.dim - _integer_echelon([row for op in ops for row in op]).rank
    return EllipticityReport(all_axis, inertia.n_pos == 0, inertia.n_zero_real == zdim)


# -- the Cartan subalgebra attached to an action datum ------------------------


@dataclass(frozen=True)
class ActionCsa:
    csa: Subspace
    flow: Subspace  # acting span, bracket-corrected to commute with [k, k]
    abelian: Subspace  # maximal abelian subalgebra of [k, k]
    central: Subspace  # center of k
    corrected: bool


def _inner_solution(
    g: LieAlgebra, span: Matrix, domain: Matrix, images: Matrix
) -> Vector | None:
    """Some y in the span of `span` with [y, d_j] = images[j] for each d_j in
    `domain`, or None.

    Row i of the system is the integer brackets [s_i, d_j] laid end to end
    over j, and the images laid end to end are mapped into the span of
    those rows by one `Coordinates` elimination.  When some element of the
    span centralizes the domain the rows are dependent, and y is one of
    several answers.
    """
    (ts, ds), (td, dd) = _integer_terms(span), _integer_terms(domain)
    p = len(td)
    brs = g._int_brackets(ts, td)  # [s_i, d_j] times ds dd _den at i p + j
    rows = [[x for b in brs[i * p : (i + 1) * p] for x in b] for i in range(len(ts))]
    want, e = _integer_form(images)
    scale = ds * dd * g._den
    (coords,), den = Coordinates(rows).map_integer(
        [[x * scale for row in want for x in row]], e
    )
    if coords is None:
        return None
    return combine(_from_integer([coords], den)[0], span, g.dim)


def inner_corrected_flow(
    g: LieAlgebra, h: Subspace, k: Subspace
) -> tuple[Subspace, CompactSplit, bool]:
    """The flow span corrected to commute with [k, k], and the split of k.

    Each flow generator that fails to commute with [k, k] is replaced by
    itself minus the inner representative of its action on [k, k]; the
    flag says whether any generator was replaced.  Raises when k does not
    split as [k, k] + center(k) or a generator has no inner representative.
    """
    split = compact_levi_split(g, k)
    if not split.reductive:
        raise StructureError(
            "isotropy span does not split as derived subalgebra plus center"
        )
    kstar = split.semisimple.basis
    corrected = False
    flow_vecs = []
    for v in h.basis:
        images = g.brackets((v,), kstar)
        if not any(map(any, images)):
            flow_vecs.append(v)
            continue
        nu = _inner_solution(g, kstar, kstar, images)
        if nu is None:
            raise StructureError(
                "flow generator does not act on the isotropy by an inner derivation"
            )
        corrected = True
        flow_vecs.append(vec_sub(v, nu))
    return Subspace(g, flow_vecs), split, corrected


def csa_from_action(g: LieAlgebra, h: Subspace, k: Subspace) -> ActionCsa:
    """Assemble flow + maximal abelian of [k, k] + center(k) into a CSA.

    The flow span is inner-corrected to commute with [k, k] first.  The
    assembled span is verified by is_csa; failure raises, signalling an
    inconsistent input rather than a wrong certificate.
    """
    flow, split, corrected = inner_corrected_flow(g, h, k)
    kstar, t1 = split.semisimple, split.central
    a0 = zero_space(g)
    while True:
        c = kstar if a0.dim == 0 else centralizer(g, a0).intersect(kstar)
        grown = False
        for v in c.basis:
            if not a0.contains(v):
                a0 = Subspace(g, a0.basis + (v,))
                grown = True
                break
        if not grown:
            break
    csa = flow.sum(a0).sum(t1)
    if not is_csa(g, csa):
        raise AlgebraError(
            "assembled span is not a Cartan subalgebra; the action datum "
            "is inconsistent"
        )
    return ActionCsa(csa, flow, a0, t1, corrected)


# -- hyperbolic elements and Cartan subspaces --------------------------------


def _ad_spectrum(g: LieAlgebra, x: Vector) -> tuple[bool, RationalPolynomial]:
    """(ad(x) is hyperbolic, the squarefree part of its characteristic
    polynomial), memoised in `g._cache` by the tuple x, with no reference
    back to g, so each vector's polynomial is computed once."""
    memo = g._cache.setdefault("ad_hyperbolic", {})
    key = tuple(x)
    entry = memo.get(key)
    if entry is None:
        a = g.ad_integer(x)
        m = squarefree_part(char_poly(a))
        verdict = count_real_roots_squarefree(m) == m.degree and not any(
            map(any, apply_poly(m, a).rows)
        )
        entry = memo[key] = (verdict, m)
    return entry


def is_ad_hyperbolic(g: LieAlgebra, x: Vector) -> bool:
    """ad(x) is semisimple with all-real spectrum: its squarefree part m has
    only real roots and m(ad x) = 0.  Decided once per vector (`_ad_spectrum`)."""
    return _ad_spectrum(g, x)[0]


def solve_ad(g: LieAlgebra, target: IntMatrix) -> Vector | None:
    """Some y with ad(y) = target, or None.  Unique up to the center.

    Column j of the target is [y, e_j], solved over the unit basis.
    """
    rows, d = target
    unit = identity(g.dim)
    return _inner_solution(g, unit, unit, IntMatrix([list(c) for c in zip(*rows)], d))


def hyperbolic_part(g: LieAlgebra, x: Vector) -> Vector | None:
    """y with ad(y) = hyperbolic part of ad(x), when exactly available.

    The refinement of ad(x) must be exact and its hyperbolic part must
    itself be an inner derivation; both hold in a semisimple algebra.
    An ad-hyperbolic x is its own hyperbolic part and is returned as is.
    When every eigenvalue of ad(x) lies on the imaginary axis (a nilpotent
    or elliptic x), the hyperbolic part is 0 without Jordan-Chevalley.
    """
    hyperbolic, m = _ad_spectrum(g, x)
    if hyperbolic:
        return x
    if squarefree_sign_counts(m).n_zero_real == m.degree:
        return (Fraction(0),) * g.dim
    jc = jordan_chevalley(g.ad_integer(x))
    return solve_ad(g, jc.hyperbolic) if jc.exact else None


def hyperbolic_span(g: LieAlgebra, vectors: Sequence[Vector]) -> Subspace | None:
    """Span of the hyperbolic parts of `vectors`; None once one is not exact."""
    parts = []
    for v in vectors:
        h = hyperbolic_part(g, v)
        if h is None:
            return None
        parts.append(h)
    return Subspace(g, parts)


def cartan_subspace(g: LieAlgebra) -> Subspace:
    """Maximal abelian span of ad-hyperbolic elements, grown greedily.

    Requires a semisimple algebra.  Candidates are scanned in canonical
    basis order of the current centralizer, using each element's exact
    hyperbolic part (the element itself when hyperbolic), so the result
    is deterministic.
    """
    if radical(g).dim != 0:
        raise StructureError("Cartan subspaces require a semisimple algebra")
    a = zero_space(g)
    while True:
        c = full_space(g) if a.dim == 0 else centralizer(g, a)
        extended = False
        for v in c.basis:
            if a.contains(v):
                continue
            cand = hyperbolic_part(g, v)
            if cand is None or is_zero_vector(cand) or a.contains(cand):
                continue
            if any(not is_zero_vector(g.bracket(cand, b)) for b in a.basis):
                continue
            a = Subspace(g, a.basis + (cand,))
            extended = True
            break
        if not extended:
            break
    for v in a.basis:
        if not is_ad_hyperbolic(g, v):
            raise AlgebraError("candidate span contains a non-hyperbolic element")
    return a


# -- restricted roots ---------------------------------------------------------


@dataclass(frozen=True)
class RootInfo:
    """One joint invariant subspace of a commuting ad-family.

    values holds the exact rational functional (per base vector) when
    available.  Otherwise value_minpolys carries the exact minimal
    polynomial of each family of pairings and value_floats one numeric
    witness (re, im) per base vector: the root of largest modulus of that
    minimal polynomial, ties to the larger real part and then to the
    nonnegative imaginary part, which is exactly 0.0 for a real root.
    For exact values, value_floats holds (float(value), 0.0).
    """

    multiplicity: int
    space: Matrix
    values: tuple[Fraction, ...] | None
    value_minpolys: tuple[RationalPolynomial, ...] | None
    value_floats: tuple[tuple[float, float], ...]
    exact: bool

    @property
    def is_zero(self) -> bool:
        return self.values is not None and all(v == 0 for v in self.values)


@dataclass(frozen=True)
class RootSystem:
    base: Matrix  # basis of the Cartan subspace the functionals pair with
    roots: tuple[RootInfo, ...]
    exact: bool
    zero_complement: Matrix  # Killing-perp of the base in the zero space

    def nonzero_roots(self) -> tuple[RootInfo, ...]:
        return tuple(r for r in self.roots if not r.is_zero)


def _zero_complement(g: LieAlgebra, base: Matrix, zero_rows: Matrix) -> Matrix:
    """Killing-perp of span(base) inside span(zero_rows)."""
    if not zero_rows:
        return ()
    if base:
        # rows per base vector, columns per zero-space vector
        pairings = matmul(matmul(base, killing_form(g)), transpose(zero_rows))
        combos = nullspace(pairings)
    else:
        combos = tuple(identity(len(zero_rows)))
    comp = row_basis(matmul(combos, zero_rows))
    a_space = Subspace(g, base)
    c_space = Subspace(g, comp)
    if a_space.intersect(c_space).dim != 0:
        raise AlgebraError("zero space does not split off the Cartan subspace")
    if a_space.sum(c_space).dim != len(zero_rows):
        raise AlgebraError("zero-space split misses directions")
    return c_space.basis


def _scalar(r: IntMatrix) -> Fraction | None:
    """alpha when the d x d restriction r = R / den is alpha plus a
    nilpotent, else None.

    alpha can only be tr R / (d den), and r - alpha is nilpotent exactly
    when N = d R - (tr R) I is, that is when N^d = 0, the same criterion as
    r's characteristic polynomial being (t - alpha)^d.  N is squared until
    it vanishes or its power reaches d, all in integers; at d = 1, N = 0.
    """
    rows, den = r
    d = len(rows)
    tr = sum(rows[i][i] for i in range(d))
    n = [[d * x - tr * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    power = 1
    while power < d and any(map(any, n)):
        n = _int_matmul(n, n)
        power *= 2
    return None if any(map(any, n)) else Fraction(tr, d * den)


def _primary_rows(
    op: IntMatrix, phi: RationalPolynomial, mult: int
) -> tuple[list[list[int]], list[int]]:
    """The primary component of op for the factor phi of multiplicity mult
    of its characteristic polynomial: the reduced integer rows and pivots
    of the generalized kernel of phi(op), of dimension mult deg phi."""
    return _int_generalized_kernel(apply_poly(phi, op).rows, mult * phi.degree)


def _restrict_block(
    ads: Sequence[IntMatrix], ker: list[list[int]], pivots: list[int]
) -> list[IntMatrix]:
    """Each ad restricted to the block span(ker), in the basis ker, read off
    the pivots.

    The rows of ker are reduced: each is zero at the others' pivots, so
    the coordinate of an image u on row j is u[p_j] / ker[j][p_j], and u
    lies in the block exactly when it is the sum of those multiples of
    the rows, which one integer product checks.  The ads commute with
    every operator whose primary components are cut here, so a
    restriction cannot leave its block: one that does raises AlgebraError.
    """
    m = lcm(*(row[c] for row, c in zip(ker, pivots)))
    scales = [m // row[c] for row, c in zip(ker, pivots)]
    out = []
    for rows, den in ads:
        images = _int_matmul(ker, [list(c) for c in zip(*rows)])  # row j: the ad of ker[j]
        coords = [[u[c] * s for c, s in zip(pivots, scales)] for u in images]
        if _int_matmul(coords, ker) != [[m * x for x in u] for u in images]:
            raise AlgebraError("joint invariant subspace lost invariance")
        out.append(IntMatrix([list(c) for c in zip(*coords)], m * den))
    return out


def _integer_blocks(
    ads: Sequence[IntMatrix],
    op: IntMatrix,
    factors: list[tuple[RationalPolynomial, int]],
    base: list[list[int]] | None,
) -> list[tuple[list[list[int]], tuple[Fraction, ...]]] | None:
    """The joint blocks of the ads inside the primary components of op, each
    as integer rows spanning it in g, with its values, or None once a
    factor is not linear.

    The ads span a nilpotent Lie algebra of operators (a commuting family
    does) that holds op, so each primary component of one of them is
    invariant under all (Jacobson, Lie Algebras, 1962, ch. II).  factors
    are those of op's characteristic polynomial, and the ads and op act
    in the coordinates of the rows of `base` in g, or of g itself when
    base is None.  A component on which every ad is alpha plus a
    nilpotent is one joint block, with those alphas as its values; on any
    other, the first ad that is not splits it by its own primary
    decomposition, in the component's basis, and so on down.  A factor
    that is not linear means an irrational value.  A component's basis
    is the reduced rows of `_primary_rows`, times `base` when there is
    one: a product of reduced rows is reduced, up to the content of each
    row.  No `Fraction` row is built here.
    """
    if any(phi.degree > 1 for phi, _ in factors):
        return None
    out = []
    for phi, mult in factors:
        ker, pivots = _primary_rows(op, phi, mult)
        rs = _restrict_block(ads, ker, pivots)
        space = ker if base is None else _int_matmul(ker, base)
        values = []
        for r in rs:
            alpha = _scalar(r)
            if alpha is None:
                inner = _integer_blocks(rs, r, factor_with_multiplicity(char_poly(r)), space)
                if inner is None:
                    return None
                out.extend(inner)
                break
            values.append(alpha)
        else:
            out.append((space, tuple(values)))
    return out


def _generic(
    g: LieAlgebra, a: Subspace, lam: int
) -> tuple[IntMatrix, list[tuple[RationalPolynomial, int]]]:
    """ad of the generic element sum_i lam^i a_i of a, and the factors of
    its characteristic polynomial."""
    coeffs = [Fraction(lam) ** i for i in range(a.dim)]
    a_star = g.ad_integer(combine(coeffs, a.basis, g.dim))
    return a_star, factor_with_multiplicity(char_poly(a_star))


# generic elements lam = 1, 2, ... of the Cartan subspace that order the roots
GENERIC_TRIES = 60


def _in_factor_order(
    blocks: list[tuple[list[list[int]], tuple[Fraction, ...]]]
) -> list[tuple[list[list[int]], tuple[Fraction, ...]]] | None:
    """The joint blocks in the order in which `factor_with_multiplicity`
    lists their factors b t - a (`factor_key`, the block's dimension as
    multiplicity) for the generic element sum_i lam^i a_i of value a/b on
    each, at the first lam in 1..GENERIC_TRIES where these values are
    pairwise distinct; None when there is no such lam.  The values are
    integers over one common denominator, so each generic value is an
    integer and only its key is brought to lowest terms."""
    nums, den = _integer_form([vals for _, vals in blocks])
    for lam in range(1, GENERIC_TRIES + 1):
        vs = [sum(lam**i * x for i, x in enumerate(row)) for row in nums]
        if len(set(vs)) == len(vs):
            keys = [
                factor_key([-v // gcd(v, den), den // gcd(v, den)], len(rows))
                for v, (rows, _) in zip(vs, blocks)
            ]
            return [blocks[b] for b in sorted(range(len(blocks)), key=keys.__getitem__)]
    return None


def restricted_roots(g: LieAlgebra, a: Subspace) -> RootSystem:
    """Joint spectral decomposition of g under a Cartan subspace.

    One generic element, sum_i a_i, is factored; when every factor is
    linear, its primary components are split into the joint blocks by
    `_integer_blocks`.  When every joint value is rational, the roots come
    in the order of `_in_factor_order`: that of the first generic element
    sum_i lam^i a_i, lam = 1, 2, ..., whose primary components are the
    joint blocks.  Otherwise exact blocks with algebraic value descriptors
    are returned: the primary components of the generic element at
    lam = GENERIC_TRIES when some lam <= 8 has only linear factors, else
    at lam = 8, where only a block on which every operator is nilpotent
    keeps its exact (zero) values.
    """
    if radical(g).dim != 0:
        raise StructureError("root decomposition requires a semisimple algebra")
    n = g.dim
    if a.dim == 0:
        whole = RootInfo(n, tuple(identity(n)), (), None, (), True)
        return RootSystem((), (whole,), True, whole.space)
    if not a.is_abelian():
        raise StructureError("root decomposition requires an abelian base")
    ads = [g.ad_integer(v) for v in a.basis]
    a_star, factors = _generic(g, a, 1)
    joint = _integer_blocks(ads, a_star, factors, None)
    ordered = None if joint is None else _in_factor_order(joint)
    if ordered is not None:
        infos = tuple(
            RootInfo(
                len(rows),
                _rref_rows(*_integer_reduced(rows)),
                vals,
                None,
                tuple((float(v), 0.0) for v in vals),
                True,
            )
            for rows, vals in ordered
        )
        zero_rows = next((r.space for r in infos if r.is_zero), ())
        return RootSystem(a.basis, infos, True, _zero_complement(g, a.basis, zero_rows))
    lam, linear = 1, all(phi.degree == 1 for phi, _ in factors)
    while not linear and lam < min(8, GENERIC_TRIES):
        lam += 1
        a_star, factors = _generic(g, a, lam)
        linear = all(phi.degree == 1 for phi, _ in factors)
    if linear and lam != GENERIC_TRIES:
        a_star, factors = _generic(g, a, GENERIC_TRIES)
    infos = []
    zero_rows: Matrix = ()
    for phi, mult in factors:
        rows, pivots = _primary_rows(a_star, phi, mult)
        rs = _restrict_block(ads, rows, pivots)
        ker = _rref_rows(rows, pivots)
        alphas = tuple(map(_scalar, rs))
        if all(x == 0 for x in alphas):
            infos.append(RootInfo(len(ker), ker, alphas, None, ((0.0, 0.0),) * len(ads), True))
            zero_rows = ker
            continue
        minpolys = tuple(squarefree_part(char_poly(r)) for r in rs)
        floats = tuple(map(_largest_root, minpolys))
        infos.append(RootInfo(len(ker), ker, None, minpolys, floats, False))
    comp = _zero_complement(g, a.basis, zero_rows)
    return RootSystem(a.basis, tuple(infos), False, comp)


# Weierstrass sweeps of _largest_root, at most
WITNESS_SWEEPS = 500


def _largest_root(m: RationalPolynomial) -> tuple[float, float]:
    """(re, im) of the root of largest modulus of the monic squarefree m.

    Ties, moduli within a relative 1e-9, go to the larger real part, then
    to the nonnegative imaginary part.  The roots are approximated by the
    Weierstrass (Durand-Kerner) iteration on Python complex numbers, run
    on m(B s) / B^n for m's power-of-two root bound B: its roots and its
    coefficients are at most 1 in modulus, so no value overflows, and the
    start is a spiral inside the unit circle.  The sweeps stop when every
    approximation z has |m(z)| within the rounding bound of Horner's rule,
    n 2^-51 times the sum of |c_i| |z|^i, beyond which a step is noise; an
    approximation that is not finite, or no stop within `WITNESS_SWEEPS`
    sweeps, raises AlgebraError.  m has exactly
    `count_real_roots_squarefree(m)` real roots: the roots that many
    nearest the real axis get the imaginary part 0.0, and every other one
    is taken in the upper half plane, where its conjugate lies too.  Its
    roots on the imaginary axis are counted exactly too
    (`squarefree_sign_counts`), and the roots that many nearest that axis
    get the real part 0.0.
    """
    bound = power_of_two_root_bound(m)
    if not bound:
        return 0.0, 0.0  # m = t
    n = m.degree
    cs = [float(c / bound ** (n - i)) for i, c in enumerate(m.coeffs)]
    zs = [complex(0.4, 0.9) ** k for k in range(n)]
    try:
        for _ in range(WITNESS_SWEEPS):
            settled = True
            for i, z in enumerate(zs):
                value, size = 0j, 0.0
                for c in reversed(cs):
                    value = value * z + c
                    size = size * abs(z) + abs(c)
                settled = settled and abs(value) <= n * 2.0**-51 * size
                for j, w in enumerate(zs):
                    if j != i:
                        value /= z - w
                zs[i] = z - value
            if settled or not all(map(cmath.isfinite, zs)):
                break
    except ZeroDivisionError:  # two approximations met
        settled = False
    if not settled or not all(map(cmath.isfinite, zs)):
        raise AlgebraError("the root witness iteration did not settle")
    zs = sorted((float(bound) * z for z in zs), key=lambda z: abs(z.imag))
    real = count_real_roots_squarefree(m)
    zs = [complex(z.real, 0.0 if k < real else abs(z.imag)) for k, z in enumerate(zs)]
    zs.sort(key=lambda z: abs(z.real))
    axis = squarefree_sign_counts(m).n_zero_real
    zs = [complex(0.0 if k < axis else z.real, z.imag) for k, z in enumerate(zs)]
    top = max(map(abs, zs))
    best = max((z for z in zs if abs(z) >= top * (1 - 1e-9)), key=lambda z: (z.real, z.imag))
    return best.real, best.imag


# -- Weyl chambers ------------------------------------------------------------


@dataclass(frozen=True)
class Chamber:
    signs: tuple[int, ...]
    sample: Vector  # coordinates w.r.t. the root-system base


@dataclass(frozen=True)
class ChamberSet:
    representatives: Matrix  # one functional per +- pair, canonical sign
    chambers: tuple[Chamber, ...]

    @property
    def count(self) -> int:
        return len(self.chambers)


def _fm_extend(
    levels: tuple[tuple[tuple[int, ...], ...], ...], *rows: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
    """The Fourier-Motzkin levels of a feasible system with each row . x > 0 added.

    A system {x in Q^k : r . x > 0 for every row r} of primitive integer
    rows is held as its levels: levels[d] is the system in k - d
    variables, each combination made primitive and duplicates dropped,
    and eliminating its last variable gives levels[d + 1].  The empty
    system is k empty levels, and level 0 keeps the rows in the order they
    were added.  Positive scaling and repetition of a row change neither
    the set nor the sample bounds.  Only the rows the new rows create are
    added.  At each level, the rows not yet in it eliminate its last
    variable: a row whose coefficient there is 0 is truncated, any other
    is combined (made primitive) with every row of the level of the
    opposite sign, the other new rows included.  So each level holds the
    same set of rows as eliminating the whole system again.  Returns None
    when the system becomes empty, that is when a zero row appears; after
    the last elimination every row is the empty, zero row.
    """
    k = len(levels)
    out = []
    new = list(rows)
    for d, level in enumerate(levels):
        seen = set(level)
        fresh = []
        for r in new:
            if r not in seen:
                if not any(r):
                    return None
                seen.add(r)
                fresh.append(r)
        if not fresh:
            return (*out, *levels[d:])
        out.append(level + tuple(fresh))
        j = k - 1 - d
        new = []
        lows = ups = None
        for r in fresh:
            c = r[j]
            if c == 0:
                new.append(r[:j])
                continue
            if lows is None:
                lows = [o for o in level if o[j] > 0]
                ups = [o for o in level if o[j] < 0]
            if c > 0:
                new.extend(_fm_combine(r, up, j) for up in ups)
                lows.append(r)
            else:
                new.extend(_fm_combine(lo, r, j) for lo in lows)
                ups.append(r)
    return None if new else tuple(out)


def _fm_combine(lo: tuple[int, ...], up: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Primitive combination of lo (lo[j] > 0) and up (up[j] < 0) free of x_j."""
    a, b = lo[j], up[j]
    return tuple(primitive([a * up[i] - b * lo[i] for i in range(j)]))


def _fm_sample(levels: Sequence[tuple[tuple[int, ...], ...]]) -> Vector:
    """Rational interior point of a nonempty system, from its levels (`_fm_extend`).

    Back-substitution from the one-variable level up: coordinate j is the
    midpoint of its bounds -(r . x)/r_j given the earlier coordinates, or
    one past the only bound, or 1.  The earlier coordinates are held as
    integer numerators over one common denominator, so each bound is an
    integer over that denominator times r_j; bounds are compared by
    cross-multiplication and a `Fraction` is built only for the chosen
    coordinate.
    """
    x: list[Fraction] = []
    nums: list[int] = []  # x = nums / den
    den = 1
    for rows in reversed(levels):
        j = len(nums)
        lo = up = None  # (s, c): the bound -s / (den c)
        for r in rows:
            c = r[j]
            if c == 0:
                continue
            s = sum(map(mul, r, nums))
            if c > 0:
                if lo is None or lo[0] * c > s * lo[1]:
                    lo = (s, c)
            elif up is None or up[0] * c < s * up[1]:
                up = (s, c)
        if lo is not None and up is not None:
            v = Fraction(-(lo[0] * up[1] + up[0] * lo[1]), 2 * den * lo[1] * up[1])
        elif lo is not None:
            v = Fraction(den * lo[1] - lo[0], den * lo[1])
        elif up is not None:
            v = Fraction(-den * up[1] - up[0], den * up[1])
        else:
            v = _ONE
        scale = lcm(den, v.denominator) // den
        if scale != 1:
            nums = [n * scale for n in nums]
            den *= scale
        nums.append(v.numerator * (den // v.denominator))
        x.append(v)
    return tuple(x)


def _reflections(
    reps: list[Vector], k: int
) -> tuple[list[int], list[list[int]]] | None:
    """The simple roots and the reflections of a root system, or None.

    reps are the positive roots of the arrangement R = reps u -reps,
    distinct and lex-positive, read as integer vectors over one common
    denominator: root i is reps[i] and root n + i its negative.  R passes
    when
    - its indecomposable roots, the positive ones that are no sum of two
      positive roots, are k independent roots, the simple roots; every
      positive root is then a sum of simple roots, as both terms of a sum
      of lex-positive roots come before it in lex order;
    - for each positive alpha, s(beta) = beta - c(beta) alpha maps R into
      R, where the linear c has c(delta) = p - q on each simple delta,
      for the alpha-string delta - p alpha, ..., delta + q alpha through
      delta (0 counts as a member), and c(alpha) = 2.
    Every root system passes, a non-reduced one too (Humphreys,
    Reflection Groups and Coxeter Groups, 1.3-1.14; Bourbaki, Lie Groups
    and Lie Algebras, ch. VI 1), and whatever passes is one: the chamber
    on which every positive root is positive has the simple roots as its
    walls, and each s is an involution that negates alpha, fixes the
    points of its hyperplane and permutes R, so it maps a chamber with
    the wall alpha onto the chamber across that wall, and the walls of
    the one onto those of the other.  Returns the indices of the simple
    roots and, for each positive alpha, the index of s(beta) for every
    root index beta; the guard is integer arithmetic and set lookups only.
    """
    n = len(reps)
    roots = [tuple(row) for row in _integer_form(reps).rows]
    index = {r: i for i, r in enumerate(roots)}
    parts = {}  # b: (i, j) with roots[b] = roots[i] + roots[j]
    for i, r in enumerate(roots):
        for j in range(i, n):
            b = index.get(tuple(map(add, r, roots[j])))
            if b is not None and b not in parts:
                parts[b] = i, j
    simple = [i for i in range(n) if i not in parts]
    if len(simple) != k or k > 1 and _integer_echelon([list(roots[i]) for i in simple]).rank < k:
        return None
    # roots[i], roots[j] <lex roots[b]: each root is a sum of simple roots
    order = sorted(parts, key=roots.__getitem__)
    index.update((tuple([-x for x in r]), n + i) for i, r in enumerate(roots))
    members = index.keys() | {(0,) * k}
    tables = []
    for a, alpha in enumerate(roots):
        c = [0] * n
        for s in simple:
            p = q = 0
            v = tuple(map(sub, roots[s], alpha))
            while v in members:
                p += 1
                v = tuple(map(sub, v, alpha))
            v = tuple(map(add, roots[s], alpha))
            while v in members:
                q += 1
                v = tuple(map(add, v, alpha))
            c[s] = p - q
        for b in order:
            i, j = parts[b]
            c[b] = c[i] + c[j]
        if c[a] != 2:
            return None
        table = [
            index.get(tuple([x - cb * y for x, y in zip(beta, alpha)]))
            for beta, cb in zip(roots, c)
        ]
        if None in table:
            return None
        tables.append(table + [(t + n) % (2 * n) for t in table])
    return simple, tables


def _crossed_chambers(
    rows: list[tuple[int, ...]], simple: list[int], tables: list[list[int]]
) -> list[tuple[tuple[int, ...], tuple]]:
    """(signs, levels) of every chamber of a root system (`_reflections`),
    in binary order, levels being the elimination of its k walls alone.

    Depth first from the all-plus chamber, whose walls are the simple
    roots: crossing the wall alpha flips the signs of every representative
    on alpha's line (alpha and 2 alpha in BC) and maps the walls by
    s_alpha.  A chamber is held as the bit mask of its minus signs.
    """
    n = len(rows)
    signed = rows + [tuple([-x for x in r]) for r in rows]
    lines: dict[tuple[int, ...], int] = {}
    for i, r in enumerate(rows):
        lines[r] = lines.get(r, 0) | 1 << i
    flips = [lines[r] for r in rows]
    walls = {0: simple}
    stack = [0]
    while stack:
        mask = stack.pop()
        ws = walls[mask]
        for w in ws:
            a = w % n
            crossed = mask ^ flips[a]
            if crossed not in walls:
                walls[crossed] = [tables[a][x] for x in ws]
                stack.append(crossed)
    empty = ((),) * len(simple)
    return [
        (
            tuple([-1 if mask >> i & 1 else 1 for i in range(n)]),
            _fm_extend(empty, *[signed[w] for w in walls[mask]]),
        )
        for mask in sorted(walls)
    ]


def _searched_chambers(
    rows: list[tuple[int, ...]], k: int
) -> list[tuple[tuple[int, ...], tuple]]:
    """(signs, levels) of every chamber of the arrangement of rows, in
    binary order, by a depth-first search over signs.

    Signs are assigned from the last row to the first and + before -.  A
    partial assignment is extended only while its system is feasible,
    decided by exact Fourier-Motzkin elimination; each node of the
    search extends its parent's elimination by its one new row
    (`_fm_extend`).
    """
    out = []

    def visit(i: int, signs: tuple[int, ...], levels) -> None:
        # levels: the elimination of rows[i:] signed by signs
        if i == 0:
            out.append((signs, levels))
            return
        row = rows[i - 1]
        for s, signed in ((1, row), (-1, tuple(-x for x in row))):
            extended = _fm_extend(levels, signed)
            if extended is not None:
                visit(i - 1, (s,) + signs, extended)

    visit(len(rows), (), ((),) * k)
    return out


def weyl_chambers(rs: RootSystem) -> ChamberSet:
    """Connected components of the base minus the root hyperplanes.

    The hyperplanes may be any rational arrangement, not only those of a
    root system.  The chambers come out in the order of their sign
    vectors read as binary numbers (- is a one bit, the first root
    representative the lowest bit).  When there are more representatives
    than the rank k and they pass the integer root-system guard
    (`_reflections`), the chambers are reached by crossing walls with the
    reflections of the Weyl group, each eliminated on its k walls alone
    (`_crossed_chambers`).  Every other arrangement goes to a depth-first
    search over signs by exact Fourier-Motzkin elimination
    (`_searched_chambers`); a root system with at most k representatives
    is k independent lines, all of whose sign vectors the search visits
    without a dead end.  A sample point depends only on its open cone
    (each coordinate is a fiber midpoint, one past the only bound, or 1,
    of the exact projection of the cone), so both paths give the same
    ChamberSet.  Every sample point is re-checked against all its strict
    inequalities, in integers, and a failure raises AlgebraError.
    """
    if not rs.exact:
        raise StructureError("chamber enumeration requires exact root values")
    k = len(rs.base)
    if k == 0:
        return ChamberSet((), ())
    reps: list[Vector] = []
    for r in rs.nonzero_roots():
        v = vector(r.values)
        lead = next((x for x in v if x != 0), None)
        if lead is None:
            continue
        if lead < 0:
            v = tuple(-x for x in v)
        if v not in reps:
            reps.append(v)
    # positive multiples of reps, so each has the sign of its representative
    rows = [tuple(integer_row(rep)) for rep in reps]
    system = _reflections(reps, k) if len(reps) > k else None
    cones = _searched_chambers(rows, k) if system is None else _crossed_chambers(rows, *system)
    chambers = []
    for signs, levels in cones:
        sample = _fm_sample(levels)
        point = integer_row(sample)  # a positive multiple of sample
        for s, row in zip(signs, rows):
            if s * sum(map(mul, row, point)) <= 0:
                raise AlgebraError("chamber sample point fails its inequalities")
        chambers.append(Chamber(signs, sample))
    return ChamberSet(tuple(reps), tuple(chambers))
