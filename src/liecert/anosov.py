"""Anosov criterion, element search, and the classification driver.

The acceptance test is fully exact: a flow element is certified Anosov
when its adjoint restricted to the flow + isotropy span has purely
imaginary spectrum while the induced operator on the quotient has none,
which pins the neutral span.  The quotient matrix is never built: the
span is invariant, so the adjoint is block-triangular along it and the
quotient's characteristic polynomial p_q is the whole one divided by the
restricted one.  One factorization of p_q gives the gap and splits the
off-axis part exactly in three: the stable and unstable parts of the
factors with every root on one side of the axis, and the mixed part of
those with roots on both sides.  Each part is rational and invariant,
and the carrier is their sum; the mixed part is empty when p_q splits
by sign over Q.

The element search needs none of this while the weights are rational.
The flow is nilpotent, so g is the sum of its joint weight spaces B, each
invariant, ad(h) has the one eigenvalue lambda_B(h) on B, and flow +
isotropy is the sum of its parts in them.  Both counts of the criterion
are then sums of dimensions over the B where lambda_B(h) is or is not
zero, and a certificate's spaces and gap are read off the weight spaces
and the signs of the weights at h (`_weight_reader`): the root spaces of
a Cartan subspace in the Weyl chamber sweep, the weight spaces of the
flow in the grid/random search, which falls back to `check_anosov` per
candidate when a weight is irrational.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .algebra import (
    AlgebraError,
    LieAlgebra,
    StructureError,
    Subspace,
    ValidationError,
    as_subalgebra,
    bracket_space,
    full_space,
    lower_central_series,
    nilradical,
    quotient_by_ideal,
    radical,
    subspace_is_nilpotent,
    zero_space,
)
from .cartan import (
    ActionCsa,
    ChamberSet,
    _generic,
    _joint_blocks,
    cartan_subspace,
    csa_from_action,
    ellipticity_proxy,
    find_csa,
    hyperbolic_span,
    inner_corrected_flow,
    is_csa,
    restricted_roots,
    weyl_chambers,
)
from .linalg import (
    Echelon,
    Matrix,
    Vector,
    _integer_form,
    combine,
    integer_row,
    invariant_under,
    is_zero_vector,
    restrict_operator,
    row_basis,
    solve,
)
from .poly import root_sign_counts
from .spectral import (
    _gap,
    char_poly,
    invariant_splitting,
    line_factors,
    operator_sign_counts,
)


class Inconclusive(AlgebraError):
    """Search exhausted without a decision; not a negative result."""


_LATTICE_CAVEAT = (
    "cocompactness of the isotropy and existence of a suitable lattice "
    "are assumed, not computed"
)


# -- action data --------------------------------------------------------------


@dataclass(frozen=True)
class ActionCheck:
    flow_nilpotent: bool
    trivial_intersection: bool
    normalizes_isotropy: bool
    isotropy_elliptic: bool

    @property
    def ok(self) -> bool:
        return (
            self.flow_nilpotent
            and self.trivial_intersection
            and self.normalizes_isotropy
            and self.isotropy_elliptic
        )

    def summary(self) -> str:
        if self.ok:
            return "action datum valid"
        bad = []
        if not self.flow_nilpotent:
            bad.append("flow span is not a nilpotent subalgebra")
        if not self.trivial_intersection:
            bad.append("flow span meets the isotropy span")
        if not self.normalizes_isotropy:
            bad.append("flow span does not normalize the isotropy")
        if not self.isotropy_elliptic:
            bad.append("isotropy fails the ellipticity conditions")
        return "; ".join(bad)


class ActionSpec:
    """An algebra-level action datum: ambient algebra, flow span, isotropy."""

    __slots__ = ("ambient", "flow", "isotropy", "name", "_checked")

    def __init__(
        self,
        ambient: LieAlgebra,
        flow: Subspace,
        isotropy: Subspace | None = None,
        name: str | None = None,
    ):
        if isotropy is None:
            isotropy = zero_space(ambient)
        if flow.algebra is not ambient or isotropy.algebra is not ambient:
            raise StructureError("spans must live in the ambient algebra")
        self.ambient = ambient
        self.flow = flow
        self.isotropy = isotropy
        self.name = name
        self._checked: ActionCheck | None = None

    def validate(self) -> ActionCheck:
        if self._checked is not None:
            return self._checked
        g = self.ambient
        h, k = self.flow, self.isotropy
        try:
            flow_nil = subspace_is_nilpotent(h)
        except StructureError:
            flow_nil = False
        try:
            as_subalgebra(k)
            k_closed = True
        except StructureError:
            k_closed = False
        normal = k_closed and k.contains_space(bracket_space(h, k))
        elliptic = k_closed and ellipticity_proxy(g, k).passed
        self._checked = ActionCheck(
            flow_nil, h.intersect(k).dim == 0, normal, elliptic
        )
        return self._checked

    def require_valid(self) -> None:
        chk = self.validate()
        if not chk.ok:
            raise ValidationError(chk.summary())

    @property
    def joint(self) -> Subspace:
        return self.flow.sum(self.isotropy)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"ActionSpec(dim={self.ambient.dim}, flow={self.flow.dim}, "
            f"isotropy={self.isotropy.dim}{tag})"
        )


# -- the Anosov check ----------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    exact_carrier: bool
    exact_stable: bool
    exact_mixed: bool
    exact_unstable: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class AnosovCertificate:
    h0: Vector
    neutral: Matrix  # exactly the flow + isotropy span
    carrier: Matrix  # exact characteristic space of the off-axis part
    dim_stable: int
    dim_unstable: int
    stable_exact: Matrix
    mixed: Matrix  # the part of the factors with roots on both sides of the axis
    unstable_exact: Matrix
    gap: Fraction
    gap_exact: bool
    invariance: InvarianceReport | None

    accepted = True


@dataclass(frozen=True)
class AnosovRefusal:
    h0: Vector
    reason: str
    axis_outside: int  # eigenvalues on the imaginary axis outside flow+isotropy
    off_axis_inside: int  # off-axis eigenvalues inside the flow+isotropy span

    accepted = False


def check_anosov(action: ActionSpec, h0: Vector) -> AnosovCertificate | AnosovRefusal:
    """Certify h0 as an Anosov element of the action, or refuse exactly.

    Acceptance means: the adjoint of h0 restricted to flow + isotropy is
    purely imaginary, and the induced operator on the quotient has no
    imaginary-axis eigenvalue.  Both facts are decided by exact root
    counting, which makes the neutral space equal to flow + isotropy by
    an exact dimension argument.  Each fact is derived once (see the
    module docstring); `mixed` is () when p_q splits by sign over Q.
    """
    action.require_valid()
    if not action.flow.contains(h0):
        raise StructureError("candidate element is outside the flow span")
    g = action.ambient
    a = g.ad_integer(h0)
    w = action.joint
    restricted = restrict_operator(a, w.basis)
    if restricted is None:
        raise AlgebraError("flow + isotropy span is expected to be invariant")
    p_w = char_poly(restricted)
    p_q, rem = divmod(char_poly(a), p_w)
    if not rem.is_zero:
        raise AlgebraError("restricted characteristic polynomial does not divide the whole")
    counts_in = root_sign_counts(p_w)
    off_inside = counts_in.n_neg + counts_in.n_pos
    counts_out = root_sign_counts(p_q)
    if off_inside or counts_out.n_zero_real:
        return _refusal(h0, counts_out.n_zero_real, off_inside)
    dim_s, dim_u = counts_out.n_neg, counts_out.n_pos
    factors = line_factors(p_q)
    stable, mixed, unstable = invariant_splitting(a, factors)
    # the mixed part holds the rest of each count; without it the sides are the counts
    if (
        len(stable) > dim_s
        or len(unstable) > dim_u
        or len(stable) + len(mixed) + len(unstable) != dim_s + dim_u
    ):
        raise AlgebraError("stable, mixed and unstable spaces have the wrong dimensions")
    # p_q is the product of the three coprime products: its characteristic space is their sum
    carrier = row_basis(stable + mixed + unstable)
    if len(carrier) != dim_s + dim_u:
        raise AlgebraError("off-axis characteristic space has the wrong dimension")
    if Echelon(w.basis + carrier).rank != w.dim + len(carrier):
        raise AlgebraError("off-axis characteristic space meets the neutral span")
    gap, gap_exact = _gap(p_q, factors)
    if gap is None:
        # no off-axis part at all: every eigenvalue is neutral
        gap = Fraction(0)
    cert = AnosovCertificate(
        h0,
        w.basis,
        carrier,
        dim_s,
        dim_u,
        stable,
        mixed,
        unstable,
        gap,
        gap_exact,
        None,
    )
    return replace(cert, invariance=splitting_invariance(action, cert))


def _refusal(h0: Vector, axis_outside: int, off_inside: int) -> AnosovRefusal:
    """The refusal of h0 with its two counts, at least one nonzero, and its reason."""
    bits = (
        (off_inside, "off the imaginary axis inside"),
        (axis_outside, "on the imaginary axis outside"),
    )
    reason = "; ".join(f"{n} eigenvalues {where} the flow + isotropy span" for n, where in bits if n)
    return AnosovRefusal(h0, reason, axis_outside, off_inside)


def splitting_invariance(action: ActionSpec, cert: AnosovCertificate) -> InvarianceReport:
    """Check the certificate's parts are invariant under the whole flow span, exactly.

    The stable, mixed and unstable parts are tested one by one, and the
    carrier must be their sum, so its invariance follows from theirs.
    """
    g = action.ambient
    ads = [g.ad_integer(h) for h in action.flow.basis]
    violations: list[str] = []

    def invariant(basis: Matrix, name: str) -> bool:
        """Test basis against every flow ad, recording each failure."""
        bad = [i for i, ok in enumerate(invariant_under(ads, basis)) if not ok]
        violations.extend(f"{name} not invariant under flow generator {i}" for i in bad)
        return not bad

    exact_stable = invariant(cert.stable_exact, "stable space")
    exact_mixed = invariant(cert.mixed, "mixed space")
    exact_unstable = invariant(cert.unstable_exact, "unstable space")
    exact_carrier = exact_stable and exact_mixed and exact_unstable
    if cert.carrier != row_basis(cert.stable_exact + cert.mixed + cert.unstable_exact):
        exact_carrier = False
        violations.append("carrier is not the sum of the stable, mixed and unstable spaces")
    return InvarianceReport(
        exact_carrier, exact_stable, exact_mixed, exact_unstable, tuple(violations)
    )


def derived_ideal_check(action: ActionSpec, cert: AnosovCertificate) -> bool:
    """Stable and unstable directions lie in the derived ideal, exactly."""
    g = action.ambient
    derived = bracket_space(full_space(g), full_space(g))
    return derived.contains_space(Subspace(g, cert.carrier))


def action_csa(action: ActionSpec) -> ActionCsa:
    """Cartan subalgebra assembled from a validated action datum."""
    action.require_valid()
    return csa_from_action(action.ambient, action.flow, action.isotropy)


# -- element search ------------------------------------------------------------


def _weight_reader(
    action: ActionSpec, blocks: Sequence[tuple[Matrix, Sequence[Fraction]]]
) -> Callable[[Vector, Sequence[Fraction]], AnosovCertificate | AnosovRefusal]:
    """Decide flow elements off joint weight spaces, as `check_anosov` would.

    blocks holds pairs (B, values) for elements x_1, ..., x_k of the flow:
    subspaces B of g, invariant under every flow ad, on which
    ad(sum_i c_i x_i) has the one eigenvalue lambda_B(c) = sum_i c_i
    values_i.  The returned read(h0, c) decides h0 = sum_i c_i x_i.  Since
    w = flow + isotropy is the sum of its parts w & B, ad(h0) has
    dim(w & B) eigenvalues lambda_B(c) inside w and the other dim B
    outside, so the refusal's two counts are sums of these dimensions;
    on acceptance w is the sum of the B with lambda_B(c) = 0, the stable
    (unstable) space the sum of those with lambda_B(c) < 0 (> 0), the
    carrier the sum of the rest, and the gap min |lambda_B(c)|, attained:
    the canonical rows and values `check_anosov` gives.  The values and
    each c are integer rows over one denominator, so each sign is that of
    an integer dot product.  Raises AlgebraError when the blocks are not
    an invariant splitting of g that splits w too.
    """
    g, w = action.ambient, action.joint
    spaces = [space for space, _ in blocks]
    if sum(map(len, spaces)) != g.dim or Echelon(r for s in spaces for r in s).rank != g.dim:
        raise AlgebraError("weight spaces are not independent")
    ads = [g.ad_integer(v) for v in action.flow.basis]
    if not all(all(invariant_under(ads, s)) for s in spaces):
        raise AlgebraError("a weight space is not invariant under the flow")
    inside = [w.dim + len(s) - Echelon((*w.basis, *s)).rank for s in spaces]
    if sum(inside) != w.dim:
        raise AlgebraError("flow + isotropy is not the sum of its weight parts")
    weights = _integer_form([values for _, values in blocks])
    invariance = InvarianceReport(True, True, True, True, ())
    sums: dict[tuple[int, ...], Matrix] = {}

    def space_sum(picked: tuple[int, ...]) -> Matrix:
        # an element's stable sum is the unstable sum of its negative
        if picked not in sums:
            sums[picked] = row_basis(tuple(r for i in picked for r in spaces[i]))
        return sums[picked]

    def read(h0: Vector, c: Sequence[Fraction]) -> AnosovCertificate | AnosovRefusal:
        (ic,), den = _integer_form((c,))
        dots = [sum(map(mul, row, ic)) for row in weights.rows]
        off = sum(k for k, x in zip(inside, dots) if x)
        axis = sum(len(s) - k for s, k, x in zip(spaces, inside, dots) if not x)
        if off or axis:
            return _refusal(h0, axis, off)
        neg = tuple(i for i, x in enumerate(dots) if x < 0)
        pos = tuple(i for i, x in enumerate(dots) if x > 0)
        return AnosovCertificate(
            h0,
            w.basis,
            space_sum(tuple(i for i, x in enumerate(dots) if x)),
            sum(len(spaces[i]) for i in neg),
            sum(len(spaces[i]) for i in pos),
            space_sum(neg),
            (),
            space_sum(pos),
            Fraction(min((abs(x) for x in dots if x), default=0), weights.den * den),
            True,
            invariance,
        )

    return read


def _chamber_sweep(action: ActionSpec) -> tuple[tuple[Vector, AnosovCertificate], ...] | None:
    """The certificate of one flow element per Weyl chamber, read off the root spaces.

    Applies when the algebra is semisimple and the exact hyperbolic span
    a of the flow is an abelian subspace of the flow with exact restricted
    roots; otherwise returns None.  The root spaces are the joint weight
    spaces of a, so `_weight_reader` decides each chamber sample h.  It
    is nonzero on every nonzero root, so w = flow + isotropy passes at h
    exactly when it is the zero root space g_0, for every chamber alike;
    when it is not, every sample is refused and the sweep finds nothing.
    """
    g = action.ambient
    if radical(g).dim != 0:
        return None
    a_h = hyperbolic_span(g, action.flow.basis)
    if a_h is None or a_h.dim == 0 or not action.flow.contains_space(a_h):
        return None
    if not a_h.is_abelian():
        return None
    rs = restricted_roots(g, a_h)
    if not rs.exact:
        return None
    if sum(r.multiplicity for r in rs.roots) != g.dim:
        raise AlgebraError("root multiplicities do not add up to the dimension")
    read = _weight_reader(action, [(r.space, r.values) for r in rs.roots])
    if action.joint != Subspace(g, next((r.space for r in rs.roots if r.is_zero), ())):
        return ()
    found = []
    for ch in weyl_chambers(rs).chambers:
        h0 = combine(ch.sample, a_h.basis, g.dim)
        cert = read(h0, ch.sample)
        if not cert.accepted:
            raise AlgebraError("chamber sample vanishes on a nonzero root")
        found.append((h0, cert))
    return tuple(found)


def _flow_reader(
    action: ActionSpec,
) -> Callable[[Vector, Sequence[Fraction]], AnosovCertificate | AnosovRefusal] | None:
    """`_weight_reader` on the joint weight spaces of the flow's basis f_i,
    or None when a weight is not rational.  The flow is nilpotent, so
    `_joint_blocks` splits g into them, starting from ad(sum_i f_i)."""
    g = action.ambient
    op, factors = _generic(g, action.flow, 1)
    blocks = _joint_blocks([g.ad_integer(v) for v in action.flow.basis], op, factors)
    return None if blocks is None else _weight_reader(action, blocks)


# verified elements after which the grid/random search stops
MAX_FOUND = 8


def find_anosov_elements(
    action: ActionSpec,
    budget: int = 200,
    seed: int = 0,
) -> tuple[tuple[Vector, AnosovCertificate], ...]:
    """Verified Anosov elements of the action.

    When the flow span sits over an exact root system the answer is one
    element per Weyl chamber, each certificate read off the root spaces
    without a characteristic polynomial (`_chamber_sweep`; complete for
    Weyl-chamber style data).  Otherwise integer grid points in the flow
    span, followed by seeded rational samples, are decided up to the
    budget: off the flow's joint weight spaces when every weight is
    rational (`_flow_reader`), else by `check_anosov`, with the same
    verdict and certificate either way.  Positive rescalings of a tried
    element are skipped (they certify the same splitting) and the
    grid/random walk stops after MAX_FOUND verified elements.  Only
    elements whose certificate verifies are returned; an empty result is
    inconclusive, never a proof of non-Anosov.
    """
    action.require_valid()
    d = action.flow.dim
    if d == 0:
        return ()
    swept = _chamber_sweep(action)
    if swept is not None:
        return swept
    read = _flow_reader(action)
    found: list[tuple[Vector, AnosovCertificate]] = []
    rays = set()
    n = action.ambient.dim
    basis = action.flow.basis

    def try_candidate(coords: Sequence[Fraction]) -> None:
        v = combine(coords, basis, n)
        if is_zero_vector(v):
            return
        ray = tuple(integer_row(v))
        if ray in rays:
            return
        rays.add(ray)
        res = check_anosov(action, v) if read is None else read(v, coords)
        if isinstance(res, AnosovCertificate):
            found.append((v, res))

    spent = 0
    for height in range(1, 8):
        for coords in itertools.product(range(-height, height + 1), repeat=d):
            if max((abs(c) for c in coords), default=0) != height:
                continue
            if spent >= budget or len(found) >= MAX_FOUND:
                return tuple(found)
            try_candidate(coords)
            spent += 1
    rng = random.Random(seed)
    while spent < budget and len(found) < MAX_FOUND:
        try_candidate([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in basis])
        spent += 1
    return tuple(found)


def codimension(cert: AnosovCertificate) -> int:
    """Dimension of the unstable space of this certificate."""
    return cert.dim_unstable


def is_codimension_one(
    action: ActionSpec, budget: int = 200, seed: int = 0
) -> bool:
    """Whether some found Anosov element has a one-dimensional unstable space."""
    found = find_anosov_elements(action, budget=budget, seed=seed)
    if not found:
        raise Inconclusive("no Anosov element found within the search budget")
    return min(c.dim_unstable for _, c in found) == 1


# -- simplification ------------------------------------------------------------


def simplification(action: ActionSpec) -> ActionSpec:
    """Absorb the central part of the isotropy into the flow span.

    The isotropy is replaced by its derived (semisimple) part and the
    flow span by its inner-corrected form plus the isotropy center, so
    the new datum has the same flow + isotropy span.  The output is
    validated; a missing inner representative raises.
    """
    action.require_valid()
    g = action.ambient
    flow, split, _ = inner_corrected_flow(g, action.flow, action.isotropy)
    name = f"{action.name}-simplified" if action.name else None
    out = ActionSpec(g, flow.sum(split.central), split.semisimple, name=name)
    out.require_valid()
    if out.joint != action.joint:
        raise AlgebraError("simplification changed the flow + isotropy span")
    return out


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    case: str  # solvable | semisimple | reductive | mixed
    evidence: dict
    caveats: tuple[str, ...]
    subreport: "ClassificationReport | None" = None


def _classify_solvable(
    action: ActionSpec, cert: AnosovCertificate, caveats: list[str]
) -> ClassificationReport:
    g = action.ambient
    simp = simplification(action)
    flow_is_csa = is_csa(g, simp.flow)
    nil = nilradical(g)
    su_in_nilradical = nil.contains_space(Subspace(g, cert.carrier))
    nil_alg, _ = as_subalgebra(nil).as_algebra()
    tower = tuple(s.dim for s in lower_central_series(nil_alg))
    ref_csa_dim = find_csa(g).dim
    evidence = {
        "flow_is_csa": flow_is_csa,
        "flow_dim": simp.flow.dim,
        "csa_dim": ref_csa_dim,
        "stable_unstable_in_nilradical": su_in_nilradical,
        "nilradical_dim": nil.dim,
        "nilradical_tower": tower,
    }
    if not flow_is_csa:
        caveats.append("flow span is not a Cartan subalgebra; datum is atypical")
    return ClassificationReport("solvable", evidence, tuple(caveats))


def _classify_semisimple(
    action: ActionSpec, cert: AnosovCertificate, caveats: list[str]
) -> ClassificationReport:
    g = action.ambient
    simp = simplification(action)
    hint = hyperbolic_span(g, simp.flow.basis)
    if hint is None:
        raise Inconclusive("flow generator has an irrational semisimple refinement")
    a = cartan_subspace(g, hint=hint)
    rs = restricted_roots(g, a)
    k0 = Subspace(g, rs.zero_complement or ())
    chcsa = a.sum(k0) == action.joint
    torus_flow = k0.intersect(action.flow)
    torus_isotropy = k0.intersect(action.isotropy)
    split_clean = torus_flow.sum(torus_isotropy) == k0
    chambers: ChamberSet | None = None
    if rs.exact:
        chambers = weyl_chambers(rs)
    evidence = {
        "cartan_subspace_dim": a.dim,
        "zero_complement_dim": k0.dim,
        "flow_isotropy_equals_cartan_plus_torus": chcsa,
        "torus_in_flow_dim": torus_flow.dim,
        "torus_in_isotropy_dim": torus_isotropy.dim,
        "torus_split_clean": split_clean,
        "modified": torus_flow.dim > 0,
        "root_system": rs,
        "chambers": chambers,
    }
    if not rs.exact:
        caveats.append(
            "root values are irrational; chamber enumeration unavailable"
        )
    return ClassificationReport("semisimple", evidence, tuple(caveats))


def _is_reductive_case(g: LieAlgebra, rad: Subspace) -> bool:
    if rad.dim == 0 or rad.dim == g.dim:
        return False
    return bracket_space(full_space(g), rad).dim == 0


def _classify_reductive(
    action: ActionSpec,
    cert: AnosovCertificate,
    rad: Subspace,
    caveats: list[str],
    budget: int,
    seed: int,
) -> ClassificationReport:
    g = action.ambient
    simp = simplification(action)
    radical_in_flow = simp.flow.contains_space(rad)
    q = quotient_by_ideal(g, rad)
    q_action = ActionSpec(
        q.quotient,
        q.push_space(simp.flow),
        q.push_space(simp.isotropy),
        name=f"{action.name}-mod-center" if action.name else None,
    )
    sub = classify(q_action, budget=budget, seed=seed)
    evidence = {
        "radical_dim": rad.dim,
        "radical_is_central": True,
        "radical_in_flow": radical_in_flow,
        "quotient_dim": q.quotient.dim,
    }
    if not radical_in_flow:
        caveats.append(
            "central radical is not inside the flow span; datum is atypical"
        )
    return ClassificationReport("reductive", evidence, tuple(caveats), sub)


def _classify_mixed(
    action: ActionSpec,
    cert: AnosovCertificate,
    rad: Subspace,
    caveats: list[str],
    budget: int,
    seed: int,
) -> ClassificationReport:
    g = action.ambient
    nil = nilradical(g)
    in_rad = rad.contains(cert.h0)
    if not in_rad and rad.intersect(action.flow).dim > 0:
        inter = rad.intersect(action.flow)
        grid = (c for c in itertools.product(range(-2, 3), repeat=inter.dim) if any(c))
        in_rad = any(
            isinstance(check_anosov(action, combine(c, inter.basis, g.dim)), AnosovCertificate)
            for c in itertools.islice(grid, max(budget, 0))
        )
        if not in_rad:
            caveats.append(
                "no Anosov element found in the radical within the budget; "
                "existence is not excluded"
            )
    q = quotient_by_ideal(g, nil)
    q_action = ActionSpec(
        q.quotient,
        q.push_space(action.flow),
        q.push_space(action.isotropy),
        name=f"{action.name}-mod-nilradical" if action.name else None,
    )
    sub = classify(q_action, budget=budget, seed=seed)
    evidence = {
        "radical_dim": rad.dim,
        "nilradical_dim": nil.dim,
        "anosov_element_in_radical": in_rad,
        "quotient_dim": q.quotient.dim,
    }
    return ClassificationReport("mixed", evidence, tuple(caveats), sub)


def classify(
    action: ActionSpec,
    cert: AnosovCertificate | None = None,
    budget: int = 200,
    seed: int = 0,
) -> ClassificationReport:
    """Structure-based case analysis of a certified action datum.

    Cases: solvable (ambient equals its radical), semisimple (radical
    zero), reductive (central nonzero radical with nonzero Levi part),
    mixed (everything else, classified recursively modulo the
    nilradical).  Raises Inconclusive when no Anosov element is found.
    """
    action.require_valid()
    if cert is None:
        found = find_anosov_elements(action, budget=budget, seed=seed)
        if not found:
            raise Inconclusive(
                "no Anosov element found within the search budget"
            )
        cert = min(found, key=lambda fc: fc[1].dim_unstable)[1]
    g = action.ambient
    caveats = [_LATTICE_CAVEAT]
    if action.isotropy.dim > 0:
        caveats.append(ellipticity_proxy(g, action.isotropy).caveat)
    rad = radical(g)
    if rad.dim == g.dim:
        return _classify_solvable(action, cert, caveats)
    if rad.dim == 0:
        return _classify_semisimple(action, cert, caveats)
    if _is_reductive_case(g, rad):
        return _classify_reductive(action, cert, rad, caveats, budget, seed)
    return _classify_mixed(action, cert, rad, caveats, budget, seed)


# -- nil-suspensions -----------------------------------------------------------


@dataclass(frozen=True)
class NilSuspensionReport:
    structure_ok: bool
    induced_hyperbolic: bool
    anosov: bool
    kind: str  # central | hyperbolic | generic
    fiber_dim: int
    fixed_dim: int  # dimension of flow-cap-fiber


def nil_suspension_check(
    base: ActionSpec,
    total: ActionSpec,
    fiber: Subspace,
    base_cert: AnosovCertificate | None = None,
    budget: int = 200,
    seed: int = 0,
) -> NilSuspensionReport:
    """Verify a nil-suspension structure and decide its Anosov property.

    The fiber must be a nilpotent ideal of the total algebra whose
    quotient reproduces the base algebra's structure constants on the
    computed complement basis, with the flow span projecting onto the
    base flow span.  The decision lifts a base Anosov element and tests
    hyperbolicity of the induced operator on fiber/(flow cap fiber), read
    off the axis count of the lift's adjoint on the fiber.  Both action
    data are validated first.
    """
    base.require_valid()
    total.require_valid()
    g = total.ambient
    if fiber.algebra is not g:
        raise StructureError("fiber must live in the total algebra")
    if not fiber.is_ideal() or not subspace_is_nilpotent(fiber):
        raise StructureError("fiber is not a nilpotent ideal")
    q = quotient_by_ideal(g, fiber)
    if q.quotient != base.ambient:  # compares the structure constants
        raise StructureError(
            "quotient structure constants do not match the base algebra"
        )
    if q.push_space(total.flow).basis != base.flow.basis:
        raise StructureError("flow span does not project onto the base flow")
    if q.push_space(total.isotropy).basis != base.isotropy.basis:
        raise StructureError(
            "isotropy span does not project onto the base isotropy"
        )
    if base_cert is None:
        found = find_anosov_elements(base, budget=budget, seed=seed)
        if not found:
            raise Inconclusive("no Anosov element of the base action found")
        base_cert = found[0][1]
    # lift the base element into the total flow span
    pushed = tuple(q.push(v) for v in total.flow.basis)
    expand = solve(tuple(zip(*pushed)), base_cert.h0)
    if expand is None:
        raise StructureError("base Anosov element does not lift to the flow span")
    lift = combine(expand, total.flow.basis, g.dim)
    fixed = total.flow.intersect(fiber)
    on_fiber = restrict_operator(g.ad_integer(lift), fiber.basis)
    if on_fiber is None:
        raise AlgebraError("fiber is expected to be invariant")
    # flow cap fiber is ad(lift)-invariant (the flow is a subalgebra, the
    # fiber an ideal) and ad(lift) is nilpotent on it (the validated flow
    # is nilpotent).  So it carries fixed.dim zero eigenvalues, and the
    # induced operator on the quotient is hyperbolic exactly when these
    # are all the axis eigenvalues of ad(lift) on the fiber.
    hyp = operator_sign_counts(on_fiber).n_zero_real == fixed.dim
    central = bracket_space(full_space(g), fiber).dim == 0
    if central:
        kind = "central"
    elif fixed.dim == 0 and hyp:
        kind = "hyperbolic"
    else:
        kind = "generic"
    return NilSuspensionReport(True, hyp, hyp, kind, fiber.dim, fixed.dim)
