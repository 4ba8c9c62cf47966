from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import liecert.anosov
from generators import fraction_ad, root_polynomials
from liecert.algebra import (
    AlgebraError,
    LieAlgebra,
    StructureError,
    Subspace,
    ValidationError,
    centralizer,
    direct_sum,
    full_space,
    lie_algebra_from_matrices,
)
from liecert.anosov import (
    ActionSpec,
    AnosovCertificate,
    AnosovRefusal,
    ClassificationReport,
    Inconclusive,
    action_csa,
    check_anosov,
    classify,
    derived_ideal_check,
    find_anosov_elements,
    is_codimension_one,
    nil_suspension_check,
    simplification,
    splitting_invariance,
)
from liecert.builders import (
    build_heisenberg_starkov,
    build_sl2_geodesic,
    build_so13_frame_flow,
    build_so13_geodesic,
    build_example,
    build_suspension,
    build_wedge_example,
    build_weyl_chamber,
    catalog_names,
    sl_basis,
)
from liecert.cartan import (
    cartan_subspace,
    hyperbolic_part,
    hyperbolic_span,
    is_ad_hyperbolic,
    is_csa,
    restricted_roots,
    weyl_chambers,
)
from liecert.linalg import (
    combine,
    generalized_kernel,
    is_zero_vector,
    matmul,
    restrict_operator,
)
from liecert.poly import (
    RationalPolynomial as P,
    power_of_two_root_bound,
    root_bound,
    root_sign_counts,
    squarefree_part,
    squarefree_sign_counts,
)
from liecert.spectral import (
    GAP_BITS,
    apply_poly,
    char_poly,
    factor_with_multiplicity,
)
from test_acceptance import _sl_diagonal
from test_sparse_kernel import reference_quotient_operator

F = Fraction


def _span(g, *indices):
    return Subspace(g, tuple(g.basis_vector(i) for i in indices))


def sl2():
    return build_sl2_geodesic().ambient


def so3():
    z = (F(0),) * 3
    t = [[z] * 3 for _ in range(3)]

    def put(i, j, k, c):
        v = [F(0)] * 3
        v[k] = F(c)
        t[i][j] = tuple(v)
        t[j][i] = tuple(-x for x in v)

    put(0, 1, 2, 1)
    put(1, 2, 0, 1)
    put(2, 0, 1, 1)
    return LieAlgebra(t)


def sl2_semidirect_plane():
    """sl2 acting on the plane by the defining representation."""
    z = (F(0),) * 5
    t = [[z] * 5 for _ in range(5)]

    def v(**kw):
        out = [F(0)] * 5
        idx = dict(h=0, e=1, f=2, x=3, y=4)
        for k, c in kw.items():
            out[idx[k]] = F(c)
        return tuple(out)

    def put(i, j, vec):
        t[i][j] = vec
        t[j][i] = tuple(-a for a in vec)

    put(0, 1, v(e=2))
    put(0, 2, v(f=-2))
    put(1, 2, v(h=1))
    put(0, 3, v(x=1))
    put(0, 4, v(y=-1))
    put(1, 4, v(x=1))
    put(2, 3, v(y=1))
    g = LieAlgebra(t, ["h", "e", "f", "x", "y"])
    assert g.validate().ok
    return g


# -- ActionSpec ----------------------------------------------------------------


def test_action_valid():
    spec = build_sl2_geodesic()
    chk = spec.validate()
    assert chk.ok and chk.summary() == "action datum valid"


def test_action_flow_not_nilpotent():
    g = sl2()
    spec = ActionSpec(g, _span(g, 1, 2))  # [e, f] = h leaves the span
    chk = spec.validate()
    assert not chk.ok and not chk.flow_nilpotent
    with pytest.raises(ValidationError):
        spec.require_valid()


def test_action_flow_meets_isotropy():
    g = so3()
    spec = ActionSpec(g, _span(g, 0), _span(g, 0))
    assert not spec.validate().trivial_intersection


def test_action_isotropy_not_normalized():
    g = sl2()
    spec = ActionSpec(g, _span(g, 1), _span(g, 0))  # [e, h] = -2e leaves span(h)
    assert not spec.validate().normalizes_isotropy


def test_action_isotropy_not_elliptic():
    g = sl2()
    spec = ActionSpec(g, _span(g, 1), _span(g, 0))  # split torus isotropy
    assert not spec.validate().isotropy_elliptic


def test_action_requires_same_algebra():
    g, g2 = sl2(), sl2()
    with pytest.raises(StructureError):
        ActionSpec(g, _span(g2, 0))


# -- check_anosov --------------------------------------------------------------


def test_sl2_accepts_h():
    spec = build_sl2_geodesic()
    res = check_anosov(spec, spec.ambient.basis_vector(0))
    assert isinstance(res, AnosovCertificate)
    assert (res.dim_stable, res.dim_unstable) == (1, 1)
    assert res.gap == 2 and res.gap_exact
    assert res.neutral == spec.flow.basis
    assert res.stable_exact == (spec.ambient.basis_vector(2),)  # f
    assert res.unstable_exact == (spec.ambient.basis_vector(1),)  # e
    assert res.invariance.ok


def test_sl2_rejects_nilpotent_element():
    spec = build_sl2_geodesic()
    g = spec.ambient
    bad = ActionSpec(g, Subspace(g, (g.basis_vector(1),)))
    res = check_anosov(bad, g.basis_vector(1))
    assert isinstance(res, AnosovRefusal)
    assert res.axis_outside == 2
    assert "imaginary axis outside" in res.reason


def test_hyperbolic_suspension_accepts():
    spec = build_suspension([[[0, 1], [1, 0]]])
    res = check_anosov(spec, spec.ambient.basis_vector(2))
    assert isinstance(res, AnosovCertificate)
    assert (res.dim_stable, res.dim_unstable) == (1, 1)
    assert res.gap == 1 and res.gap_exact
    # eigenvectors of the swap derivation
    assert res.stable_exact is not None and len(res.stable_exact) == 1


def test_rotation_suspension_refuses():
    spec = build_suspension([[[0, 1], [-1, 0]]])
    res = check_anosov(spec, spec.ambient.basis_vector(2))
    assert isinstance(res, AnosovRefusal)
    assert res.axis_outside == 2 and res.off_axis_inside == 0


def test_zero_candidate_refused():
    spec = build_sl2_geodesic()
    res = check_anosov(spec, (F(0),) * 3)
    assert isinstance(res, AnosovRefusal)


def test_candidate_outside_flow_raises():
    spec = build_sl2_geodesic()
    with pytest.raises(StructureError):
        check_anosov(spec, spec.ambient.basis_vector(1))


@pytest.mark.parametrize("h0", [(1, 0), (1, 0, 0, 0)])
def test_candidate_of_the_wrong_length_raises(h0):
    spec = build_sl2_geodesic()  # dimension 3
    with pytest.raises(ValidationError, match="length does not match"):
        check_anosov(spec, tuple(map(F, h0)))


def test_irrational_split_uses_numeric_bases():
    """Without a split by sign over Q the whole carrier is the exact mixed part."""
    spec = build_suspension([[[0, 1], [2, 0]]])  # eigenvalues +-sqrt(2)
    res = check_anosov(spec, spec.ambient.basis_vector(2))
    assert isinstance(res, AnosovCertificate)
    assert res.stable_exact == res.unstable_exact == ()
    assert len(res.carrier) == 2 and res.mixed == res.carrier
    assert (res.dim_stable, res.dim_unstable) == (1, 1)
    assert not res.gap_exact and 0 < res.gap < 2
    assert res.invariance.ok and res.invariance.exact_mixed


def test_so13_geodesic_dims():
    spec = build_so13_geodesic()
    res = check_anosov(spec, spec.ambient.basis_vector(0))
    assert isinstance(res, AnosovCertificate)
    assert (res.dim_stable, res.dim_unstable) == (2, 2)
    assert len(res.neutral) == 2


def test_starkov_accepts_derivation_generator():
    spec = build_heisenberg_starkov()
    res = check_anosov(spec, spec.ambient.basis_vector(2))
    assert isinstance(res, AnosovCertificate)
    assert (res.dim_stable, res.dim_unstable) == (1, 1)


def test_neutral_dimension_identity():
    for spec in (
        build_sl2_geodesic(),
        build_so13_geodesic(),
        build_wedge_example(),
        build_heisenberg_starkov(),
    ):
        found = find_anosov_elements(spec, budget=30)
        assert found
        for _, cert in found:
            total = cert.dim_stable + cert.dim_unstable + len(cert.neutral)
            assert total == spec.ambient.dim


# -- splitting invariance ------------------------------------------------------


def test_invariance_report_attached_and_ok():
    spec = build_wedge_example()
    res = check_anosov(spec, spec.ambient.basis_vector(6))
    assert isinstance(res, AnosovCertificate)
    assert res.invariance.ok and res.invariance.exact_carrier
    assert res.invariance.exact_stable and res.invariance.exact_unstable


def test_corrupted_certificate_reports_violation():
    spec = build_sl2_geodesic()
    g = spec.ambient
    cert = check_anosov(spec, g.basis_vector(0))
    for side in ("stable", "mixed", "unstable"):
        field = "mixed" if side == "mixed" else f"{side}_exact"
        bad = replace(cert, **{field: ((F(0), F(1), F(1)),)})  # e + f not invariant
        rep = splitting_invariance(spec, bad)
        assert not rep.ok and getattr(rep, f"exact_{side}") is False
        assert any(v.startswith(f"{side} space") for v in rep.violations)


def test_corrupted_carrier_reports_violation():
    spec = build_sl2_geodesic()
    g = spec.ambient
    cert = check_anosov(spec, g.basis_vector(0))
    bad = replace(cert, carrier=((F(1), F(1), F(0)),))  # h + e not invariant
    rep = splitting_invariance(spec, bad)
    assert not rep.ok and not rep.exact_carrier


# -- search --------------------------------------------------------------------


def test_chamber_search_sl2():
    spec = build_sl2_geodesic()
    found = find_anosov_elements(spec)
    assert len(found) == 2
    assert {f[0] for f in found} == {
        (F(1), F(0), F(0)),
        (F(-1), F(0), F(0)),
    }


def test_chamber_search_frame_flow():
    spec = build_so13_frame_flow()
    found = find_anosov_elements(spec)
    assert len(found) == 2
    for _, cert in found:
        assert (cert.dim_stable, cert.dim_unstable) == (2, 2)


def test_grid_search_solvable():
    spec = build_heisenberg_starkov()
    found = find_anosov_elements(spec, budget=30)
    assert found
    for v, cert in found:
        assert spec.flow.contains(v)
        assert cert.accepted


def test_search_inconclusive_on_zero_derivation():
    spec = build_suspension([[[0, 0], [0, 0]]])
    assert find_anosov_elements(spec, budget=40) == ()


def test_search_deterministic():
    spec = build_heisenberg_starkov()
    a = find_anosov_elements(spec, budget=25, seed=7)
    b = find_anosov_elements(spec, budget=25, seed=7)
    assert [v for v, _ in a] == [v for v, _ in b]


def _record_decisions(monkeypatch):
    """The list (path, action, h0, result) of every candidate a search decides
    from now on: by check_anosov ("check") or by a weight reader ("weights")."""
    decided = []
    real_check, real_reader = liecert.anosov.check_anosov, liecert.anosov._weight_reader

    def check(action, h0):
        res = real_check(action, h0)
        decided.append(("check", action, h0, res))
        return res

    def reader(action, blocks):
        read = real_reader(action, blocks)

        def recorded(h0, coords):
            res = read(h0, coords)
            decided.append(("weights", action, h0, res))
            return res

        return recorded

    monkeypatch.setattr(liecert.anosov, "check_anosov", check)
    monkeypatch.setattr(liecert.anosov, "_weight_reader", reader)
    return decided


def _count_calls(monkeypatch, *names):
    """A Counter of the calls, from now on, to each named function of liecert.anosov."""
    calls = Counter()
    for name in names:
        real = getattr(liecert.anosov, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(liecert.anosov, name, counted)
    return calls


def test_one_dimensional_flow_stops_after_both_rays(monkeypatch):
    # after +-1, every candidate is a positive multiple of one of them
    spec = build_example("suspension-hyperbolic")
    calls = _count_calls(monkeypatch, "combine")
    found = find_anosov_elements(spec, budget=200)
    assert calls["combine"] <= 3
    assert len(found) == 2
    assert find_anosov_elements(spec, budget=2) == found


@pytest.mark.parametrize("budget", [-5, 0, 1, 3])
def test_search_tries_at_most_budget_candidates(monkeypatch, budget):
    # no root system: the grid search runs, off the flow's rational weights on
    # heisenberg-starkov; the cat map and its square have irrational weights,
    # so there check_anosov decides each candidate
    tried = _record_decisions(monkeypatch)
    for spec, path in (
        (build_heisenberg_starkov(), "weights"),
        (build_suspension([[[1, 1], [1, 0]], [[2, 1], [1, 1]]]), "check"),
    ):
        tried.clear()
        found = find_anosov_elements(spec, budget=budget)
        assert len(tried) == max(budget, 0)
        assert {p for p, *_ in tried} <= {path}
        assert len(found) <= len(tried)


# -- codimension and derived ideal ----------------------------------------------


def test_codimension_one_sl2():
    spec = build_sl2_geodesic()
    cert = check_anosov(spec, spec.ambient.basis_vector(0))
    assert cert.dim_unstable == 1
    assert is_codimension_one(spec)


def test_codimension_so13_not_one():
    assert not is_codimension_one(build_so13_geodesic())


def test_codimension_inconclusive():
    spec = build_suspension([[[0, 0], [0, 0]]])
    with pytest.raises(Inconclusive):
        is_codimension_one(spec, budget=20)


def test_derived_ideal_check_all_examples():
    for spec in (
        build_sl2_geodesic(),
        build_so13_geodesic(),
        build_wedge_example(),
        build_heisenberg_starkov(),
    ):
        found = find_anosov_elements(spec, budget=20)
        assert found
        for _, cert in found:
            assert derived_ideal_check(spec, cert)


# -- simplification ------------------------------------------------------------


def test_simplification_identity_without_isotropy():
    spec = build_sl2_geodesic()
    out = simplification(spec)
    assert out.flow.basis == spec.flow.basis
    assert out.isotropy.dim == 0


def test_simplification_absorbs_abelian_isotropy():
    geo = build_so13_geodesic()
    out = simplification(geo)
    ff = build_so13_frame_flow()
    assert out.flow.basis == ff.flow.basis
    assert out.isotropy.dim == 0
    assert out.joint == geo.joint


def test_simplification_inner_correction():
    g = direct_sum(sl2(), so3())
    flow = Subspace(g, (tuple(F(1) if i in (0, 3) else F(0) for i in range(6)),))
    spec = ActionSpec(g, flow, _span(g, 3, 4, 5))
    out = simplification(spec)
    assert out.flow.basis == (g.basis_vector(0),)
    assert out.isotropy.basis == _span(g, 3, 4, 5).basis
    # the original element stays Anosov, and so does its corrected form
    cert0 = check_anosov(spec, flow.basis[0])
    assert isinstance(cert0, AnosovCertificate)
    cert1 = check_anosov(out, g.basis_vector(0))
    assert isinstance(cert1, AnosovCertificate)
    assert (cert0.dim_stable, cert0.dim_unstable) == (
        cert1.dim_stable,
        cert1.dim_unstable,
    )


def test_simplification_preserves_joint_span():
    spec = build_so13_geodesic()
    out = simplification(spec)
    assert out.joint == spec.joint


# -- the assembled Cartan subalgebra -------------------------------------------


def test_action_csa_on_accepted_actions():
    for spec in (
        build_sl2_geodesic(),
        build_so13_geodesic(),
        build_heisenberg_starkov(),
        build_wedge_example(),
    ):
        got = action_csa(spec)
        assert is_csa(spec.ambient, got.csa)


def test_action_csa_starkov_is_flow():
    spec = build_heisenberg_starkov()
    got = action_csa(spec)
    assert got.csa.basis == spec.flow.basis


# -- classification ------------------------------------------------------------


def test_classify_semisimple_sl2():
    rep = classify(build_sl2_geodesic(), budget=20)
    assert rep.case == "semisimple"
    assert rep.evidence["flow_isotropy_equals_cartan_plus_torus"]
    assert rep.evidence["chambers"].count == 2
    assert not rep.evidence["modified"]


def test_classify_so13_geodesic():
    rep = classify(build_so13_geodesic(), budget=20)
    assert rep.case == "semisimple"
    assert rep.evidence["cartan_subspace_dim"] == 1
    assert rep.evidence["zero_complement_dim"] == 1
    assert rep.evidence["torus_in_isotropy_dim"] == 1
    assert rep.evidence["torus_split_clean"]


def test_classify_so13_frame_flow_modified():
    rep = classify(build_so13_frame_flow(), budget=20)
    assert rep.case == "semisimple"
    assert rep.evidence["modified"]
    assert rep.evidence["torus_in_flow_dim"] == 1


def test_classify_solvable_starkov():
    rep = classify(build_heisenberg_starkov(), budget=20)
    assert rep.case == "solvable"
    assert rep.evidence["flow_is_csa"]
    assert rep.evidence["stable_unstable_in_nilradical"]
    assert rep.evidence["nilradical_tower"] == (3, 1, 0)


def test_classify_solvable_wedge_tower():
    rep = classify(build_wedge_example(), budget=20)
    assert rep.case == "solvable"
    assert rep.evidence["nilradical_tower"] == (6, 3, 0)


def test_classify_reductive():
    g = direct_sum(sl2(), LieAlgebra([[(F(0),)]]))
    act = ActionSpec(g, _span(g, 0, 3))
    rep = classify(act, budget=20)
    assert rep.case == "reductive"
    assert rep.evidence["radical_in_flow"]
    assert rep.subreport is not None and rep.subreport.case == "semisimple"


def test_classify_mixed():
    g = sl2_semidirect_plane()
    act = ActionSpec(g, _span(g, 0))
    rep = classify(act, budget=20)
    assert rep.case == "mixed"
    assert not rep.evidence["anosov_element_in_radical"]
    assert rep.subreport is not None and rep.subreport.case == "semisimple"


def test_classify_mixed_radical_search_stays_within_the_budget(monkeypatch):
    # sl2 on the plane plus a center R^5, flow span(h, z_1..z_5): ad(z) = 0,
    # so no element of radical cap flow is Anosov, and its whole grid of
    # 5^5 - 1 points would be tried without the budget
    g = direct_sum(sl2_semidirect_plane(), LieAlgebra.from_entries(5, []))
    act = ActionSpec(g, _span(g, 0, 5, 6, 7, 8, 9))
    tried = []
    real = liecert.anosov.check_anosov
    monkeypatch.setattr(
        liecert.anosov, "check_anosov", lambda *a, **k: tried.append(a[1]) or real(*a, **k)
    )
    rep = classify(act, budget=20)
    assert rep.case == "mixed"
    assert not rep.evidence["anosov_element_in_radical"]
    assert any("within the budget" in c for c in rep.caveats)
    assert len(tried) <= 30


def test_classify_inconclusive():
    spec = build_suspension([[[0, 0], [0, 0]]])
    with pytest.raises(Inconclusive):
        classify(spec, budget=20)


def test_classify_lattice_caveat_present():
    rep = classify(build_sl2_geodesic(), budget=20)
    assert any("lattice" in c for c in rep.caveats)


@pytest.mark.parametrize(
    "name", ["sl2-geodesic", "so13-geodesic", "so13-frame-flow", "weyl-sl2sl2"]
)
def test_classify_derives_the_cartan_frame_once(monkeypatch, name):
    spec = build_example(name)
    calls = _count_calls(monkeypatch, "restricted_roots", "weyl_chambers")
    classify(spec)
    assert calls == {"restricted_roots": 1, "weyl_chambers": 1}


def _tilted_so13():
    """The so(1,3) flow span(B1 + R1) with isotropy span(R1): its hyperbolic
    span, span(B1), is not inside the flow, so the chamber sweep does not run."""
    g = build_so13_geodesic().ambient
    b1_r1 = combine((1, 1), (g.basis_vector(0), g.basis_vector(3)), g.dim)
    return ActionSpec(g, Subspace(g, [b1_r1]), _span(g, 3))


def _irrational_sl2():
    """The sl(2) flow span(h + e + f), whose roots +-2 sqrt 2 are irrational."""
    g = sl2()
    return ActionSpec(g, Subspace(g, [(F(1), F(1), F(1))]))


def _grown_cartan_subspace(g, a):
    """A maximal abelian span of ad-hyperbolic elements that contains a, which
    must be one such span: grown from a as cartan_subspace grows it from 0."""
    assert a.is_abelian() and all(is_ad_hyperbolic(g, v) for v in a.basis)
    while True:
        c = full_space(g) if a.dim == 0 else centralizer(g, a)
        for v in c.basis:
            if a.contains(v):
                continue
            cand = hyperbolic_part(g, v)
            if cand is None or is_zero_vector(cand) or a.contains(cand):
                continue
            if any(not is_zero_vector(g.bracket(cand, b)) for b in a.basis):
                continue
            a = Subspace(g, a.basis + (cand,))
            break
        else:
            return a


def _former_semisimple_report(spec):
    """classify's semisimple report, with its frame derived the former way:
    simplification, hyperbolic_span, the Cartan subspace grown from it,
    restricted_roots and weyl_chambers."""
    g = spec.ambient
    a = _grown_cartan_subspace(g, hyperbolic_span(g, simplification(spec).flow.basis))
    rs = restricted_roots(g, a)
    k0 = Subspace(g, rs.zero_complement)
    torus_flow, torus_isotropy = k0.intersect(spec.flow), k0.intersect(spec.isotropy)
    evidence = {
        "cartan_subspace_dim": a.dim,
        "zero_complement_dim": k0.dim,
        "flow_isotropy_equals_cartan_plus_torus": a.sum(k0) == spec.joint,
        "torus_in_flow_dim": torus_flow.dim,
        "torus_in_isotropy_dim": torus_isotropy.dim,
        "torus_split_clean": torus_flow.sum(torus_isotropy) == k0,
        "modified": torus_flow.dim > 0,
        "root_system": rs,
        "chambers": weyl_chambers(rs) if rs.exact else None,
    }
    caveats = [liecert.anosov._LATTICE_CAVEAT]
    if spec.isotropy.dim:
        caveats.append(liecert.anosov._ELLIPTIC_CAVEAT)
    if not rs.exact:
        caveats.append("root values are irrational; chamber enumeration unavailable")
    return ClassificationReport("semisimple", evidence, tuple(caveats))


def test_classify_enumerates_the_chambers_of_a_frame_outside_the_flow(monkeypatch):
    spec = _tilted_so13()
    found = find_anosov_elements(spec)
    assert [h0 for h0, _ in found] == [(-1, 0, 0, -1, 0, 0), (1, 0, 0, 1, 0, 0)]
    calls = _count_calls(monkeypatch, "restricted_roots", "weyl_chambers")
    rep = classify(spec)
    assert calls == {"restricted_roots": 1, "weyl_chambers": 1}
    assert rep.evidence["chambers"].count == 2
    assert rep == _former_semisimple_report(spec)


def test_classify_reads_one_chamber_certificate(monkeypatch):
    # sl(4) on its Cartan subspace: the search certifies all 24 chambers,
    # classify reads the first, and its report is the same
    g = lie_algebra_from_matrices(sl_basis(4))
    spec = ActionSpec(g, cartan_subspace(g))
    decided = _record_decisions(monkeypatch)
    assert len(find_anosov_elements(spec)) == 24
    assert len(decided) == 24
    decided.clear()
    rep = classify(spec)
    assert [path for path, *_ in decided] == ["weights"]
    assert rep.evidence["chambers"].count == 24
    assert rep == _former_semisimple_report(spec)


def test_classify_reports_no_chambers_for_irrational_roots(monkeypatch):
    spec = _irrational_sl2()
    assert len(find_anosov_elements(spec)) == 2
    calls = _count_calls(monkeypatch, "restricted_roots", "weyl_chambers")
    rep = classify(spec)
    assert calls == {"restricted_roots": 1}
    assert rep.evidence["chambers"] is None
    assert "root values are irrational; chamber enumeration unavailable" in rep.caveats
    assert rep == _former_semisimple_report(spec)


# -- nil-suspensions -----------------------------------------------------------


def test_starkov_is_central_extension():
    base = build_suspension([[[1, 0], [0, -1]]])
    total = build_heisenberg_starkov()
    g = total.ambient
    fiber = Subspace(g, (g.basis_vector(3),))
    rep = nil_suspension_check(base, total, fiber)
    assert rep.structure_ok and rep.anosov
    assert rep.kind == "central"
    assert rep.fiber_dim == 1 and rep.fixed_dim == 1


def test_hyperbolic_nil_suspension():
    base = build_sl2_geodesic()
    g = sl2_semidirect_plane()
    total = ActionSpec(g, _span(g, 0))
    fiber = _span(g, 3, 4)
    rep = nil_suspension_check(base, total, fiber)
    assert rep.anosov and rep.kind == "hyperbolic"
    assert rep.fixed_dim == 0


def test_generic_nil_suspension_wedge():
    total = build_wedge_example()
    g = total.ambient
    base_spec = build_suspension([[[1, 0, 0], [0, -1, 0], [0, 0, 0]]])
    base = ActionSpec(
        base_spec.ambient,
        Subspace(base_spec.ambient, (base_spec.ambient.basis_vector(2),
                                     base_spec.ambient.basis_vector(3))),
        name="wedge-base",
    )
    fiber = _span(g, 3, 4, 5)
    rep = nil_suspension_check(base, total, fiber)
    assert rep.anosov and rep.kind == "generic"
    assert rep.fiber_dim == 3 and rep.fixed_dim == 1


def test_generic_nil_suspension_with_a_neutral_fiber_direction():
    # e0, e1, e2, e3, e4, T with [T, e0] = e0, [T, e1] = -e1, [T, e2] = -e2
    # and [e0, e2] = e3: the flow span(e3, T) meets the fiber span(e2, e3, e4)
    # in e3, and T leaves e4 fixed, so the induced operator is not hyperbolic
    base = build_suspension([[[1, 0], [0, -1]]])
    brackets = [(5, 0, 0, 1), (5, 1, 1, -1), (5, 2, 2, -1), (0, 2, 3, 1)]
    g = LieAlgebra.from_entries(6, brackets + [(j, i, k, -c) for i, j, k, c in brackets])
    total = ActionSpec(g, _span(g, 3, 5))
    rep = nil_suspension_check(base, total, _span(g, 2, 3, 4))
    assert rep.structure_ok and not rep.induced_hyperbolic and not rep.anosov
    assert rep.kind == "generic"
    assert rep.fiber_dim == 3 and rep.fixed_dim == 1


def test_nil_suspension_rejects_non_ideal():
    total = build_wedge_example()
    g = total.ambient
    base = build_suspension([[[1, 0], [0, -1]]])
    with pytest.raises(StructureError):
        nil_suspension_check(base, total, _span(g, 0))


def test_nil_suspension_validates_both_actions():
    # Heisenberg x, y, z with [x, y] = z: the flow span(x, y) is no subalgebra
    g = LieAlgebra.from_entries(3, [(0, 1, 2, 1), (1, 0, 2, -1)], ["x", "y", "z"])
    total = ActionSpec(g, _span(g, 0, 1))
    line = LieAlgebra([[(F(0),)]])
    base = ActionSpec(line, _span(line, 0))
    with pytest.raises(ValidationError):
        nil_suspension_check(base, total, _span(g, 1, 2))


def test_nil_suspension_rejects_wrong_base():
    base = build_suspension([[[1, 0], [0, -2]]])  # different weights
    total = build_heisenberg_starkov()
    g = total.ambient
    with pytest.raises(StructureError):
        nil_suspension_check(base, total, Subspace(g, (g.basis_vector(3),)))


def test_non_hyperbolic_nil_suspension():
    # extend the plane suspension by a fiber the flow cannot stretch
    base = build_suspension([[[1, 0], [0, -1]]])
    z = (F(0),) * 4
    t = [[z] * 4 for _ in range(4)]

    def put(i, j, k, c):
        v = [F(0)] * 4
        v[k] = F(c)
        t[i][j] = tuple(v)
        t[j][i] = tuple(-x for x in v)

    put(3, 0, 0, 1)
    put(3, 1, 1, -1)
    g = LieAlgebra(t)  # e0, e1, dead fiber direction e2, T
    total = ActionSpec(g, _span(g, 3))
    fiber = _span(g, 2)
    rep = nil_suspension_check(base, total, fiber)
    assert rep.structure_ok and not rep.anosov
    assert not rep.induced_hyperbolic


# -- one exact pass against the former check ------------------------------------


def former_band(f, base, delta):
    """(no root of the squarefree f with 0 < |Re| < delta, some root with
    |Re| = delta), by the former gap's counts; base is f's unshifted count."""
    right = squarefree_sign_counts(f, delta)
    left = squarefree_sign_counts(f, -delta)
    inside = (base.n_pos - right.n_pos - right.n_zero_real) + (
        base.n_neg - left.n_neg - left.n_zero_real
    )
    return inside == 0, right.n_zero_real > 0 or left.n_zero_real > 0


def former_spectral_gap(p):
    """The former spectral_gap: every band counted on the whole squarefree part of p."""
    if p.degree < 1:
        return None, True
    f = squarefree_part(p)
    base = squarefree_sign_counts(f)
    if base.n_neg + base.n_pos == 0:
        return None, True
    hi = F(1)
    while hi < root_bound(p):
        hi *= 2
    top = power_of_two_root_bound(f)
    lo = F(0)
    for _ in range(GAP_BITS):
        mid = (lo + hi) / 2
        if mid > top:
            hi = mid
            continue
        empty, attained = former_band(f, base, mid)
        if empty and attained:
            return mid, True
        if empty:
            lo = mid
        else:
            hi = mid
    return lo, False


def assert_gap_matches_former(p, got):
    """got is former_spectral_gap(p), or an exact gap the bisection only
    approached: the former's own counts at +-m find a root on |Re| = m and
    none with 0 < |Re| < m, above its lower bound."""
    want = former_spectral_gap(p)
    if want[0] is None:
        want = F(0), True
    if got == want:
        return
    (m, exact), (lo, lo_exact) = got, want
    assert exact and not lo_exact and lo <= m
    f = squarefree_part(p)
    assert former_band(f, squarefree_sign_counts(f), m) == (True, True)


def reference_check_anosov(action, h0):
    """The former check_anosov: restriction and quotient by two eliminations,
    each factor's side and the gap by Sturm counts, and the stable, mixed and
    unstable parts as the characteristic spaces of three factor products,
    with the carrier their sum.  An acceptance is returned as (p_q,
    certificate) with the gap fields None, for assert_gap_matches_former; a
    refusal as its two counts."""
    g = action.ambient
    a = fraction_ad(g, h0)
    w = action.joint
    counts_in = root_sign_counts(char_poly(restrict_operator(a, w.basis)))
    quotient, _ = reference_quotient_operator(a, w.basis)
    p_q = char_poly(quotient)
    counts_out = root_sign_counts(p_q)
    off_inside = counts_in.n_neg + counts_in.n_pos
    if off_inside or counts_out.n_zero_real:
        return counts_out.n_zero_real, off_inside

    def char_subspace(p):
        return generalized_kernel(apply_poly(p, a)) if p.degree else ()

    sides = {"stable": P([1]), "mixed": P([1]), "unstable": P([1])}
    for phi, mult in factor_with_multiplicity(p_q):
        c = root_sign_counts(phi)
        side = "stable" if c.n_neg == phi.degree else "unstable" if c.n_pos == phi.degree else "mixed"
        for _ in range(mult):
            sides[side] = sides[side] * phi
    stable, mixed, unstable = (char_subspace(sides[k]) for k in ("stable", "mixed", "unstable"))
    cert = AnosovCertificate(
        h0, w.basis, char_subspace(p_q), counts_out.n_neg, counts_out.n_pos, stable, mixed, unstable,
        None, None, None,
    )
    return p_q, replace(cert, invariance=splitting_invariance(action, cert))


def _assert_same_as_reference(action, h0):
    got = check_anosov(action, h0)
    want = reference_check_anosov(action, h0)
    if isinstance(got, AnosovRefusal):
        assert (got.axis_outside, got.off_axis_inside) == want
    else:
        p_q, want = want
        assert replace(got, gap=None, gap_exact=None) == want
        assert_gap_matches_former(p_q, (got.gap, got.gap_exact))
    return got


def _sp4_basis():
    """sp(4, R) as [[A, B], [C, -A^T]] with B and C symmetric."""

    def unit(entries):
        return tuple(tuple(F(entries.get((r, c), 0)) for c in range(4)) for r in range(4))

    gl = [unit({(i, j): 1, (2 + j, 2 + i): -1}) for i in range(2) for j in range(2)]
    sym = [{(0, 2): 1}, {(1, 3): 1}, {(0, 3): 1, (1, 2): 1}]
    upper = [unit(e) for e in sym]
    lower = [unit({(c, r): x for (r, c), x in e.items()}) for e in sym]
    return tuple(gl + upper + lower)


def test_catalog_certificates_match_former_check(monkeypatch):
    decided = _record_decisions(monkeypatch)
    tried = []
    for name in catalog_names():
        spec = build_example(name)
        find_anosov_elements(spec)
        tried.extend((spec, v) for v in spec.flow.basis)
    # every candidate the searches decided, on either path, is check_anosov's
    # decision, and below the former check's
    for _, spec, v, res in decided:
        assert res == check_anosov(spec, v)
        tried.append((spec, v))
    certs = [_assert_same_as_reference(spec, v) for spec, v in tried]
    assert {c.accepted for c in certs} == {True, False}
    # every catalog spectrum splits by sign over Q
    assert all(c.mixed == () for c in certs if c.accepted)


def _cartan_action(basis):
    g = lie_algebra_from_matrices(basis)
    return ActionSpec(g, cartan_subspace(g))


CHAMBER_ACTIONS = {
    "sl3": lambda: _cartan_action(sl_basis(3)),
    "sp4": lambda: _cartan_action(_sp4_basis()),
    "sl4": lambda: _cartan_action(sl_basis(4)),
    "sl5": lambda: _cartan_action(sl_basis(5)),
    **{
        name: (lambda name=name: build_example(name))
        for name in ("sl2-geodesic", "so13-geodesic", "so13-frame-flow", "weyl-sl2sl2")
    },
}


def _chamber_elements(spec):
    """combine(sample) of each Weyl chamber over the flow's hyperbolic span, in order."""
    g = spec.ambient
    a = hyperbolic_span(g, spec.flow.basis)
    chambers = weyl_chambers(restricted_roots(g, a)).chambers
    return [combine(ch.sample, a.basis, g.dim) for ch in chambers]


def _sweep(spec):
    """_chamber_sweep of spec on its own Cartan frame."""
    return liecert.anosov._chamber_sweep(spec, liecert.anosov._cartan_frame(spec))


@pytest.mark.parametrize("name", list(CHAMBER_ACTIONS))
def test_chamber_certificates_match_former_check(name):
    """The sweep's certificates, read off the root spaces, are check_anosov's."""
    spec = CHAMBER_ACTIONS[name]()
    swept = _sweep(spec)
    assert swept
    assert [h0 for h0, _ in swept] == _chamber_elements(spec)
    for h0, cert in swept:
        assert cert == _assert_same_as_reference(spec, h0)
        assert cert.accepted and cert.mixed == ()
    assert find_anosov_elements(spec) == swept


def test_chamber_sweep_off_the_zero_root_space_finds_nothing():
    # flow span(diag(1, 0, -1)) in sl(3): the zero root space is the 2-dim diagonal
    g = lie_algebra_from_matrices(sl_basis(3))
    spec = ActionSpec(g, Subspace(g, [_sl_diagonal((1, 0, -1))]))
    assert _sweep(spec) == ()
    assert find_anosov_elements(spec) == ()
    samples = _chamber_elements(spec)
    assert len(samples) == 2
    for v in samples:
        ref = _assert_same_as_reference(spec, v)
        assert (ref.axis_outside, ref.off_axis_inside) == (1, 0)


def test_search_enumerates_only_the_chambers_it_reads(monkeypatch):
    calls = _count_calls(monkeypatch, "restricted_roots", "weyl_chambers")
    # flow + isotropy is not the zero root space: every chamber would be refused
    g = lie_algebra_from_matrices(sl_basis(3))
    assert find_anosov_elements(ActionSpec(g, Subspace(g, [_sl_diagonal((1, 0, -1))]))) == ()
    assert calls == {"restricted_roots": 1}
    calls.clear()
    # the flow does not hold its hyperbolic span: the grid search decides
    assert find_anosov_elements(_tilted_so13())
    assert not calls


def _sweep_with_roots(monkeypatch, edit):
    """_chamber_sweep on the Cartan subspace of sl(3), with the second nonzero
    root of restricted_roots' output replaced by edit(first, second)."""
    real = liecert.anosov.restricted_roots

    def edited(g, a):
        rs = real(g, a)
        roots = list(rs.roots)
        i, j = [k for k, r in enumerate(roots) if not r.is_zero][:2]
        roots[j] = edit(roots[i], roots[j])
        return replace(rs, roots=tuple(roots))

    monkeypatch.setattr(liecert.anosov, "restricted_roots", edited)
    return _sweep(_cartan_action(sl_basis(3)))


def test_chamber_sweep_checks_the_multiplicities(monkeypatch):
    with pytest.raises(AlgebraError, match="multiplicities"):
        _sweep_with_roots(monkeypatch, lambda first, r: replace(r, multiplicity=r.multiplicity + 1))


def test_chamber_sweep_checks_the_root_spaces_are_independent(monkeypatch):
    with pytest.raises(AlgebraError, match="not independent"):
        _sweep_with_roots(monkeypatch, lambda first, r: replace(r, space=first.space))


def test_chamber_sweep_checks_each_root_space_is_flow_invariant(monkeypatch):
    # e_alpha + e_beta: independent of the other spaces, invariant under no regular h
    def mixed(first, r):
        return replace(r, space=(tuple(x + y for x, y in zip(first.space[0], r.space[0])),))

    with pytest.raises(AlgebraError, match="not invariant"):
        _sweep_with_roots(monkeypatch, mixed)


def test_chamber_sweep_checks_each_sample_against_every_root(monkeypatch):
    # weyl_chambers re-checks its own samples on the same roots, so a sample
    # on a wall is forced by editing the chambers, not the roots
    real = liecert.anosov.weyl_chambers

    def on_a_wall(rs):
        chambers = real(rs)
        x, y = rs.nonzero_roots()[0].values
        first = replace(chambers.chambers[0], sample=(y, -x))
        return replace(chambers, chambers=(first,) + chambers.chambers[1:])

    monkeypatch.setattr(liecert.anosov, "weyl_chambers", on_a_wall)
    with pytest.raises(AlgebraError, match="vanishes on a nonzero root"):
        _sweep(_cartan_action(sl_basis(3)))


def _nilpotent_flow_action():
    """The Heisenberg algebra span(A, B, C), [A, B] = C, acting on span(v1, v2, v3)
    by A = diag(1, 1, -1), B = [[2, 1, 0], [0, 2, 0], [0, 0, 1]] and C = 0, with
    the whole non-abelian Heisenberg algebra as the flow and no isotropy."""
    a, b = [[1, 0, 0], [0, 1, 0], [0, 0, -1]], [[2, 0, 0], [1, 2, 0], [0, 0, 1]]
    brackets = [(0, 1, 2, 1)] + [
        (x, 3 + j, 3 + i, m[j][i]) for x, m in ((0, a), (1, b)) for j in range(3) for i in range(3)
    ]
    g = LieAlgebra.from_entries(6, brackets + [(j, i, k, -c) for i, j, k, c in brackets])
    return ActionSpec(g, _span(g, 0, 1, 2))


def _diagonal_suspension(*diagonals):
    """build_suspension of the diagonal derivations, with the first fiber line
    as isotropy: on h = sum_i c_i T_i its weight sum_i c_i diagonals[i][0]
    lies inside flow + isotropy."""
    spec = build_suspension(
        [[[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)] for d in diagonals]
    )
    return ActionSpec(spec.ambient, spec.flow, _span(spec.ambient, 0))


WEIGHT_ACTIONS = {
    **{
        name: (lambda name=name: build_example(name))
        for name in ("heisenberg-starkov", "wedge", "suspension-hyperbolic", "suspension-r2")
    },
    "nilpotent-flow": _nilpotent_flow_action,
    # a candidate can be refused on either side of the criterion or on both
    "isotropy": lambda: _diagonal_suspension((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)),
    # Anosov on the ray c_0 = c_1 alone: the seeded rational samples run
    "isotropy-ray": lambda: _diagonal_suspension((1, 1, 2), (-1, 1, 1)),
}


@pytest.mark.parametrize("name", list(WEIGHT_ACTIONS))
def test_weight_decisions_match_check_anosov(monkeypatch, name):
    """Every candidate decided off the flow's weights is decided as check_anosov
    decides it, and the search tries the same candidates as with check_anosov."""
    spec = WEIGHT_ACTIONS[name]()
    decided = _record_decisions(monkeypatch)
    real_reader = liecert.anosov._flow_reader
    refusals = set()
    for budget in (3, 50, 200, 600):
        for seed in (0, 1, 5):
            monkeypatch.setattr(liecert.anosov, "_flow_reader", real_reader)
            found = find_anosov_elements(spec, budget=budget, seed=seed)
            read = decided[:]
            decided.clear()
            monkeypatch.setattr(liecert.anosov, "_flow_reader", lambda action: None)
            assert find_anosov_elements(spec, budget=budget, seed=seed) == found
            assert {p for p, *_ in read} == {"weights"} and {p for p, *_ in decided} == {"check"}
            assert [res for *_, res in read] == [res for *_, res in decided]
            decided.clear()
            refusals |= {
                (r.axis_outside > 0, r.off_axis_inside > 0) for *_, r in read if not r.accepted
            }
    assert found
    if name == "isotropy":
        assert refusals == {(True, False), (False, True), (True, True)}


def _companion(p):
    """The companion matrix of p / p.leading, whose characteristic polynomial it is."""
    n, cs = p.degree, [c / p.leading for c in p.coeffs]
    return [[int(i == j + 1) if j < n - 1 else -cs[i] for j in range(n)] for i in range(n)]


@given(root_polynomials(max_factors=2, max_multiplicity=2), st.booleans())
@example(P([-2, 1]) * P([3, 1]) * P([3, 1]), True)  # rational weights, one of them twice
@example(P([1, 0, 1]), False)  # a rotation
@example(P([-5, 2, 1]), False)  # -1 +- sqrt 6
@settings(max_examples=40, deadline=None)
def test_weight_decisions_match_check_anosov_on_suspensions(p, squared):
    """Suspensions by the companion matrix C of a drawn polynomial, and by C and
    C^2: a flow with rational weights is decided off them, one with an
    irrational or complex weight (rotations among them) by check_anosov."""
    assume(p.degree <= 6)
    c = _companion(p)
    spec = build_suspension([c, matmul(c, c)] if squared else [c])
    with pytest.MonkeyPatch.context() as monkeypatch:
        decided = _record_decisions(monkeypatch)
        find_anosov_elements(spec, budget=40)
    rational = all(phi.degree == 1 for phi, _ in factor_with_multiplicity(p))
    assert decided and {path for path, *_ in decided} == {"weights" if rational else "check"}
    for _, action, h0, res in decided:
        assert res == check_anosov(action, h0)


def _search_with_blocks(monkeypatch, spec, edit):
    """find_anosov_elements(spec) with the joint weight spaces of its flow,
    integer rows spanning each, replaced by edit(blocks)."""
    real = liecert.anosov._integer_blocks
    monkeypatch.setattr(liecert.anosov, "_integer_blocks", lambda *a: edit(real(*a)))
    return find_anosov_elements(spec)


@pytest.mark.parametrize("name", ["sl4-chambers", "suspension-r2"])
def test_weight_reader_reads_without_making_rows_integer(monkeypatch, name):
    """The weight and root spaces reach the reader as integer rows, so
    deciding an element, in the chamber sweep of sl(4) or the grid search
    off the flow's weights, turns no `Fraction` row back into integers."""
    if name == "sl4-chambers":
        spec = build_weyl_chamber(lie_algebra_from_matrices(sl_basis(4)))
    else:
        spec = build_example(name)
    calls, reads = Counter(), Counter()
    real_row, real_reader = liecert.linalg.integer_row, liecert.anosov._weight_reader

    def row(v):
        calls["integer_row"] += 1
        return real_row(v)

    def reader(action, blocks):
        read = real_reader(action, blocks)

        def counted(h0, coords):
            reads["read"] += 1
            before = calls["integer_row"]
            res = read(h0, coords)
            reads["integer_row"] += calls["integer_row"] - before
            return res

        return counted

    monkeypatch.setattr(liecert.linalg, "integer_row", row)
    monkeypatch.setattr(liecert.anosov, "_weight_reader", reader)
    assert find_anosov_elements(spec)
    assert reads["read"] > 1 and reads["integer_row"] == 0


def test_weight_search_checks_the_weight_spaces_are_independent(monkeypatch):
    def repeat(blocks):
        return [blocks[0], (blocks[0][0], blocks[1][1])] + blocks[2:]

    with pytest.raises(AlgebraError, match="not independent"):
        _search_with_blocks(monkeypatch, build_example("suspension-hyperbolic"), repeat)


def test_weight_search_checks_each_weight_space_is_flow_invariant(monkeypatch):
    # e_1 + e_2 for eigenvectors of weights 1 and -1: invariant under no flow element
    def mixed(blocks):
        (first, _), (second, values) = blocks[:2]
        row = [x + y for x, y in zip(first[0], second[0])]
        return [blocks[0], ([row], values)] + blocks[2:]

    with pytest.raises(AlgebraError, match="not invariant"):
        _search_with_blocks(monkeypatch, build_example("suspension-hyperbolic"), mixed)


def test_weight_search_checks_flow_isotropy_splits_along_the_weight_spaces(monkeypatch):
    # every ad is zero, so any splitting is invariant; the flow span(e_2)
    # meets none of span(e_0), span(e_1), span(e_0 + e_2)
    spec = build_suspension([[[0, 0], [0, 0]]])
    lines = ([[1, 0, 0]], [[0, 1, 0]], [[1, 0, 1]])
    with pytest.raises(AlgebraError, match="sum of its weight parts"):
        _search_with_blocks(monkeypatch, spec, lambda blocks: [(line, (F(0),)) for line in lines])


@pytest.mark.parametrize(
    "derivation",
    [
        [[0, 1], [2, 0]],  # t^2 - 2: one factor on both sides, no rational split
        [[1, -1], [1, 1]],  # t^2 - 2t + 2: roots 1 +- i on one line
        [[0, 0, 2], [1, 0, -2], [0, 1, 3]],  # t^3 - 3t^2 + 2t - 2: one side, no line
        [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, -1, -1], [0, 0, 1, -1]],  # both kinds
        [[0, 0, 0, -34], [1, 0, 0, 48], [0, 1, 0, -28], [0, 0, 1, 8]],  # a line quartic
    ],
    ids=["mixed-quadratic", "line-pair", "one-side-cubic", "mixed-and-line", "line-quartic"],
)
def test_suspension_certificates_match_former_check(derivation):
    spec = build_suspension([derivation])
    cert = _assert_same_as_reference(spec, spec.ambient.basis_vector(len(derivation)))
    assert cert.accepted
