from dataclasses import replace
from fractions import Fraction

import pytest

import liecert.anosov
from liecert.algebra import (
    LieAlgebra,
    StructureError,
    Subspace,
    ValidationError,
    direct_sum,
)
from liecert.anosov import (
    ActionSpec,
    AnosovCertificate,
    AnosovRefusal,
    Inconclusive,
    action_csa,
    check_anosov,
    classify,
    codimension,
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
    build_suspension,
    build_wedge_example,
)
from liecert.cartan import is_csa

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


def test_irrational_split_uses_numeric_bases():
    spec = build_suspension([[[0, 1], [2, 0]]])  # eigenvalues +-sqrt(2)
    res = check_anosov(spec, spec.ambient.basis_vector(2))
    assert isinstance(res, AnosovCertificate)
    assert res.stable_exact is None and res.unstable_exact is None
    assert len(res.carrier) == 2  # the carrier stays rational
    assert (res.splitting.counts.n_neg, res.splitting.counts.n_pos) == (1, 1)
    assert not res.gap_exact and 0 < res.gap < 2
    assert res.invariance.ok
    assert res.invariance.numeric_residual < 1e-9


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
    bad = replace(cert, stable_exact=((F(0), F(1), F(1)),))  # e + f not invariant
    rep = splitting_invariance(spec, bad)
    assert not rep.ok
    assert any("stable" in v for v in rep.violations)


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


@pytest.mark.parametrize("budget", [-5, 0, 1, 3])
def test_search_tries_at_most_budget_candidates(monkeypatch, budget):
    spec = build_heisenberg_starkov()  # no root system: the grid search runs
    tried = []
    real = liecert.anosov.check_anosov
    monkeypatch.setattr(
        liecert.anosov, "check_anosov", lambda *a, **k: tried.append(a[1]) or real(*a, **k)
    )
    found = find_anosov_elements(spec, budget=budget)
    assert len(tried) == max(budget, 0)
    assert len(found) <= len(tried)


# -- codimension and derived ideal ----------------------------------------------


def test_codimension_one_sl2():
    spec = build_sl2_geodesic()
    cert = check_anosov(spec, spec.ambient.basis_vector(0))
    assert codimension(cert) == 1
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


def test_classify_inconclusive():
    spec = build_suspension([[[0, 0], [0, 0]]])
    with pytest.raises(Inconclusive):
        classify(spec, budget=20)


def test_classify_lattice_caveat_present():
    rep = classify(build_sl2_geodesic(), budget=20)
    assert any("lattice" in c for c in rep.caveats)


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


def test_nil_suspension_rejects_non_ideal():
    total = build_wedge_example()
    g = total.ambient
    base = build_suspension([[[1, 0], [0, -1]]])
    with pytest.raises(StructureError):
        nil_suspension_check(base, total, _span(g, 0))


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
