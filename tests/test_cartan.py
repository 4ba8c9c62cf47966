import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import liecert.cartan
import liecert.linalg
from generators import dot, fraction_ad, functional_root_system, inverse, matrix
from liecert.algebra import (
    AlgebraError,
    LieAlgebra,
    StructureError,
    Subspace,
    bracket_space,
    center,
    full_space,
    killing_form,
    lie_algebra_from_matrices,
    quotient_by_ideal,
    radical,
    subalgebra_table,
    zero_space,
)
from liecert.cartan import (
    Chamber,
    ChamberSet,
    EllipticityReport,
    RootInfo,
    RootSystem,
    _fm_extend,
    _inner_solution,
    _fm_sample,
    _generic,
    _joint_blocks,
    _largest_root,
    _scalar,
    _zero_complement,
    cartan_subspace,
    compact_levi_split,
    csa_from_action,
    ellipticity_proxy,
    engel_subalgebra,
    find_csa,
    hyperbolic_part,
    hyperbolic_span,
    is_ad_hyperbolic,
    is_csa,
    restricted_roots,
    solve_ad,
    weyl_chambers,
)
from liecert.builders import build_example, build_suspension, catalog_names, sl_basis
from liecert.linalg import (
    IntMatrix,
    _from_integer,
    combine,
    frac,
    generalized_kernel,
    identity,
    integer_row,
    matmul,
    restrict_operator,
    restrict_operators,
    solve,
)
from liecert.poly import RationalPolynomial, squarefree_part
from liecert.spectral import (
    apply_poly,
    char_poly,
    factor_with_multiplicity,
    jordan_chevalley,
    operator_sign_counts,
)
from test_acceptance import _sl_diagonal

F = Fraction


def sl2() -> LieAlgebra:
    # basis h, e, f
    z = (F(0), F(0), F(0))
    t = [[z, z, z] for _ in range(3)]
    t[0][1] = (F(0), F(2), F(0))
    t[1][0] = (F(0), F(-2), F(0))
    t[0][2] = (F(0), F(0), F(-2))
    t[2][0] = (F(0), F(0), F(2))
    t[1][2] = (F(1), F(0), F(0))
    t[2][1] = (F(-1), F(0), F(0))
    return LieAlgebra(t, labels=("h", "e", "f"))


def heisenberg() -> LieAlgebra:
    z = (F(0), F(0), F(0))
    t = [[z, z, z] for _ in range(3)]
    t[0][1] = (F(0), F(0), F(1))
    t[1][0] = (F(0), F(0), F(-1))
    return LieAlgebra(t, labels=("x", "y", "z"))


def abelian(n: int) -> LieAlgebra:
    z = tuple(F(0) for _ in range(n))
    return LieAlgebra([[z] * n for _ in range(n)])


def starkov_solvable() -> LieAlgebra:
    # X, Y, Z, T with [X,Y] = Z, [T,X] = X, [T,Y] = -Y
    z = (F(0), F(0), F(0), F(0))
    t = [[z, z, z, z] for _ in range(4)]
    t[0][1] = (F(0), F(0), F(1), F(0))
    t[1][0] = (F(0), F(0), F(-1), F(0))
    t[3][0] = (F(1), F(0), F(0), F(0))
    t[0][3] = (F(-1), F(0), F(0), F(0))
    t[3][1] = (F(0), F(-1), F(0), F(0))
    t[1][3] = (F(0), F(1), F(0), F(0))
    return LieAlgebra(t, labels=("X", "Y", "Z", "T"))


def _e(i, j, n=4):
    return matrix(
        [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]
    )


def _madd(a, b, sa=1, sb=1):
    return tuple(
        tuple(frac(sa) * x + frac(sb) * y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def so13() -> tuple[LieAlgebra, tuple]:
    """Lorentz algebra from its defining 4x4 matrices.

    Basis order: boosts B1, B2, B3 then rotations R1, R2, R3.
    """
    b1 = _madd(_e(0, 1), _e(1, 0))
    b2 = _madd(_e(0, 2), _e(2, 0))
    b3 = _madd(_e(0, 3), _e(3, 0))
    r1 = _madd(_e(2, 3), _e(3, 2), 1, -1)
    r2 = _madd(_e(3, 1), _e(1, 3), 1, -1)
    r3 = _madd(_e(1, 2), _e(2, 1), 1, -1)
    mats = (b1, b2, b3, r1, r2, r3)
    g = lie_algebra_from_matrices(
        mats, labels=("B1", "B2", "B3", "R1", "R2", "R3")
    )
    return g, mats


def so3() -> LieAlgebra:
    r1 = _madd(_e(1, 2, 3), _e(2, 1, 3), 1, -1)
    r2 = _madd(_e(2, 0, 3), _e(0, 2, 3), 1, -1)
    r3 = _madd(_e(0, 1, 3), _e(1, 0, 3), 1, -1)
    return lie_algebra_from_matrices((r1, r2, r3), labels=("R1", "R2", "R3"))


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    n1, n2 = g1.dim, g2.dim
    n = n1 + n2
    zero = tuple(F(0) for _ in range(n))
    t = [[zero] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            t[i][j] = g1.table[i][j] + tuple(F(0) for _ in range(n2))
    for i in range(n2):
        for j in range(n2):
            t[n1 + i][n1 + j] = tuple(F(0) for _ in range(n1)) + g2.table[i][j]
    return LieAlgebra(t)


def random_solvable(rng: random.Random) -> LieAlgebra:
    from generators import random_solvable as gen

    return gen(rng)


# -- Engel subalgebras --------------------------------------------------------


def test_engel_of_semisimple_element_is_its_centralizer():
    g = sl2()
    e = engel_subalgebra(g, g.basis_vector(0))
    assert e.dim == 1
    assert e.contains(g.basis_vector(0))
    assert e.is_subalgebra()


def test_engel_of_nilpotent_element_is_everything():
    g = sl2()
    e = engel_subalgebra(g, g.basis_vector(1))
    assert e.dim == 3


def test_engel_contains_element_and_closed_randomized():
    rng = random.Random(7)
    for _ in range(10):
        g = random_solvable(rng)
        x = tuple(F(rng.randint(-3, 3)) for _ in range(g.dim))
        e = engel_subalgebra(g, x)
        assert e.contains(x)
        assert e.is_subalgebra()


# -- Cartan subalgebra predicate and search -----------------------------------


def test_is_csa_span_h_in_sl2():
    g = sl2()
    assert is_csa(g, Subspace(g, [g.basis_vector(0)]))
    # the compact line e - f is a Cartan subalgebra too
    assert is_csa(g, Subspace(g, [(F(0), F(1), F(-1))]))


def test_is_csa_rejects_span_e():
    g = sl2()
    assert not is_csa(g, Subspace(g, [g.basis_vector(1)]))


def test_is_csa_whole_heisenberg():
    g = heisenberg()
    assert is_csa(g, full_space(g))


def test_find_csa_abelian_returns_whole():
    g = abelian(3)
    assert find_csa(g).dim == 3


def test_find_csa_sl2_rank_one():
    c = find_csa(sl2())
    assert c.dim == 1
    assert is_csa(sl2(), c)


def test_find_csa_heisenberg_whole():
    g = heisenberg()
    assert find_csa(g).dim == 3


def test_find_csa_starkov_dimension_two():
    g = starkov_solvable()
    c = find_csa(g)
    assert c.dim == 2
    assert is_csa(g, c)
    # the CSA is span(Z, T)
    assert c.contains(g.basis_vector(2))


def test_find_csa_deterministic_in_seed():
    g = starkov_solvable()
    assert find_csa(g, seed=3).basis == find_csa(g, seed=3).basis


def test_find_csa_seed_dimension_agreement():
    rng = random.Random(11)
    g = random_solvable(rng)
    dims = {find_csa(g, seed=s).dim for s in range(5)}
    assert len(dims) == 1


def test_projected_csa_is_csa_of_quotient():
    g = starkov_solvable()
    c = find_csa(g)
    centre = Subspace(g, [g.basis_vector(2)])
    q = quotient_by_ideal(g, centre)
    assert is_csa(q.quotient, q.push_space(c))


# -- compact-part splitting ---------------------------------------------------


def test_compact_split_abelian():
    g = so3()
    k = Subspace(g, [g.basis_vector(0)])
    s = compact_levi_split(g, k)
    assert s.reductive
    assert s.semisimple.dim == 0
    assert s.central == k


def test_compact_split_so3_is_semisimple():
    g = so3()
    s = compact_levi_split(g, full_space(g))
    assert s.reductive
    assert s.semisimple.dim == 3
    assert s.central.dim == 0


def test_compact_split_so3_plus_line():
    g = direct_sum(so3(), abelian(1))
    s = compact_levi_split(g, full_space(g))
    assert s.reductive
    assert s.semisimple.dim == 3
    assert s.central.dim == 1


def test_ellipticity_proxy_passes_so3():
    g = so3()
    rep = ellipticity_proxy(g, full_space(g))
    assert rep.passed


def test_ellipticity_proxy_rejects_split_torus():
    g = sl2()
    rep = ellipticity_proxy(g, Subspace(g, [g.basis_vector(0)]))
    assert not rep.all_axis
    assert not rep.passed


def test_ellipticity_proxy_rotation_in_lorentz():
    g, _ = so13()
    rep = ellipticity_proxy(g, Subspace(g, [g.basis_vector(3)]))
    assert rep.passed


def table_ellipticity_proxy(g, k):
    """The former ellipticity_proxy: the Killing form and center of k's own table."""
    all_axis = True
    for v in k.basis:
        c = operator_sign_counts(g.ad_integer(v))
        if c.n_neg or c.n_pos:
            all_axis = False
            break
    if k.dim == 0:
        return EllipticityReport(True, True, True)
    try:
        sub, _ = subalgebra_table(k)
    except StructureError:
        return EllipticityReport(all_axis, False, False)
    inertia = operator_sign_counts(killing_form(sub))
    return EllipticityReport(all_axis, inertia.n_pos == 0, inertia.n_zero_real == center(sub).dim)


def _closure(s):
    while True:
        grown = s.sum(bracket_space(s, s))
        if grown == s:
            return s
        s = grown


def test_ellipticity_proxy_matches_the_table_reference():
    # the catalog isotropies and flow + isotropy spans, the two parts of
    # compact_levi_split, and random spans of the catalog algebras, closed
    # and not; plus so(3), whose Killing form is negative definite
    rng = random.Random(30)
    cases = [(so3(), full_space(so3()))]
    for name in catalog_names():
        action = build_example(name)
        g = action.ambient
        split = compact_levi_split(g, action.isotropy)
        cases += [(g, s) for s in (action.isotropy, action.joint, split.semisimple, split.central)]
        for _ in range(12):
            vecs = [tuple(F(rng.randint(-1, 1)) for _ in range(g.dim)) for _ in range(rng.randint(1, 3))]
            s = Subspace(g, vecs)
            cases += [(g, s), (g, _closure(s))]
    reports = []
    for g, s in cases:
        rep = ellipticity_proxy(g, s)
        assert rep == table_ellipticity_proxy(g, s)
        reports.append(rep)
    assert {r.passed for r in reports} == {True, False}
    assert EllipticityReport(False, False, False) in reports  # a span that is not closed
    assert any(r.all_axis and not r.kernel_matches_center for r in reports)


# -- CSA from an action datum -------------------------------------------------


def test_csa_from_action_trivial_isotropy():
    g = sl2()
    out = csa_from_action(
        g, Subspace(g, [g.basis_vector(0)]), zero_space(g)
    )
    assert out.csa == Subspace(g, [g.basis_vector(0)])
    assert not out.corrected


def test_csa_from_action_lorentz_geodesic():
    g, _ = so13()
    h = Subspace(g, [g.basis_vector(0)])  # B1
    k = Subspace(g, [g.basis_vector(3)])  # R1
    out = csa_from_action(g, h, k)
    assert out.csa.dim == 2
    assert out.central == k
    assert out.abelian.dim == 0
    assert is_csa(g, out.csa)


def test_csa_from_action_starkov_plane():
    g = starkov_solvable()
    h = Subspace(g, [g.basis_vector(2), g.basis_vector(3)])
    out = csa_from_action(g, h, zero_space(g))
    assert out.csa.dim == 2
    assert is_csa(g, out.csa)


def test_csa_from_action_corrects_flow():
    g = direct_sum(sl2(), so3())
    # flow generator h + R1 fails to commute with so(3)
    v = tuple(F(x) for x in (1, 0, 0, 1, 0, 0))
    h = Subspace(g, [v])
    k = Subspace(g, [g.basis_vector(i) for i in (3, 4, 5)])
    out = csa_from_action(g, h, k)
    assert out.corrected
    assert out.flow == Subspace(g, [g.basis_vector(0)])
    assert out.abelian.dim == 1
    assert out.csa.dim == 2
    assert is_csa(g, out.csa)


def test_csa_from_action_rejects_bad_datum():
    g = sl2()
    # span(e) is not a CSA, so an (h, k) = (span(e), 0) datum must fail
    with pytest.raises(AlgebraError):
        csa_from_action(g, Subspace(g, [g.basis_vector(1)]), zero_space(g))


# -- hyperbolic elements and Cartan subspaces ---------------------------------


def test_is_ad_hyperbolic_h():
    g = sl2()
    assert is_ad_hyperbolic(g, g.basis_vector(0))


def test_is_ad_hyperbolic_rejects_nilpotent_and_elliptic():
    g = sl2()
    e, f = g.basis_vector(1), g.basis_vector(2)
    assert not is_ad_hyperbolic(g, e)
    rot = tuple(a - b for a, b in zip(e, f))
    assert not is_ad_hyperbolic(g, rot)


def test_is_ad_hyperbolic_accepts_irrational_spectrum():
    g = sl2()
    x = tuple(F(1) for _ in range(3))  # h + e + f, eigenvalues 0, +-2*sqrt(2)
    assert is_ad_hyperbolic(g, x)


def test_hyperbolic_part_of_elliptic_is_zero():
    g = sl2()
    rot = (F(0), F(1), F(-1))
    h = hyperbolic_part(g, rot)
    assert h is not None
    assert all(x == 0 for x in h)


def test_hyperbolic_part_fixes_hyperbolic():
    g = sl2()
    assert hyperbolic_part(g, g.basis_vector(0)) == g.basis_vector(0)


def test_hyperbolic_part_of_a_hyperbolic_element_is_itself(monkeypatch):
    def no_refinement(op):
        raise AssertionError("jordan_chevalley called on an ad-hyperbolic element")

    monkeypatch.setattr("liecert.cartan.jordan_chevalley", no_refinement)
    g = lie_algebra_from_matrices(sl_basis(3))
    x = _sl_diagonal((1, 0, -1))
    assert hyperbolic_part(g, x) == x


def reference_solve_ad(g: LieAlgebra, target):
    """The former solve_ad: the dense n^2 x n `Fraction` system of the ad(e_a)."""
    n = g.dim
    ads = [fraction_ad(g, g.basis_vector(a)) for a in range(n)]
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            rows.append(tuple(ads[a][i][j] for a in range(n)))
            rhs.append(target[i][j])
    return solve(tuple(rows), tuple(rhs))


def test_solve_ad_matches_the_dense_system():
    from test_anosov import _sp4_basis

    cases = []
    for name in catalog_names():
        action = build_example(name)
        cases.append((action.ambient, action.flow.basis + action.isotropy.basis))
    for basis in (sl_basis(3), sl_basis(4), sl_basis(5), _sp4_basis()):
        g = lie_algebra_from_matrices(basis)
        cases.append((g, tuple(g.basis_vector(i) for i in range(g.dim))))
    solved = 0
    for g, xs in cases:
        for x in xs:
            jc = jordan_chevalley(g.ad_integer(x))
            if not jc.exact:
                continue
            y = solve_ad(g, jc.hyperbolic)
            assert y == reference_solve_ad(g, _from_integer(*jc.hyperbolic))
            solved += y is not None
        # the identity is a derivation of no algebra with a nonzero bracket
        eye = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]
        assert solve_ad(g, IntMatrix(eye, 1)) is None
        assert reference_solve_ad(g, eye) is None
    # each basis vector of the four semisimple algebras has an inner hyperbolic part
    assert solved >= 8 + 15 + 24 + 10
    # the isotropy case: flow generators of sl2 + so3 acting on k* = so3
    g = direct_sum(sl2(), so3())
    k = Subspace(g, [g.basis_vector(i) for i in (3, 4, 5)])
    kstar = compact_levi_split(g, k).semisimple.basis
    for coords in ((1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, -2), (0, 1, 0, 3, 0, 1)):
        targets = g.brackets((tuple(map(F, coords)),), kstar)
        y = _inner_solution(g, kstar, kstar, targets)
        assert y is not None
        assert y == reference_inner_solution(g, kstar, targets)
    # the identity of so3 is no derivation
    assert _inner_solution(g, kstar, kstar, kstar) is None
    assert reference_inner_solution(g, kstar, kstar) is None


def reference_inner_solution(g: LieAlgebra, kstar, targets):
    """The former inner representative: the dense `Fraction` system in c with
    sum_j c_j [kstar_j, x] = targets[x] for every x in kstar, solved by rref."""
    m = len(kstar)
    brs = g.brackets(kstar, kstar)  # [kstar_j, kstar_x] at j * m + x
    rows = []
    rhs = []
    for x, target in enumerate(targets):
        col = brs[x::m]
        for r in range(g.dim):
            rows.append(tuple(c[r] for c in col))
            rhs.append(target[r])
    sol = solve(tuple(rows), tuple(rhs))
    return None if sol is None else combine(sol, kstar, g.dim)


def _twisted_r4() -> LieAlgebra:
    """R x R^4, t acting by the companion matrix of t^4 - 2t^2 + 9.

    Its roots +-sqrt(2) +- i are neither all real nor on one vertical
    line, so the hyperbolic/elliptic refinement of ad(t) is irrational.
    """
    comp = [[0, 0, 0, -9], [1, 0, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0]]
    z = tuple(F(0) for _ in range(5))
    t = [[z] * 5 for _ in range(5)]
    for j in range(4):
        img = (F(0),) + tuple(F(comp[i][j]) for i in range(4))
        t[0][j + 1] = img
        t[j + 1][0] = tuple(-x for x in img)
    return LieAlgebra(t)


def test_hyperbolic_span_is_none_on_an_irrational_refinement():
    g = _twisted_r4()
    t, v = g.basis_vector(0), g.basis_vector(1)
    assert hyperbolic_part(g, t) is None
    assert hyperbolic_span(g, [v, t]) is None
    # ad(v) is nilpotent: its hyperbolic part is zero
    assert hyperbolic_span(g, [v]) == zero_space(g)


def test_hyperbolic_span_spans_the_hyperbolic_parts():
    g = sl2()
    h, e, f = (g.basis_vector(i) for i in range(3))
    rot = tuple(a - b for a, b in zip(e, f))
    assert hyperbolic_span(g, [h, rot, e]) == Subspace(g, [h])
    assert hyperbolic_span(g, []) == zero_space(g)


def test_cartan_subspace_sl2():
    a = cartan_subspace(sl2())
    assert a.dim == 1
    assert a.contains(sl2().basis_vector(0))


def test_cartan_subspace_lorentz_is_boost_line():
    g, _ = so13()
    a = cartan_subspace(g)
    assert a.dim == 1
    assert a.contains(g.basis_vector(0))


def test_cartan_subspace_rank_additive():
    g = direct_sum(sl2(), sl2())
    assert cartan_subspace(g).dim == 2


def test_cartan_subspace_rejects_solvable():
    with pytest.raises(StructureError):
        cartan_subspace(heisenberg())


# -- restricted roots ---------------------------------------------------------


def test_restricted_roots_sl2():
    g = sl2()
    a = Subspace(g, [g.basis_vector(0)])
    rs = restricted_roots(g, a)
    assert rs.exact
    vals = sorted(r.values[0] for r in rs.roots)
    assert vals == [F(-2), F(0), F(2)]
    assert all(r.multiplicity == 1 for r in rs.roots)
    assert rs.zero_complement == ()


def test_restricted_roots_lorentz():
    g, _ = so13()
    a = Subspace(g, [g.basis_vector(0)])
    rs = restricted_roots(g, a)
    assert rs.exact
    nz = rs.nonzero_roots()
    assert sorted(r.values[0] for r in nz) == [F(-1), F(1)]
    assert all(r.multiplicity == 2 for r in nz)
    assert [len(r.space) for r in rs.roots if r.is_zero] == [2]
    assert len(rs.zero_complement) == 1
    # the complement of the boost inside the zero space is the rotation R1
    assert Subspace(g, rs.zero_complement) == Subspace(g, [g.basis_vector(3)])


def test_restricted_roots_dimension_reconstruction():
    for g, a_rows in (
        (sl2(), [sl2().basis_vector(0)]),
        (direct_sum(sl2(), sl2()), None),
    ):
        a = cartan_subspace(g) if a_rows is None else Subspace(g, a_rows)
        rs = restricted_roots(g, a)
        assert sum(r.multiplicity for r in rs.roots) == g.dim
        for r in rs.nonzero_roots():
            neg = tuple(-v for v in r.values)
            twin = [s for s in rs.roots if s.values == neg]
            assert len(twin) == 1 and twin[0].multiplicity == r.multiplicity


def test_restricted_roots_rejects_non_semisimple():
    g = abelian(2)
    with pytest.raises(StructureError):
        restricted_roots(g, full_space(g))


def test_restricted_roots_irrational_block():
    g = sl2()
    a = Subspace(g, [(F(1), F(1), F(1))])  # eigenvalues 0, +-2*sqrt(2)
    rs = restricted_roots(g, a)
    assert not rs.exact
    blocks = [r for r in rs.roots if not r.exact]
    assert len(blocks) == 1
    b = blocks[0]
    assert b.multiplicity == 2
    assert b.value_minpolys[0] == RationalPolynomial([-8, 0, 1])
    assert b.value_floats[0] == (pytest.approx(8**0.5, abs=1e-9), 0.0)
    assert math.copysign(1, b.value_floats[0][1]) == 1
    _assert_witnesses(rs)
    zero = [r for r in rs.roots if r.exact]
    assert len(zero) == 1 and zero[0].is_zero and zero[0].multiplicity == 1


def test_restricted_roots_fallback_keeps_only_the_zero_block_exact():
    # h1 and h2 + e2 + f2: the second factor has the irrational values +-2 sqrt 2,
    # so no generic element has a rational spectrum and the fallback decides
    g = direct_sum(sl2(), sl2())
    a = Subspace(g, [tuple(map(F, (1, 0, 0, 0, 0, 0))), tuple(map(F, (0, 0, 0, 1, 1, 1)))])
    rs = restricted_roots(g, a)
    assert not rs.exact
    t = RationalPolynomial([0, 1])
    blocks = {
        (r.multiplicity, r.exact, r.value_minpolys): r.values for r in rs.roots
    }
    assert blocks == {
        # the rational blocks of +-2 are inexact: their values are not all zero
        (1, False, (RationalPolynomial([-2, 1]), t)): None,
        (1, False, (RationalPolynomial([2, 1]), t)): None,
        (2, True, None): (F(0), F(0)),
        (2, False, (t, RationalPolynomial([-8, 0, 1]))): None,
    }
    zero = next(r for r in rs.roots if r.exact)
    assert Subspace(g, zero.space) == a
    assert rs.zero_complement == ()
    _assert_witnesses(rs)


def _assert_witnesses(rs):
    """Each inexact witness is within 1e-9 of the root numpy finds for its
    minimal polynomial: of largest modulus, ties to the larger real part,
    then to the nonnegative imaginary part."""
    for r in rs.roots:
        if r.exact:
            continue
        for m, (re, im) in zip(r.value_minpolys, r.value_floats, strict=True):
            roots = np.roots([float(c) for c in reversed(m.coeffs)])
            top = max(abs(roots))
            want = max(
                (z for z in roots if abs(z) >= top * (1 - 1e-9)),
                key=lambda z: (z.real, abs(z.imag)),
            )
            assert abs(complex(re, im) - complex(want.real, abs(want.imag))) <= 1e-9


def _companion_powers(n):
    """Coordinates in `sl_basis(n)` of C, C^2, ..., C^(n-1), each less its
    trace part, for C the companion matrix of t^n - t - 1: a Cartan
    subspace whose roots generate a field with Galois group S_n (Osada)."""
    c = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    c[0][n - 1] = c[1][n - 1] = 1
    out, power = [], c
    for _ in range(n - 1):
        diag = [F(power[i][i]) - F(sum(power[k][k] for k in range(n)), n) for i in range(n)]
        head = [sum(diag[: i + 1]) for i in range(n - 1)]
        off = [F(power[i][j]) for i in range(n) for j in range(n) if i != j]
        out.append(tuple(head + off))
        power = [[sum(power[i][k] * c[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return out


@pytest.mark.parametrize("n", [6, 7])
def test_restricted_roots_fallback_witnesses_of_high_degree(n):
    # each minimal polynomial has the n(n-1) roots l_i^k - l_j^k, and at
    # n = 7 coefficients past 2e7: its Cauchy radius to the 42nd power overflows
    g = lie_algebra_from_matrices(sl_basis(n))
    rs = restricted_roots(g, Subspace(g, _companion_powers(n)))
    assert not rs.exact
    blocks = [r for r in rs.roots if not r.exact]
    assert [r.multiplicity for r in blocks] == [n * (n - 1)]
    assert [m.degree for m in blocks[0].value_minpolys] == [n * (n - 1)] * (n - 1)
    _assert_witnesses(rs)


def test_unsettled_witness_iteration_is_an_error(monkeypatch):
    monkeypatch.setattr("liecert.cartan.WITNESS_SWEEPS", 1)
    g = sl2()
    with pytest.raises(AlgebraError, match="did not settle"):
        restricted_roots(g, Subspace(g, [(F(1), F(1), F(1))]))


@pytest.mark.parametrize("n, axis", [(4, 2.0679641), (5, 2.1679082), (6, 2.8982231)])
def test_witnesses_on_the_imaginary_axis_have_real_part_zero(n, axis):
    # the noise of the iteration used to be left as the real part, e.g. 4.1e-33 at n = 4
    g = lie_algebra_from_matrices(sl_basis(n))
    rs = restricted_roots(g, Subspace(g, _companion_powers(n)))
    floats = [w for r in rs.roots if not r.exact for w in r.value_floats]
    assert (0.0, pytest.approx(axis)) in floats
    assert all(re == 0.0 for re, im in floats if abs(re) < 1e-9)
    _assert_witnesses(rs)


# -- restricted roots from one generic element, checked against the former loop --


def _former_restrict_block(ads, ker):
    """The former `_restrict_block`: each ad restricted on its own, with its
    characteristic polynomial, and the scalars when all are scalar plus nilpotent."""
    d = len(ker)
    pairs = []
    for adv in ads:
        r = restrict_operator(adv, ker)
        if r is None:
            raise AlgebraError("joint invariant subspace lost invariance")
        pairs.append((r, char_poly(r)))
    values = []
    for r, p in pairs:
        alpha = F(sum(r.rows[i][i] for i in range(d)), r.den * d)
        if p != RationalPolynomial([math.comb(d, k) * (-alpha) ** (d - k) for k in range(d + 1)]):
            return None, pairs
        values.append(alpha)
    return tuple(values), pairs


def reference_restricted_roots(g, a):
    """The former `restricted_roots`: the generic elements sum_i lam^i a_i for
    lam = 1, 2, ... are tried in turn until one has only linear factors and
    every ad is scalar plus nilpotent on each of its primary components."""
    if radical(g).dim != 0:
        raise StructureError("root decomposition requires a semisimple algebra")
    n = g.dim
    if a.dim == 0:
        whole = RootInfo(n, tuple(identity(n)), (), None, (), True)
        return RootSystem((), (whole,), True, whole.space)
    if not a.is_abelian():
        raise StructureError("root decomposition requires an abelian base")
    ads = [g.ad_integer(v) for v in a.basis]
    last_blocks = None
    saw_all_linear = False
    for lam in range(1, liecert.cartan.GENERIC_TRIES + 1):
        coeffs = [F(lam) ** i for i in range(a.dim)]
        a_star = g.ad_integer(combine(coeffs, a.basis, n))
        blocks = []
        for phi, _ in factor_with_multiplicity(char_poly(a_star)):
            blocks.append((phi, generalized_kernel(apply_poly(phi, a_star))))
        if sum(len(k) for _, k in blocks) != n:
            continue
        last_blocks = blocks
        if all(phi.degree == 1 for phi, _ in blocks):
            saw_all_linear = True
            infos = []
            for _, ker in blocks:
                vals = _former_restrict_block(ads, ker)[0]
                if vals is None:
                    break
                floats = tuple((float(v), 0.0) for v in vals)
                infos.append(RootInfo(len(ker), ker, vals, None, floats, True))
            else:
                zero_rows = next((r.space for r in infos if r.is_zero), ())
                comp = _zero_complement(g, a.basis, zero_rows)
                return RootSystem(a.basis, tuple(infos), True, comp)
        if lam >= 8 and not saw_all_linear:
            break
    if last_blocks is None:
        raise AlgebraError("primary decomposition of the generic element failed")
    infos = []
    zero_rows = ()
    for _, ker in last_blocks:
        vals, pairs = _former_restrict_block(ads, ker)
        if vals is not None and not any(vals):
            infos.append(RootInfo(len(ker), ker, vals, None, ((0.0, 0.0),) * len(ads), True))
            zero_rows = ker
            continue
        minpolys = tuple(squarefree_part(p) for _, p in pairs)
        floats = tuple(map(_largest_root, minpolys))
        infos.append(RootInfo(len(ker), ker, None, minpolys, floats, False))
    comp = _zero_complement(g, a.basis, zero_rows)
    return RootSystem(a.basis, tuple(infos), False, comp)


def _sp_basis(m):
    """sp(2m, R) as [[A, B], [C, -A^T]] with B and C symmetric."""
    n = 2 * m

    def unit(entries):
        return tuple(tuple(F(entries.get((r, c), 0)) for c in range(n)) for r in range(n))

    gl = [unit({(i, j): 1, (m + j, m + i): -1}) for i in range(m) for j in range(m)]
    sym = [{(i, m + j): 1, (j, m + i): 1} for i in range(m) for j in range(i, m)]
    lower = [unit({(c, r): x for (r, c), x in e.items()}) for e in sym]
    return tuple(gl + [unit(e) for e in sym] + lower)


# diag(1, -2, 1) + E_13 as (i, j, x) entries: not ad-semisimple
H_PLUS_E13 = ((0, 0, 1), (1, 1, -2), (2, 2, 1), (0, 2, 1))


def _sl3_at(*entries):
    """Coordinates in `sl_basis(3)` of the sum of x E_ij over (i, j, x); the
    diagonal entries must add up to 0."""
    basis = sl_basis(3)
    target = [[F(0)] * 3 for _ in range(3)]
    for i, j, x in entries:
        target[i][j] += x
    rows = tuple(tuple(b[r][c] for b in basis) for r in range(3) for c in range(3))
    return solve(rows, tuple(x for row in target for x in row))


def _root_cases():
    """(name, algebra, base) pairs: split forms on their Cartan subspaces,
    every semisimple catalog example on its flow, the hyperbolic span of
    its flow and its Cartan subspace, and bases with irrational,
    non-separable or nilpotent parts."""
    for name, basis in [
        *((f"sl{n}", sl_basis(n)) for n in range(3, 7)),
        ("sp4", _sp_basis(2)),
        ("sp6", _sp_basis(3)),
    ]:
        g = lie_algebra_from_matrices(basis)
        yield name, g, cartan_subspace(g)
    for name in catalog_names():
        spec = build_example(name)
        g = spec.ambient
        if radical(g).dim:
            continue
        if spec.flow.is_abelian():
            yield f"{name}-flow", g, spec.flow
        hyp = hyperbolic_span(g, spec.flow.basis)
        if hyp is not None:
            yield f"{name}-hyperbolic", g, hyp
        yield f"{name}-cartan", g, cartan_subspace(g)
    g = direct_sum(sl2(), sl2())
    yield "sl2sl2-fallback", g, Subspace(g, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1)])
    # h1 + u and -u for u = h2 + e2 + f2: sum_i a_i = h1 has rational
    # eigenvalues, the values +-2 sqrt 2 of u show only inside its zero block
    yield "sl2sl2-cancelling", g, Subspace(g, [(1, 0, 0, 1, 1, 1), (0, 0, 0, -1, -1, -1)])
    g = sl2()
    yield "sl2-irrational", g, Subspace(g, [(1, 1, 1)])
    for n in range(3, 7):
        g = lie_algebra_from_matrices(sl_basis(n))
        yield f"sl{n}-companion", g, Subspace(g, _companion_powers(n))
    g = lie_algebra_from_matrices(sl_basis(3))
    yield "sl3-not-hyperbolic", g, Subspace(g, [_sl3_at(*H_PLUS_E13)])


def test_restricted_roots_match_the_former_loop():
    names = []
    for name, g, a in _root_cases():
        got = restricted_roots(g, a)
        assert got == reference_restricted_roots(g, a), name
        names.append((name, got.exact))
    exact = dict(names)
    assert all(exact[f"sl{n}"] for n in range(3, 7)) and exact["sp4"] and exact["sp6"]
    assert not any(exact[k] for k in ("sl2sl2-fallback", "sl2sl2-cancelling", "sl2-irrational"))
    assert not any(exact[f"sl{n}-companion"] for n in range(3, 7))
    assert exact["sl3-not-hyperbolic"]


@pytest.mark.parametrize("tries", [1, 2])
def test_restricted_roots_without_a_separating_element_match_the_former_loop(monkeypatch, tries):
    # on the Cartan subspace of sl(4), lam = 1 and 2 give colliding values
    monkeypatch.setattr(liecert.cartan, "GENERIC_TRIES", tries)
    g = lie_algebra_from_matrices(sl_basis(4))
    a = cartan_subspace(g)
    got = restricted_roots(g, a)
    assert not got.exact
    assert got == reference_restricted_roots(g, a)


def test_restricted_roots_and_the_former_loop_raise_alike():
    # h + E_13 and E_13, h = diag(1, -2, 1): E_13 is in the zero root space and
    # isotropic for the Killing form, so the zero space does not split off the base
    g = lie_algebra_from_matrices(sl_basis(3))
    a = Subspace(g, [_sl3_at(*H_PLUS_E13), _sl3_at((0, 2, 1))])
    with pytest.raises(AlgebraError) as got:
        restricted_roots(g, a)
    with pytest.raises(AlgebraError) as want:
        reference_restricted_roots(g, a)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_roots_factor_one_generic_element(monkeypatch, n):
    g = lie_algebra_from_matrices(sl_basis(n))
    a = cartan_subspace(g)
    sizes = []
    real = liecert.cartan.char_poly
    monkeypatch.setattr(liecert.cartan, "char_poly", lambda m: sizes.append(len(m.rows)) or real(m))
    assert restricted_roots(g, a).exact
    assert sizes.count(g.dim) == 1
    assert max(sizes) == g.dim


# -- joint blocks on integer rows, checked against the former Fraction blocks --


def _former_scalar(r, p):
    """The former `_scalar`: alpha when the characteristic polynomial p of
    the d x d matrix r is (t - alpha)^d, else None."""
    d = len(r.rows)
    alpha = F(sum(r.rows[i][i] for i in range(d)), r.den * d)
    if p != RationalPolynomial([math.comb(d, k) * (-alpha) ** (d - k) for k in range(d + 1)]):
        return None
    return alpha


def reference_joint_blocks(ads, op, factors, base=None):
    """The former `_joint_blocks`, on `Fraction` rows: each primary component
    is the rref rows of `generalized_kernel`, the ads are restricted to it
    by one `Coordinates` elimination (`restrict_operators`), each is tested
    on its characteristic polynomial, and a nested block is its kernel
    rows times the rows of its parent."""
    if any(phi.degree > 1 for phi, _ in factors):
        return None
    out = []
    for phi, _ in factors:
        ker = generalized_kernel(apply_poly(phi, op))
        rs = restrict_operators(ads, ker)
        if None in rs:
            raise AlgebraError("joint invariant subspace lost invariance")
        space = ker if base is None else matmul(ker, base)
        values = []
        for r in rs:
            p = char_poly(r)
            alpha = _former_scalar(r, p)
            if alpha is None:
                inner = reference_joint_blocks(rs, r, factor_with_multiplicity(p), space)
                if inner is None:
                    return None
                out.extend(inner)
                break
            values.append(alpha)
        else:
            out.append((space, tuple(values)))
    return out


def _outcome(f, *args):
    """f(*args), or the type and message of the AlgebraError it raises."""
    try:
        return f(*args)
    except AlgebraError as e:
        return type(e), str(e)


def _assert_blocks_match_reference(g, a, name):
    """`_joint_blocks` and the reference agree on the ads of the basis of a,
    split from the generic element sum_i a_i; returns the blocks and the
    number of factors of that element."""
    ads = [g.ad_integer(v) for v in a.basis]
    op, factors = _generic(g, a, 1)
    got = _outcome(_joint_blocks, ads, op, factors)
    assert got == _outcome(reference_joint_blocks, ads, op, factors), name
    return got, len(factors)


def test_joint_blocks_match_the_reference_on_the_root_cases():
    for name, g, a in _root_cases():
        _assert_blocks_match_reference(g, a, name)


def test_joint_blocks_match_the_reference_on_the_catalog_flows():
    for name in catalog_names():
        spec = build_example(name)
        _assert_blocks_match_reference(spec.ambient, spec.flow, name)


def test_joint_blocks_and_the_reference_raise_alike_on_a_block_that_is_not_invariant():
    # E_12 maps the eigenline e_2 of diag(1, 2) to e_1: the two do not commute
    op = IntMatrix([[1, 0], [0, 2]], 1)
    ads = [op, IntMatrix([[0, 1], [0, 0]], 1)]
    factors = factor_with_multiplicity(char_poly(op))
    got = _outcome(_joint_blocks, ads, op, factors)
    assert got == (AlgebraError, "joint invariant subspace lost invariance")
    assert got == _outcome(reference_joint_blocks, ads, op, factors)


def _rational_suspension(rng):
    """A suspension of R^p, p = 2..4, by one or two commuting derivations
    P D P^-1 with rational spectra: D upper triangular with a repeated
    diagonal entry for each superdiagonal entry it carries, the second a
    polynomial in the first or diagonal beside a diagonal first."""
    p = rng.randint(2, 4)
    pmat = tuple(tuple(F(rng.randint(-2, 2) + 3 * (i == j)) for j in range(p)) for i in range(p))
    pinv = inverse(pmat)
    if pinv is None:
        return None
    diag = [F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(p)]
    d1 = [[diag[i] if i == j else F(0) for j in range(p)] for i in range(p)]
    second = rng.choice(["none", "poly", "diagonal"])
    if second != "diagonal":
        for i in range(p - 1):
            if rng.random() < 0.5:
                diag[i + 1] = diag[i]
                d1[i + 1][i + 1] = diag[i]
                d1[i][i + 1] = F(rng.randint(1, 2))
    mats = [d1]
    if second == "poly":
        c0, c1 = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        sq = matmul(d1, d1)
        mats.append([[c0 * (i == j) + c1 * d1[i][j] + sq[i][j] for j in range(p)] for i in range(p)])
    elif second == "diagonal":
        mats.append([[F(rng.randint(-2, 2)) * (i == j) for j in range(p)] for i in range(p)])
    return build_suspension([matmul(matmul(pmat, m), pinv) for m in mats])


def test_joint_blocks_match_the_reference_on_seeded_rational_suspensions():
    rng = random.Random(31)
    nested = 0
    for k in range(60):
        spec = _rational_suspension(rng)
        if spec is None:
            continue
        blocks, count = _assert_blocks_match_reference(spec.ambient, spec.flow, f"draw {k}")
        assert blocks is not None
        nested += len(blocks) > count
    assert nested  # some generic element leaves a component to split


@st.composite
def _scalar_cases(draw):
    """(R, den) with R a d x d integer matrix, d <= 5: a Jordan form a I + N
    for strictly upper triangular N, conjugated by elementary integer
    matrices; a traceless non-scalar matrix; or a random one."""
    d = draw(st.integers(1, 5))
    den = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["jordan", "traceless", "random"]))
    entry = st.integers(-3, 3)
    if kind == "jordan":
        a = draw(entry)
        rows = [[a * (i == j) + (draw(entry) if j > i else 0) for j in range(d)] for i in range(d)]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            c = draw(st.integers(-2, 2))
            if i == j:
                continue
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]  # E R ...
            for row in rows:
                row[j] -= c * row[i]  # ... E^-1, E = I + c E_ij
    else:
        rows = [[draw(entry) for _ in range(d)] for _ in range(d)]
        if kind == "traceless":
            rows[-1][-1] -= sum(rows[i][i] for i in range(d))
            assume(d > 1 and any(map(any, rows)))
    return rows, den


@given(_scalar_cases())
@example(([[0, 1], [0, 0]], 1))
@example(([[1, 1], [-1, -1]], 3))
@example(([[2, 0], [0, 2]], 4))
@settings(max_examples=200, deadline=None)
def test_integer_scalar_test_matches_the_characteristic_polynomial(case):
    rows, den = case
    r = IntMatrix(rows, den)
    want = _former_restrict_block([r], identity(len(rows)))[0]
    alpha = _scalar(r)
    assert (None if alpha is None else (alpha,)) == want


def test_joint_blocks_build_fraction_rows_only_for_the_returned_blocks(monkeypatch):
    g = lie_algebra_from_matrices(sl_basis(5))
    a = cartan_subspace(g)
    counts = Counter()

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(liecert.linalg, "Coordinates", counted("Coordinates", liecert.linalg.Coordinates))
    for module in (liecert.linalg, liecert.cartan):
        monkeypatch.setattr(module, "_rref_rows", counted("_rref_rows", module._rref_rows))
    real, used = liecert.cartan._joint_blocks, []

    def blocks(*args):
        before = counts.copy()
        out = real(*args)
        used.append((counts - before, len(out)))
        return out

    monkeypatch.setattr(liecert.cartan, "_joint_blocks", blocks)
    assert restricted_roots(g, a).exact
    assert used == [(Counter({"_rref_rows": 21}), 21)]  # 20 roots and the zero block


def test_hyperbolicity_verdicts_are_memoised(monkeypatch):
    g = lie_algebra_from_matrices(sl_basis(4))
    refs = sys.getrefcount(g)
    tested = Counter()
    real = liecert.cartan.char_poly

    def counted(m):
        tested[tuple(map(tuple, m.rows)), m.den] += 1
        return real(m)

    monkeypatch.setattr(liecert.cartan, "char_poly", counted)
    a = cartan_subspace(g)
    assert hyperbolic_span(g, a.basis) == a
    assert tested and set(tested.values()) == {1}
    e12 = g.basis_vector(g.dim - 1)  # a root vector: nilpotent, not hyperbolic
    assert not is_ad_hyperbolic(g, e12)
    assert not is_ad_hyperbolic(g, e12)
    assert set(tested.values()) == {1}

    def objects(x):
        yield x
        if isinstance(x, dict):
            for k, v in x.items():
                yield from objects(k)
                yield from objects(v)
        elif isinstance(x, (tuple, list)):
            for y in x:
                yield from objects(y)

    assert not any(isinstance(x, (Subspace, LieAlgebra)) for x in objects(g._cache))
    # the memo holds no reference back to g, so g is freed without the gc
    del a
    assert sys.getrefcount(g) == refs


# -- Weyl chambers -------------------------------------------------------------


def test_chambers_sl2():
    g = sl2()
    rs = restricted_roots(g, Subspace(g, [g.basis_vector(0)]))
    ch = weyl_chambers(rs)
    assert ch.count == 2


def test_chambers_product_of_sl2():
    g = direct_sum(sl2(), sl2())
    rs = restricted_roots(g, cartan_subspace(g))
    ch = weyl_chambers(rs)
    assert ch.count == 4


def test_chambers_lorentz():
    g, _ = so13()
    rs = restricted_roots(g, Subspace(g, [g.basis_vector(0)]))
    assert weyl_chambers(rs).count == 2


def test_chambers_samples_are_regular():
    g = direct_sum(sl2(), sl2())
    rs = restricted_roots(g, cartan_subspace(g))
    for ch in weyl_chambers(rs).chambers:
        for rep, s in zip(weyl_chambers(rs).representatives, ch.signs):
            val = sum(r * c for r, c in zip(rep, ch.sample))
            assert val != 0 and (val > 0) == (s > 0)


def test_chambers_reject_inexact():
    g = sl2()
    rs = restricted_roots(g, Subspace(g, [(F(1), F(1), F(1))]))
    with pytest.raises(StructureError):
        weyl_chambers(rs)


def test_chambers_rank_zero_empty():
    g = so3()
    rs = restricted_roots(g, zero_space(g))
    assert weyl_chambers(rs) == ChamberSet((), ())


# -- chambers by pruned search, checked against the former 2^m sweep -------------


def reference_fm_split(rows, k):
    lows, ups, keep = [], [], []
    for r in rows:
        c = r[k - 1]
        if c > 0:
            lows.append(r)
        elif c < 0:
            ups.append(r)
        else:
            keep.append(r[: k - 1])
    reduced = list(keep)
    for lo in lows:
        for up in ups:
            reduced.append(
                tuple(lo[k - 1] * up[i] - up[k - 1] * lo[i] for i in range(k - 1))
            )
    return lows, ups, tuple(reduced)


def reference_fm_feasible(rows, k):
    if any(all(x == 0 for x in r) for r in rows):
        return False
    if k == 0:
        return not rows
    return reference_fm_feasible(reference_fm_split(rows, k)[2], k - 1)


def reference_fm_sample(rows, k):
    """The former Fourier-Motzkin sample on Fraction rows, no deduplication."""
    if not reference_fm_feasible(rows, k):
        return None
    if k == 0:
        return ()
    lows, ups, reduced = reference_fm_split(rows, k)
    prefix = reference_fm_sample(reduced, k - 1)
    lo_bound = up_bound = None
    for r in lows:
        val = -sum((r[i] * prefix[i] for i in range(k - 1)), F(0)) / r[k - 1]
        if lo_bound is None or val > lo_bound:
            lo_bound = val
    for r in ups:
        val = -sum((r[i] * prefix[i] for i in range(k - 1)), F(0)) / r[k - 1]
        if up_bound is None or val < up_bound:
            up_bound = val
    if lo_bound is not None and up_bound is not None:
        x = (lo_bound + up_bound) / 2
    elif lo_bound is not None:
        x = lo_bound + 1
    elif up_bound is not None:
        x = up_bound - 1
    else:
        x = F(1)
    return prefix + (x,)


def reference_weyl_chambers(rs):
    """The former sweep: one Fourier-Motzkin run per sign vector, 2^m of them."""
    k = len(rs.base)
    if k == 0:
        return ChamberSet((), ())
    reps = []
    for r in rs.nonzero_roots():
        v = tuple(F(x) for x in r.values)
        lead = next((x for x in v if x != 0), None)
        if lead is None:
            continue
        if lead < 0:
            v = tuple(-x for x in v)
        if v not in reps:
            reps.append(v)
    chambers = []
    for mask in range(1 << len(reps)):
        signs = tuple(1 if (mask >> i) & 1 == 0 else -1 for i in range(len(reps)))
        rows = tuple(tuple(s * x for x in rep) for s, rep in zip(signs, reps))
        sample = reference_fm_sample(rows, k)
        if sample is not None:
            chambers.append(Chamber(signs, sample))
    return ChamberSet(tuple(reps), tuple(chambers))


def positive_roots_a(rank):
    """A_rank positive roots in simple-root coordinates."""
    return [
        tuple(1 if i <= c <= j else 0 for c in range(rank))
        for i in range(rank)
        for j in range(i, rank)
    ]


B3_POSITIVE = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
    (1, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2),
]

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def arrangements(draw):
    """Rational functionals on Q^k, k = 1..4, with repeats and (v, 2v) pairs."""
    k = draw(st.integers(1, 4))
    vec = st.tuples(*[_entries] * k)
    values = draw(st.lists(vec, min_size=0, max_size=(4, 7, 6, 5)[k - 1]))
    for _ in range(draw(st.integers(0, 2))):
        if values:
            v = draw(st.sampled_from(values))
            c = draw(st.sampled_from([F(1), F(2), F(-1), F(-1, 2)]))
            at = draw(st.integers(0, len(values)))
            values.insert(at, tuple(c * x for x in v))
    return values, k


@given(arrangements())
@example(([(1, 0), (2, 0), (0, 1)], 2))
@example(([(1, 1), (-1, -1), (1, 1)], 2))
@example(([], 3))
@example(([(0, 0, 0), (1, 2, 3)], 3))
@settings(max_examples=120, deadline=None)
def test_weyl_chambers_match_reference(arr):
    values, k = arr
    rs = functional_root_system(values, k)
    assert weyl_chambers(rs) == reference_weyl_chambers(rs)


@pytest.mark.parametrize(
    "positive, count",
    [(positive_roots_a(4), 120), (B3_POSITIVE, 48), ([(1, 0), (0, 1), (1, 1), (1, 2)], 8)],
    ids=["A4", "B3", "B2"],
)
def test_weyl_chambers_of_root_systems_match_reference(positive, count):
    rng = random.Random(count)
    signs = rng.choices([1, -1], k=len(positive))
    values = [tuple(s * x for x in v) for v, s in zip(positive, signs)]
    rng.shuffle(values)
    rs = functional_root_system(values, len(positive[0]))
    got = weyl_chambers(rs)
    assert got.count == count
    assert got == reference_weyl_chambers(rs)


def _fm_levels(rows, k):
    """The levels of {x in Q^k : r . x > 0 for all rows}: `_fm_extend` folded
    over the primitive integer rows from k empty levels; None when empty."""
    levels = ((),) * k
    for r in rows:
        levels = _fm_extend(levels, tuple(r))
        if levels is None:
            return None
    return levels


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(*[_entries] * k), min_size=0, max_size=9)
)))
@example((2, [(1, 1), (1, 1), (2, 2), (-1, 1)]))
@example((3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)]))
@settings(max_examples=200, deadline=None)
def test_fm_sample_matches_reference(case):
    k, rows = case
    rows = [tuple(F(x) for x in r) for r in rows]
    levels = _fm_levels([tuple(integer_row(r)) for r in rows], k)
    want = reference_fm_sample(tuple(rows), k)
    if want is None:
        assert levels is None
        return
    assert levels is not None
    assert _fm_sample(levels) == want
    assert all(dot(r, want) > 0 for r in rows)


def test_fm_levels_are_primitive_and_distinct():
    # a B3 chamber (alpha_3 negated), every row twice and one doubled:
    # the first elimination makes 8 combinations, only 4 of them distinct
    rows = [tuple(F(-x if v == (0, 0, 1) else x) for x in v) for v in B3_POSITIVE]
    rows += rows + [tuple(2 * x for x in rows[-1])]
    levels = _fm_levels([tuple(integer_row(r)) for r in rows], 3)
    assert levels is not None and len(levels) == 3
    assert levels[0] == tuple(tuple(integer_row(r)) for r in rows[: len(B3_POSITIVE)])
    assert len(levels[1]) == 4
    for level in levels:
        assert len(set(level)) == len(level)
        for r in level:
            assert r == tuple(integer_row(r))
    assert _fm_sample(levels) == reference_fm_sample(tuple(rows), 3)


# -- the incremental search, checked against the former prefix search -----------


def reference_fm_levels(rows, k):
    """The former elimination: the whole system, from scratch."""
    levels = []
    current = tuple(dict.fromkeys(rows))
    for j in range(k - 1, -1, -1):
        if any(not any(r) for r in current):
            return None
        levels.append(current)
        lows, ups, reduced = [], [], []
        for r in current:
            c = r[j]
            if c > 0:
                lows.append(r)
            elif c < 0:
                ups.append(r)
            else:
                reduced.append(r[:j])
        for lo in lows:
            for up in ups:
                reduced.append(
                    tuple(integer_row([lo[j] * up[i] - up[j] * lo[i] for i in range(j)]))
                )
        current = tuple(dict.fromkeys(reduced))
    return None if current else levels


def reference_levels_sample(levels):
    """The former back-substitution, in Fraction arithmetic."""
    x = ()
    for rows in reversed(levels):
        j = len(x)
        lo_bound = up_bound = None
        for r in rows:
            c = r[j]
            if c == 0:
                continue
            val = -sum((r[i] * x[i] for i in range(j)), F(0)) / c
            if c > 0:
                if lo_bound is None or val > lo_bound:
                    lo_bound = val
            elif up_bound is None or val < up_bound:
                up_bound = val
        if lo_bound is not None and up_bound is not None:
            v = (lo_bound + up_bound) / 2
        elif lo_bound is not None:
            v = lo_bound + 1
        elif up_bound is not None:
            v = up_bound - 1
        else:
            v = F(1)
        x += (v,)
    return x


def reference_prefix_chambers(rs):
    """The former search: each node eliminates its whole signed prefix again."""
    k = len(rs.base)
    if k == 0:
        return ChamberSet((), ())
    reps = []
    for r in rs.nonzero_roots():
        v = tuple(F(x) for x in r.values)
        lead = next((x for x in v if x != 0), None)
        if lead is None:
            continue
        if lead < 0:
            v = tuple(-x for x in v)
        if v not in reps:
            reps.append(v)
    rows = [tuple(integer_row(rep)) for rep in reps]
    chambers = []

    def visit(i, signs, system, levels):
        if i == 0:
            chambers.append(Chamber(signs, reference_levels_sample(levels)))
            return
        for s in (1, -1):
            extended = (tuple(s * x for x in rows[i - 1]),) + system
            extended_levels = reference_fm_levels(extended, k)
            if extended_levels is not None:
                visit(i - 1, (s,) + signs, extended, extended_levels)

    visit(len(reps), (), (), reference_fm_levels((), k))
    return ChamberSet(tuple(reps), tuple(chambers))


_int_rows = st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.tuples(*[st.integers(-3, 3)] * k).map(lambda r: tuple(integer_row(r))),
             min_size=0, max_size=9),
))


@given(_int_rows)
@example((2, [(1, 0), (1, 0), (-1, 0)]))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 0)]))
@example((3, [(1, 1, 0), (1, -1, 0), (-1, 0, 1), (-1, 0, -1)]))
@settings(max_examples=200, deadline=None)
def test_fm_extend_matches_full_elimination_on_every_prefix(case):
    k, rows = case
    levels = _fm_levels((), k)
    for n, row in enumerate(rows, 1):
        want = reference_fm_levels(rows[:n], k)
        if levels is not None:
            levels = _fm_extend(levels, row)
        if want is None:
            assert levels is None
            continue
        assert levels is not None
        assert [set(level) for level in levels] == [set(level) for level in want]
        assert all(len(set(level)) == len(level) for level in levels)


@given(_int_rows)
@example((2, [(1, 1), (1, -1), (1, 1), (-1, 0)]))
@settings(max_examples=100, deadline=None)
def test_fm_extend_by_several_rows_is_extending_by_each(case):
    k, rows = case
    once = _fm_extend(_fm_levels((), k), *rows)
    folded = _fm_levels(rows, k)
    assert (once is None) == (folded is None)
    if once is not None:
        assert [set(level) for level in once] == [set(level) for level in folded]
        assert all(len(set(level)) == len(level) for level in once)


BC2_VALUES = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, -1)]
C3_VALUES = [
    (1, -1, 0), (0, 1, -1), (1, 0, -1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (2, 0, 0), (0, 2, 0), (0, 0, 2),
]
G2_POSITIVE = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
A1XA2_POSITIVE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]
# B2's positive roots with (1, 2) moved to (1, 3): no root system
B2_NEAR_MISS = [(1, 0), (0, 1), (1, 1), (1, 3)]
# three indecomposable roots in Q^3, all in one plane: no root system
FLAT = [(1, 0, 0), (1, 2, 0), (2, 0, 0), (3, -1, 0)]


@pytest.mark.parametrize(
    "values, count",
    [
        (positive_roots_a(5), 720),
        (B3_POSITIVE, 48),
        (C3_VALUES, 48),
        (BC2_VALUES, 8),
        (G2_POSITIVE, 12),
        (A1XA2_POSITIVE, 12),
        (B2_NEAR_MISS, 8),
    ],
    ids=["A5", "B3", "C3", "BC2", "G2", "A1xA2", "B2-near-miss"],
)
def test_weyl_chambers_match_prefix_search(values, count):
    rng = random.Random(count)
    signs = rng.choices([1, -1], k=len(values))
    values = [tuple(s * x for x in v) for v, s in zip(values, signs)]
    rng.shuffle(values)
    rs = functional_root_system(values, len(values[0]))
    got = weyl_chambers(rs)
    assert got.count == count
    assert got == reference_prefix_chambers(rs)


def _counted_chambers(rs):
    """weyl_chambers(rs), with the number of `_fm_extend` calls and of
    Fourier-Motzkin searches over signs that it made."""
    import liecert.cartan as cartan

    calls = Counter()

    def counted(name):
        inner = getattr(cartan, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_fm_extend", "_searched_chambers"):
            patch.setattr(cartan, name, counted(name))
        got = weyl_chambers(rs)
    return got, calls["_fm_extend"], calls["_searched_chambers"]


def sl3_rational_base():
    """sl(3) restricted to the line of 3H1 + 2H2, whose roots 5/3, 4/3 and 1/3
    on the base vector H1 + 2/3 H2 are no root system."""
    g = lie_algebra_from_matrices(sl_basis(3))
    return restricted_roots(g, Subspace(g, [(F(3), F(2)) + (F(0),) * 6]))


@pytest.mark.parametrize(
    "values",
    [positive_roots_a(5), B3_POSITIVE, C3_VALUES, BC2_VALUES, G2_POSITIVE, A1XA2_POSITIVE],
    ids=["A5", "B3", "C3", "BC2", "G2", "A1xA2"],
)
def test_root_systems_cross_walls_without_a_search(values):
    rs = functional_root_system(values, len(values[0]))
    got, extends, searches = _counted_chambers(rs)
    assert searches == 0
    assert extends == got.count


@pytest.mark.parametrize("case", ["B2-near-miss", "flat", "sl3-base"])
def test_other_arrangements_take_the_search(case):
    if case == "sl3-base":
        rs = sl3_rational_base()
    else:
        values = {"B2-near-miss": B2_NEAR_MISS, "flat": FLAT}[case]
        rs = functional_root_system(values, len(values[0]))
    got, _, searches = _counted_chambers(rs)
    assert searches == 1
    assert got == reference_weyl_chambers(rs)
    assert got.count == {"B2-near-miss": 8, "flat": 6, "sl3-base": 2}[case]
    if case == "sl3-base":
        assert got.representatives == ((F(5, 3),), (F(4, 3),), (F(1, 3),))


# rank 2 and 3 root systems with more positive roots than their rank
ROOT_SYSTEMS = [
    [(1, 0), (0, 1), (1, 1)],
    [(1, 0), (0, 1), (1, 1), (1, 2)],
    BC2_VALUES,
    G2_POSITIVE,
    positive_roots_a(3),
    B3_POSITIVE,
    C3_VALUES,
    A1XA2_POSITIVE,
]


@given(
    st.sampled_from(ROOT_SYSTEMS),
    st.lists(st.integers(-2, 2), min_size=9, max_size=9),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_root_systems_in_other_coordinates_cross_walls(positive, entries, den, rng):
    # the image of a root system under an invertible rational map is a root
    # system, and its lex-positive roots are a positive system of it
    k = len(positive[0])
    m = tuple(tuple(F(entries[k * i + j] + (i == j) * 3, den) for j in range(k)) for i in range(k))
    assume(inverse(m) is not None)
    values = [tuple(sum((v[i] * m[i][j] for i in range(k)), F(0)) for j in range(k)) for v in positive]
    signs = [rng.choice((1, -1)) for _ in values]
    values = [tuple(s * x for x in v) for s, v in zip(signs, values)]
    rng.shuffle(values)
    rs = functional_root_system(values, k)
    got, extends, searches = _counted_chambers(rs)
    assert (searches, extends) == (0, got.count)
    assert got == reference_prefix_chambers(rs)


def test_chamber_sample_on_a_wall_is_refused(monkeypatch):
    import liecert.cartan as cartan

    rs = functional_root_system([(1, 0), (0, 1)], 2)
    monkeypatch.setattr(cartan, "_fm_sample", lambda levels: (F(0), F(1)))
    with pytest.raises(AlgebraError, match="fails its inequalities"):
        weyl_chambers(rs)
