import random
from fractions import Fraction

import pytest

from liecert.algebra import (
    AlgebraError,
    LieAlgebra,
    StructureError,
    Subspace,
    full_space,
    lie_algebra_from_matrices,
    quotient_by_ideal,
    zero_space,
)
from liecert.cartan import (
    ChamberSet,
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
    is_hyperbolic_csa,
    restricted_roots,
    split_hyperbolic_csa,
    weyl_chambers,
)
from liecert.linalg import frac, matrix
from liecert.poly import poly

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


def test_cartan_subspace_rejects_bad_hint():
    g = sl2()
    with pytest.raises(StructureError):
        cartan_subspace(g, hint=Subspace(g, [g.basis_vector(1)]))


def test_cartan_subspace_extends_hint():
    g = sl2()
    a = cartan_subspace(g, hint=Subspace(g, [g.basis_vector(0)]))
    assert a.dim == 1


def test_split_hyperbolic_csa_sl2():
    g = sl2()
    out = split_hyperbolic_csa(g, Subspace(g, [g.basis_vector(0)]))
    assert out.ok
    assert out.hyperbolic.dim == 1
    assert out.elliptic.dim == 0


def test_split_hyperbolic_csa_lorentz():
    g, _ = so13()
    csa = Subspace(g, [g.basis_vector(0), g.basis_vector(3)])
    out = split_hyperbolic_csa(g, csa)
    assert out.ok
    assert out.hyperbolic == Subspace(g, [g.basis_vector(0)])
    assert out.elliptic == Subspace(g, [g.basis_vector(3)])


def test_is_hyperbolic_csa_split_line():
    g = sl2()
    assert is_hyperbolic_csa(g, Subspace(g, [g.basis_vector(0)]))


def test_is_hyperbolic_csa_rejects_compact_line():
    g = sl2()
    rot = Subspace(g, [(F(0), F(1), F(-1))])
    assert is_csa(g, rot)
    assert not is_hyperbolic_csa(g, rot)


def test_is_hyperbolic_csa_vacuous_for_solvable():
    g = starkov_solvable()
    assert is_hyperbolic_csa(g, find_csa(g))


def test_is_hyperbolic_csa_lorentz():
    g, _ = so13()
    csa = Subspace(g, [g.basis_vector(0), g.basis_vector(3)])
    assert is_hyperbolic_csa(g, csa)


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
    assert len(rs.zero_space) == 2
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
    assert b.value_minpolys[0] == poly([-8, 0, 1])
    zero = [r for r in rs.roots if r.exact]
    assert len(zero) == 1 and zero[0].is_zero and zero[0].multiplicity == 1


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
