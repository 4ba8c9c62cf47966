"""Construction helpers and the example catalog."""

from fractions import Fraction as F

import pytest

from liecert import (
    CATALOG,
    StructureError,
    Subspace,
    bracket_space,
    build_central_extension,
    build_example,
    build_heisenberg_starkov,
    build_modified_weyl,
    build_so13_frame_flow,
    build_so13_geodesic,
    build_sl2_geodesic,
    build_suspension,
    build_wedge_example,
    build_weyl_chamber,
    catalog_names,
    center,
    derived_series,
    direct_sum,
    find_anosov_elements,
    full_space,
    lower_central_series,
    nilradical,
    subalgebra_table,
)


# -- suspensions ----------------------------------------------------------------


def test_suspension_single_derivation():
    spec = build_suspension([[[1, 0], [0, -1]]])
    g = spec.ambient
    assert g.dim == 3
    assert g.bracket(g.basis_vector(2), g.basis_vector(0)) == g.basis_vector(0)
    assert g.bracket(g.basis_vector(2), g.basis_vector(1)) == tuple(
        -x for x in g.basis_vector(1)
    )
    assert g.validate().ok
    assert spec.flow.dim == 1 and spec.isotropy.dim == 0


def test_suspension_rejects_noncommuting():
    with pytest.raises(StructureError, match="commute"):
        build_suspension([[[1, 0], [0, -1]], [[0, 1], [0, 0]]])


def test_suspension_rejects_mismatched_sizes():
    with pytest.raises(StructureError, match="size"):
        build_suspension([[[1]], [[1, 0], [0, 1]]])


def test_suspension_rejects_empty():
    with pytest.raises(StructureError):
        build_suspension([])


def test_zero_derivation_validates_but_search_is_empty():
    spec = build_suspension([[[0, 0], [0, 0]]])
    assert spec.validate().ok
    assert find_anosov_elements(spec, budget=30) == ()


# -- central extensions ----------------------------------------------------------


def test_starkov_structure():
    spec = build_heisenberg_starkov()
    g = spec.ambient
    assert g.dim == 4
    assert g.labels == ("e0", "e1", "T0", "z0")
    # the twist: [e0, e1] = z0
    assert g.bracket(g.basis_vector(0), g.basis_vector(1)) == g.basis_vector(3)
    assert center(g).dim == 1 and center(g).contains(g.basis_vector(3))
    assert spec.flow.dim == 2
    assert spec.flow.contains(g.basis_vector(2))
    assert spec.flow.contains(g.basis_vector(3))


def test_starkov_is_not_a_product():
    """The twist changes the derived length: 3 against 2 for the product."""
    twisted = build_heisenberg_starkov().ambient
    product = direct_sum(
        build_suspension([[[1, 0], [0, -1]]]).ambient,
        build_suspension([[[0]]]).ambient,  # abelian 2-dim stand-in
    )
    dl = lambda g: len([s for s in derived_series(g) if s.dim > 0])
    assert dl(twisted) == 3
    assert dl(product) == 2


def test_starkov_nilradical_tower():
    g = build_heisenberg_starkov().ambient
    nil, basis = subalgebra_table(nilradical(g))
    dims = [s.dim for s in lower_central_series(nil)]
    assert dims == [3, 1, 0]


def test_zero_cocycle_gives_product():
    base = build_suspension([[[1, 0], [0, -1]]])
    zero = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    ext = build_central_extension(base, 1, [zero])
    g = ext.ambient
    # every bracket against the new direction vanishes
    for i in range(4):
        assert g.bracket(g.basis_vector(i), g.basis_vector(3)) == (F(0),) * 4
    # base brackets are untouched
    g0 = base.ambient
    for i in range(3):
        for j in range(3):
            assert g.table[i][j][:3] == g0.table[i][j]
            assert g.table[i][j][3] == F(0)


def test_central_extension_rejects_asymmetric_twist():
    base = build_suspension([[[1, 0], [0, -1]]])
    with pytest.raises(StructureError, match="antisymmetric"):
        build_central_extension(base, 1, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])


def test_central_extension_rejects_jacobi_failure():
    """A twist pairing the center with the derivation is not a cocycle."""
    base = build_heisenberg_starkov()
    omega = [[0] * 4 for _ in range(4)]
    omega[2][3], omega[3][2] = 1, -1  # pairs T0 with z0
    with pytest.raises(StructureError, match="Jacobi"):
        build_central_extension(base, 1, [omega])


def test_central_extension_rejects_bad_shapes():
    base = build_suspension([[[1, 0], [0, -1]]])
    with pytest.raises(StructureError, match="at least one"):
        build_central_extension(base, 0, [])
    with pytest.raises(StructureError, match="per central direction"):
        build_central_extension(base, 2, [[[0] * 3] * 3])
    with pytest.raises(StructureError, match="match the base"):
        build_central_extension(base, 1, [[[0, 0], [0, 0]]])


# -- the wedge example ------------------------------------------------------------


def test_wedge_structure():
    spec = build_wedge_example()
    g = spec.ambient
    assert g.dim == 7 and g.validate().ok
    nil, _ = subalgebra_table(nilradical(g))
    assert [s.dim for s in lower_central_series(nil)] == [6, 3, 0]
    # the wedge part is exactly the derived ideal of the nilpotent part
    assert bracket_space(full_space(nil), full_space(nil)).dim == 3


# -- semisimple builders -----------------------------------------------------------


def test_weyl_chamber_reproduces_sl2_geodesic():
    ref = build_sl2_geodesic()
    built = build_weyl_chamber(ref.ambient)
    assert built.flow.basis == ref.flow.basis
    assert built.isotropy.dim == 0


def test_weyl_chamber_reproduces_so13_geodesic():
    ref = build_so13_geodesic()
    built = build_weyl_chamber(ref.ambient)
    assert built.flow.basis == ref.flow.basis
    assert built.isotropy.basis == ref.isotropy.basis


def test_weyl_chamber_rejects_solvable():
    g = build_suspension([[[1, 0], [0, -1]]]).ambient
    with pytest.raises(StructureError, match="semisimple"):
        build_weyl_chamber(g)


def test_modified_weyl_full_center_is_identity():
    base = build_so13_geodesic()
    built = build_weyl_chamber(base.ambient)
    mod = build_modified_weyl(built, built.isotropy)
    assert mod.flow.basis == built.flow.basis
    assert mod.isotropy.basis == built.isotropy.basis


def test_modified_weyl_empty_center_gives_frame_flow():
    base = build_weyl_chamber(build_so13_geodesic().ambient)
    g = base.ambient
    mod = build_modified_weyl(base, Subspace(g, ()))
    ref = build_so13_frame_flow()
    assert mod.isotropy.dim == 0
    assert mod.flow == Subspace(g, ref.flow.basis)


def test_modified_weyl_rejects_vector_outside_center():
    base = build_weyl_chamber(build_so13_geodesic().ambient)
    g = base.ambient
    with pytest.raises(StructureError, match="center"):
        build_modified_weyl(base, Subspace(g, (g.basis_vector(1),)))


# -- catalog -----------------------------------------------------------------------


def test_catalog_names_unique_and_buildable():
    names = catalog_names()
    assert len(names) == len(set(names)) == 8
    for name in names:
        spec = build_example(name)
        assert spec.name == name
        assert spec.ambient.validate().ok
        assert spec.validate().ok


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        build_example("no-such-example")


def test_catalog_expected_fields():
    for d in CATALOG:
        assert d.expected.get("anosov") is True
        assert d.expected["case"] in {"solvable", "semisimple"}
        assert d.annotation
