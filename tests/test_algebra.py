"""Core algebra operations on hand-built and randomized examples."""

import random
import sys
from fractions import Fraction as F

import pytest

from liecert.algebra import (
    AlgebraError,
    LieAlgebra,
    StructureError,
    Subalgebra,
    Subspace,
    as_subalgebra,
    bracket_space,
    center,
    centralizer,
    derived_series,
    full_space,
    is_nilpotent,
    is_solvable,
    killing_form,
    levi_decomposition,
    lie_algebra_from_matrices,
    lower_central_series,
    nilradical,
    normalizer,
    quotient_by_ideal,
    radical,
    subspace_is_nilpotent,
    _unital_envelope,
)
from liecert.builders import build_example, catalog_names
from liecert.linalg import det, identity, mat_sub, matmul, matrix, rank, vector
from test_linalg import reference_rref


def sl2() -> LieAlgebra:
    # basis h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h
    z = [0, 0, 0]
    table = [
        [z, [0, 2, 0], [0, 0, -2]],
        [[0, -2, 0], z, [1, 0, 0]],
        [[0, 0, 2], [-1, 0, 0], z],
    ]
    return LieAlgebra(table, labels=["h", "e", "f"])


def heisenberg() -> LieAlgebra:
    # [x, y] = z
    z = [0, 0, 0]
    table = [
        [z, [0, 0, 1], z],
        [[0, 0, -1], z, z],
        [z, z, z],
    ]
    return LieAlgebra(table, labels=["x", "y", "z"])


def affine_line() -> LieAlgebra:
    # [t, x] = x: solvable, not nilpotent
    table = [
        [[0, 0], [0, 1]],
        [[0, -1], [0, 0]],
    ]
    return LieAlgebra(table, labels=["t", "x"])


def random_solvable(rng: random.Random, dim_matrix: int, count: int):
    """Lie closure of random upper triangular matrices: always solvable."""
    mats = []
    for _ in range(count):
        rows = []
        for i in range(dim_matrix):
            rows.append(
                [F(rng.randint(-2, 2)) if j >= i else F(0) for j in range(dim_matrix)]
            )
        mats.append(matrix(rows))
    # close under commutators inside upper triangular matrices
    flat = lambda m: tuple(x for row in m for x in row)
    basis = []
    for m in mats:
        if rank(tuple(flat(b) for b in basis) + (flat(m),)) > len(basis):
            basis.append(m)
    changed = True
    while changed:
        changed = False
        for a in list(basis):
            for b in list(basis):
                c = mat_sub(matmul(a, b), matmul(b, a))
                if rank(tuple(flat(x) for x in basis) + (flat(c),)) > len(basis):
                    basis.append(c)
                    changed = True
    return lie_algebra_from_matrices(basis)


def test_validate_accepts_sl2():
    assert sl2().validate().ok


def test_validate_catches_broken_jacobi():
    # [a,b] = b, [a,c] = c, [b,c] = a: the cyclic sum on (a,b,c) is -2a
    z = [0, 0, 0]
    table = [
        [z, [0, 1, 0], [0, 0, 1]],
        [[0, -1, 0], z, [1, 0, 0]],
        [[0, 0, -1], [-1, 0, 0], z],
    ]
    rep = LieAlgebra(table).validate()
    assert not rep.ok
    assert rep.jacobi_failures


def test_validate_catches_antisymmetry():
    z = [0, 0]
    rep = LieAlgebra([[z, [1, 0]], [[1, 0], z]]).validate()
    assert not rep.ok
    assert rep.antisymmetry_failures


def test_bracket_and_ad_agree():
    g = sl2()
    h, e = g.basis_vector(0), g.basis_vector(1)
    from liecert.linalg import matvec

    assert g.bracket(h, e) == matvec(g.ad(h), e)
    assert g.bracket(h, e) == vector([0, 2, 0])


def test_from_matrices_sl2():
    h = matrix([[1, 0], [0, -1]])
    e = matrix([[0, 1], [0, 0]])
    f = matrix([[0, 0], [1, 0]])
    g = lie_algebra_from_matrices([h, e, f])
    assert g.table == sl2().table


def test_from_matrices_rejects_unclosed():
    a = matrix([[0, 1], [0, 0]])
    b = matrix([[0, 0], [1, 0]])
    with pytest.raises(StructureError):
        lie_algebra_from_matrices([a, b])  # commutator leaves the span


def test_center_of_heisenberg():
    g = heisenberg()
    c = center(g)
    assert c.dim == 1
    assert c.contains(g.basis_vector(2))


def test_center_of_sl2_trivial():
    assert center(sl2()).dim == 0


def test_centralizer_and_normalizer():
    g = sl2()
    h_line = Subspace(g, [g.basis_vector(0)])
    cz = centralizer(g, h_line)
    assert cz.dim == 1 and cz.contains(g.basis_vector(0))
    e_line = Subspace(g, [g.basis_vector(1)])
    nz = normalizer(g, e_line)
    # span(h, e) is the Borel normalizing the root line
    assert nz.dim == 2
    assert nz.contains(g.basis_vector(0)) and nz.contains(g.basis_vector(1))


def test_series_heisenberg():
    g = heisenberg()
    lcs = lower_central_series(g)
    assert [s.dim for s in lcs] == [3, 1, 0]
    assert is_nilpotent(g) and is_solvable(g)


def test_series_affine():
    g = affine_line()
    assert not is_nilpotent(g)
    assert is_solvable(g)
    assert [s.dim for s in derived_series(g)] == [2, 1, 0]


def test_series_sl2():
    g = sl2()
    assert not is_solvable(g)
    assert [s.dim for s in derived_series(g)] == [3]


def test_killing_form_sl2_nondegenerate():
    k = killing_form(sl2())
    assert det(k) != 0
    # standard values: K(h,h) = 8, K(e,f) = 4
    assert k[0][0] == 8 and k[1][2] == 4


def test_radical_cases():
    assert radical(sl2()).dim == 0
    assert radical(heisenberg()).dim == 3
    assert radical(affine_line()).dim == 2


def test_nilradical_affine():
    g = affine_line()
    n = nilradical(g)
    assert n.dim == 1
    assert n.contains(g.basis_vector(1))


def test_nilradical_heisenberg_is_everything():
    assert nilradical(heisenberg()).dim == 3


def naive_envelope(mats, n):
    """Multiply the whole span by every generator until it stops growing."""

    def basis_of(rows):
        red, piv = reference_rref(tuple(rows))
        return red[: len(piv)]

    flat = lambda m: tuple(x for row in m for x in row)
    span = basis_of([flat(m) for m in mats] + [flat(identity(n))])
    while True:
        prods = [
            flat(matmul(m, tuple(s[r * n : (r + 1) * n] for r in range(n))))
            for m in mats
            for s in span
        ]
        grown = basis_of(list(span) + prods)
        if len(grown) == len(span):
            return span
        span = grown


def test_unital_envelope_matches_naive_closure():
    algebras = [build_example(name).ambient for name in catalog_names()]
    rng = random.Random(5)
    algebras += [random_solvable(rng, 3, 2) for _ in range(4)]
    for g in algebras:
        ads = [g.ad(r) for r in radical(g).basis]
        assert _unital_envelope(ads, g.dim) == naive_envelope(ads, g.dim)


def test_killing_form_and_radical_are_memoised():
    g = affine_line()
    refs = sys.getrefcount(g)
    assert killing_form(g) is killing_form(g)
    assert radical(g) == radical(g)
    assert radical(g).dim == 2
    assert set(g._cache) == {"killing_form", "radical"}
    # the memo holds no reference back to g, so g is freed without the gc
    assert sys.getrefcount(g) == refs


def test_radical_failing_its_self_check_is_not_memoised(monkeypatch):
    g = affine_line()
    monkeypatch.setattr("liecert.algebra.subspace_is_solvable", lambda s: False)
    with pytest.raises(AlgebraError):
        radical(g)
    assert "radical" not in g._cache
    monkeypatch.undo()
    assert radical(g).dim == 2


def test_nilradical_trace_counterexample():
    # span{D, x, y} with D = [[1,1],[-1,1]] acting on Q^2: the Killing form
    # vanishes identically yet only the translations act nilpotently.
    d = matrix([[1, 1], [-1, 1]])
    table = [
        [[0, 0, 0], [0, 1, -1], [0, 1, 1]],
        [[0, -1, 1], [0, 0, 0], [0, 0, 0]],
        [[0, -1, -1], [0, 0, 0], [0, 0, 0]],
    ]
    g = LieAlgebra(table, labels=["D", "x", "y"])
    assert g.validate().ok
    k = killing_form(g)
    assert all(all(x == 0 for x in row) for row in k)  # degenerate everywhere
    n = nilradical(g)
    assert n.dim == 2
    assert n.contains(g.basis_vector(1)) and n.contains(g.basis_vector(2))


def test_quotient_heisenberg_by_center():
    g = heisenberg()
    q = quotient_by_ideal(g, Subspace(g, [g.basis_vector(2)]))
    assert q.quotient.dim == 2
    assert all(
        all(x == 0 for x in q.quotient.table[i][j])
        for i in range(2)
        for j in range(2)
    )
    v = g.element([2, 3, 5])
    assert q.push(q.lift(q.push(v))) == q.push(v)


def test_quotient_requires_ideal():
    g = sl2()
    with pytest.raises(StructureError):
        quotient_by_ideal(g, Subspace(g, [g.basis_vector(1)]))


def test_levi_semisimple_and_solvable_poles():
    levi, rad = levi_decomposition(sl2())
    assert levi.dim == 3 and rad.dim == 0
    levi, rad = levi_decomposition(heisenberg())
    assert levi.dim == 0 and rad.dim == 3


def test_levi_gl2_like():
    # sl2 + center: reductive, radical is the center
    h = matrix([[1, 0], [0, -1]])
    e = matrix([[0, 1], [0, 0]])
    f = matrix([[0, 0], [1, 0]])
    i2 = matrix([[1, 0], [0, 1]])
    g = lie_algebra_from_matrices([h, e, f, i2])
    levi, rad = levi_decomposition(g)
    assert levi.dim == 3 and rad.dim == 1
    assert rad.contains(g.basis_vector(3))


def test_levi_sl2_semidirect_plane():
    # sl2 acting on Q^2: basis h, e, f, x, y; radical = span(x, y), abelian
    table = [
        # h          e            f            x            y
        [[0] * 5, [0, 2, 0, 0, 0], [0, 0, -2, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, -1]],
        [[0, -2, 0, 0, 0], [0] * 5, [1, 0, 0, 0, 0], [0] * 5, [0, 0, 0, 1, 0]],
        [[0, 0, 2, 0, 0], [-1, 0, 0, 0, 0], [0] * 5, [0, 0, 0, 0, 1], [0] * 5],
        [[0, 0, 0, -1, 0], [0] * 5, [0, 0, 0, 0, -1], [0] * 5, [0] * 5],
        [[0, 0, 0, 0, 1], [0, 0, 0, -1, 0], [0] * 5, [0] * 5, [0] * 5],
    ]
    g = LieAlgebra(table, labels=["h", "e", "f", "x", "y"])
    assert g.validate().ok
    levi, rad = levi_decomposition(g)
    assert rad.dim == 2 and levi.dim == 3
    assert levi.is_subalgebra()
    assert levi.intersect(rad).dim == 0
    assert nilradical(g).dim == 2


def test_levi_with_nonabelian_radical():
    # sl2 plane example extended by a central element z with [x, y] = z:
    # radical becomes the 3-dim Heisenberg, exercising the recursive branch.
    table = [
        # h            e              f              x              y              z
        [[0] * 6, [0, 2, 0, 0, 0, 0], [0, 0, -2, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, -1, 0], [0] * 6],
        [[0, -2, 0, 0, 0, 0], [0] * 6, [1, 0, 0, 0, 0, 0], [0] * 6, [0, 0, 0, 1, 0, 0], [0] * 6],
        [[0, 0, 2, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0] * 6, [0, 0, 0, 0, 1, 0], [0] * 6, [0] * 6],
        [[0, 0, 0, -1, 0, 0], [0] * 6, [0, 0, 0, 0, -1, 0], [0] * 6, [0, 0, 0, 0, 0, 1], [0] * 6],
        [[0, 0, 0, 0, 1, 0], [0, 0, 0, -1, 0, 0], [0] * 6, [0, 0, 0, 0, 0, -1], [0] * 6, [0] * 6],
        [[0] * 6, [0] * 6, [0] * 6, [0] * 6, [0] * 6, [0] * 6],
    ]
    g = LieAlgebra(table, labels=["h", "e", "f", "x", "y", "z"])
    assert g.validate().ok
    levi, rad = levi_decomposition(g)
    assert rad.dim == 3 and levi.dim == 3
    assert levi.is_subalgebra()
    sub, _ = as_subalgebra(levi).as_algebra()
    assert det(killing_form(sub)) != 0


def test_random_solvable_algebras_have_full_radical():
    rng = random.Random(4)
    for _ in range(10):
        g = random_solvable(rng, 3, 2)
        if g.dim == 0:
            continue
        assert g.validate().ok
        assert is_solvable(g)
        assert radical(g).dim == g.dim
        n = nilradical(g)
        assert subspace_is_nilpotent(n)
        # nilradical contains the derived algebra of a solvable algebra
        der = bracket_space(full_space(g), full_space(g))
        assert n.contains_space(der)


def test_subalgebra_structure_roundtrip():
    g = sl2()
    borel = as_subalgebra(Subspace(g, [g.basis_vector(0), g.basis_vector(1)]))
    sub, basis = borel.as_algebra()
    assert sub.dim == 2
    assert is_solvable(sub) and not is_nilpotent(sub)


def test_subalgebra_rejects_nonclosed():
    g = sl2()
    with pytest.raises(StructureError):
        Subalgebra(g, [g.basis_vector(1), g.basis_vector(2)])
