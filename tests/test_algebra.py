"""Core algebra operations on hand-built and randomized examples."""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from generators import fraction_ad, mat_sub, matrix
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
    zero_space,
    _unital_envelope,
)
from liecert.builders import build_example, catalog_names
from liecert.linalg import Coordinates, Echelon, identity, matmul, vector
from test_linalg import reference_rref
from test_sparse_kernel import reference_rref_coords


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
        if Echelon(tuple(flat(b) for b in basis) + (flat(m),)).rank > len(basis):
            basis.append(m)
    changed = True
    while changed:
        changed = False
        for a in list(basis):
            for b in list(basis):
                c = mat_sub(matmul(a, b), matmul(b, a))
                if Echelon(tuple(flat(x) for x in basis) + (flat(c),)).rank > len(basis):
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

    assert g.bracket(h, e) == matvec(fraction_ad(g, h), e)
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
    assert Echelon(k).rank == 3
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
        ads = [fraction_ad(g, r) for r in radical(g).basis]
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
    v = vector([2, 3, 5])
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
    assert Echelon(killing_form(sub)).rank == sub.dim


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


def test_as_algebra_table_matches_direct_brackets():
    from liecert.cartan import find_csa

    for name in catalog_names():
        g = build_example(name).ambient
        whole = full_space(g)
        spans = [whole, bracket_space(whole, whole), radical(g), nilradical(g), center(g), find_csa(g)]
        for s in spans:
            sub, basis = as_subalgebra(s).as_algebra()
            assert basis == s.basis
            coords = Coordinates(basis)
            direct = tuple(coords.map(tuple(g.bracket(x, y) for y in basis)) for x in basis)
            assert sub.table == direct
            assert all(type(c) is F for row in sub.table for v in row for c in v)


def test_is_abelian_matches_bracket_span_and_stops_early(monkeypatch):
    from liecert.cartan import find_csa

    calls = []  # the number of pairs each _int_brackets call brackets
    real = LieAlgebra._int_brackets
    monkeypatch.setattr(
        LieAlgebra,
        "_int_brackets",
        lambda self, xs, ys: calls.append(len(xs) * len(ys)) or real(self, xs, ys),
    )
    rng = random.Random(8)
    for name in catalog_names():
        g = build_example(name).ambient
        spans = [full_space(g), center(g), find_csa(g), nilradical(g)]
        spans.append(Subspace(g, [g.basis_vector(i) for i in rng.sample(range(g.dim), 2)]))
        for s in spans:
            calls.clear()
            got = s.is_abelian()
            assert sum(calls) <= s.dim * (s.dim - 1) // 2  # pairs i < j only
            assert got == (bracket_space(s, s).dim == 0)
    calls.clear()
    assert not full_space(sl2()).is_abelian()
    assert sum(calls) == 1  # [h, e] = 2e ends the check


@pytest.mark.parametrize("n", [0, 1, 7])
def test_full_space_equals_the_eliminated_identity(n):
    g = LieAlgebra.from_entries(n, ())
    whole, eliminated = full_space(g), Subspace(g, identity(n))
    assert whole == eliminated and hash(whole) == hash(eliminated)
    assert whole.pivots == eliminated.pivots and whole.basis == eliminated.basis
    v = tuple(F(k - 3, 2) for k in range(n))
    assert whole.contains(v) and whole.contains_space(Subspace(g, [v]))
    assert whole.sum(zero_space(g)) == whole
    assert whole.intersect(Subspace(g, [v])) == Subspace(g, [v])


# -- Subspace against the former Fraction implementation ---------------------


class ReferenceSubspace:
    """The former Subspace: a Fraction rref, and membership read off it
    by `rref_coords` (its entries at the pivots must rebuild the vector)."""

    def __init__(self, rows):
        red, self.pivots = reference_rref(tuple(vector(r) for r in rows))
        self.basis = red[: len(self.pivots)]

    def contains(self, v):
        return reference_rref_coords(self.basis, self.pivots, vector(v)) is not None

    def contains_space(self, other):
        return all(self.contains(v) for v in other.basis)


@st.composite
def spans(draw, n):
    """Rows of ints or of Fractions: empty, repeated, zero or full spans."""
    entry = draw(st.sampled_from([
        st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6)
    ]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))  # a repeated row
    if draw(st.integers(0, 4)) == 0:
        rows.append([0] * n)
    if draw(st.integers(0, 4)) == 0:
        rows.extend([int(i == j) for j in range(n)] for i in range(n))  # the full space
    return [tuple(r) for r in draw(st.permutations(rows))]


def _combination(rows, n, coeffs):
    return tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(n))


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), spans(n), spans(n),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6),
)))
@example((0, [], [()], [F(1)] * 6))
@example((2, [(1, 2), (1, 1)], [(0, 1)], [F(1)] * 6))  # (1, 1) reduces to (0, -1)
@example((3, [(0, -3, 6), (F(-1, 2), 0, 1)], [(1, 0, -2)], [F(-1)] * 6))  # negative leads
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [], [F(2)] * 6))
@settings(max_examples=200, deadline=None)
def test_subspace_matches_fraction_reference(case):
    n, a_rows, b_rows, coeffs = case
    g = LieAlgebra.from_entries(n, [])
    s, t = Subspace(g, a_rows), Subspace(g, b_rows)
    rs, rt = ReferenceSubspace(a_rows), ReferenceSubspace(b_rows)
    for got, want in ((s, rs), (t, rt)):
        assert got.basis == want.basis
        assert all(type(x) is F for row in got.basis for x in row)
        assert got.pivots == want.pivots
        assert got.dim == len(want.pivots)
    probes = [vector(r) for r in a_rows + b_rows] + [
        _combination(a_rows, n, coeffs),
        _combination(a_rows + b_rows, n, coeffs),
        vector(coeffs[:n]),
    ]
    for v in probes:
        assert s.contains(v) == rs.contains(v)
        assert t.contains(v) == rt.contains(v)
    assert s.contains_space(t) == rs.contains_space(rt)
    assert t.contains_space(s) == rt.contains_space(rs)
    both = s.sum(t)
    assert both.basis == ReferenceSubspace(rs.basis + rt.basis).basis
    # the intersection: inside both spans, of dimension dim s + dim t - dim(s + t)
    meet = s.intersect(t)
    assert meet.dim == s.dim + t.dim - both.dim
    assert rs.contains_space(meet) and rt.contains_space(meet)
    assert meet.basis == ReferenceSubspace(meet.basis).basis
    assert (s == t) == (rs.basis == rt.basis)
    # the same span from other rows: reversed, scaled and with a combination added
    again = Subspace(g, [tuple(-3 * x for x in r) for r in reversed(a_rows)] + probes[-3:-2])
    assert again == s and hash(again) == hash(s)
    assert (s == both) == (rs.basis == ReferenceSubspace(rs.basis + rt.basis).basis)
    if s == t:
        assert hash(s) == hash(t)


def test_subspace_rejects_floats():
    g = LieAlgebra.from_entries(2, [])
    for rows in ([(1.5, 0)], [(F(1), 0.25)], [(1, 2), (0.0, 1)]):
        with pytest.raises(TypeError):
            Subspace(g, rows)
