"""The structure layer against its former, slower formulas.

Each oracle below is the formula that the library used before it read
the Killing form off the sparse table, checked the radical only where a
verdict is not already known, answered a hyperbolic part on the
imaginary axis without Jordan-Chevalley, and took `classify`'s solvable
`csa_dim` from a flow that is a Cartan subalgebra.  Every comparison is
on freshly built algebras, so no memo of one side serves the other.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import liecert.anosov
import liecert.cartan
import liecert.spectral
from generators import random_hyperbolic_suspension, random_solvable
from liecert import ActionSpec, Subspace, check_anosov, classify, direct_sum
from liecert.algebra import (
    AlgebraError,
    LieAlgebra,
    _integer_form,
    _int_matmul,
    _kernel_space,
    _trace_form,
    bracket_space,
    full_space,
    killing_form,
    lie_algebra_from_matrices,
    radical,
    subspace_is_solvable,
)
from liecert.builders import build_example, catalog_names, sl_basis
from liecert.cartan import find_csa, hyperbolic_part, is_ad_hyperbolic, solve_ad
from liecert.documents import document_to_algebra, parse_document
from liecert.spectral import jordan_chevalley
from test_anosov import _sp4_basis
from test_cli import BROKEN_DOC
from test_reachability import _documents
from test_sparse_kernel import fraction_tables


def former_killing_form(g):
    """trace(ad e_i . ad e_j) from the n dense integer ad matrices."""
    return _trace_form([g._int_ad(((a, 1),)) for a in range(g.dim)], g._den)


def former_radical(g):
    """The Killing-orthogonal of [g, g], with the ideal and solvability
    checks run on every kernel that is computed."""
    k = former_killing_form(g)
    whole = full_space(g)
    derived = bracket_space(whole, whole)
    if derived.dim == 0:
        return whole
    rad = _kernel_space(g, _int_matmul(derived._rows, _integer_form(k).rows))
    if not rad.is_ideal() or not subspace_is_solvable(rad):
        raise AlgebraError("radical computation produced a non-solvable span")
    return rad


def former_hyperbolic_part(g, x):
    """Jordan-Chevalley and solve_ad for every vector that is not ad-hyperbolic."""
    if is_ad_hyperbolic(g, x):
        return x
    jc = jordan_chevalley(g.ad_integer(x))
    return solve_ad(g, jc.hyperbolic) if jc.exact else None


def fresh(g):
    """A copy of g with empty memos."""
    return LieAlgebra(g.table, g.labels)


def outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return "ok", f(*args)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)


def radical_outcome(f, g):
    kind, value = outcome(f, g)
    return (kind, value._rows) if kind == "ok" else (kind, value)


def algebras():
    """Catalog algebras, the reachability documents' algebras, the Jacobi-
    breaking table of the CLI tests, sl(3), sp(4), sl(4) and seeded
    solvable closures of dimension 2 to 6."""
    out = {name: build_example(name).ambient for name in catalog_names()}
    for name, text in _documents().items():
        out[f"doc-{name}"] = document_to_algebra(parse_document(text))
    out["broken-jacobi"] = document_to_algebra(parse_document(BROKEN_DOC))
    out["sl3"] = lie_algebra_from_matrices(sl_basis(3))
    out["sp4"] = lie_algebra_from_matrices(_sp4_basis())
    out["sl4"] = lie_algebra_from_matrices(sl_basis(4))
    rng = random.Random(36)
    for i in range(8):
        out[f"solvable-{i}"] = random_solvable(rng)
    return out


ALGEBRAS = algebras()


@given(fraction_tables())
@settings(max_examples=200, deadline=None)
def test_killing_form_matches_the_dense_trace_form_on_any_table(table):
    g = LieAlgebra(table)
    assert killing_form(g) == former_killing_form(fresh(g))


@given(fraction_tables())
@settings(max_examples=200, deadline=None)
def test_radical_matches_the_former_checks_on_any_table(table):
    # antisymmetric or not, Jacobi or not: the same rows or the same error
    g = LieAlgebra(table)
    assert radical_outcome(radical, g) == radical_outcome(former_radical, fresh(g))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_structure_layer_matches_its_former_formulas(name):
    g = ALGEBRAS[name]
    assert killing_form(fresh(g)) == former_killing_form(fresh(g))
    assert radical_outcome(radical, fresh(g)) == radical_outcome(former_radical, fresh(g))
    rng = random.Random(name)
    basis = [g.basis_vector(i) for i in range(g.dim)]
    randoms = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim)) for _ in range(4)]
    new, old = fresh(g), fresh(g)
    for x in basis + randoms:
        assert outcome(hyperbolic_part, new, x) == outcome(former_hyperbolic_part, old, x), x


def test_the_imaginary_axis_skips_jordan_chevalley(monkeypatch):
    # nilpotent E_ij and the elliptic E_12 - E_21 of sl(3) have hyperbolic
    # part 0 with no decomposition, and no vector costs more
    # characteristic polynomials than under the former formula
    g = ALGEBRAS["sl3"]
    calls = []
    real_char_poly, real_jc = liecert.cartan.char_poly, liecert.cartan.jordan_chevalley
    monkeypatch.setattr(liecert.cartan, "char_poly", lambda a: calls.append(1) or real_char_poly(a))
    monkeypatch.setattr(liecert.spectral, "char_poly", lambda a: calls.append(1) or real_char_poly(a))
    monkeypatch.setattr(liecert.cartan, "jordan_chevalley", lambda a: calls.append("jc") or real_jc(a))
    rng = random.Random(3)
    probes = [g.basis_vector(i) for i in range(g.dim)] + [
        tuple(F(rng.randint(-2, 2)) for _ in range(g.dim)) for _ in range(6)
    ]
    rotation = tuple(F(x) for x in (0, 0, 1, -1, 0, 0, 0, 0))  # E_12 - E_21
    for x in probes + [rotation]:
        new, old = fresh(g), fresh(g)
        calls.clear()
        got = hyperbolic_part(new, x)
        new_calls = list(calls)
        calls.clear()
        want = former_hyperbolic_part(old, x)
        assert got == want
        assert new_calls.count(1) <= calls.count(1)
        if want is not None and not any(want) and not is_ad_hyperbolic(new, x):
            assert "jc" not in new_calls
        # a second call reads the spectrum off the memo: a polynomial is
        # computed only inside a decomposition
        calls.clear()
        assert hyperbolic_part(new, x) == got
        assert calls.count(1) == calls.count("jc")
    assert not any(hyperbolic_part(fresh(g), rotation))


def test_solvable_csa_dim_is_the_dimension_of_a_found_csa(monkeypatch):
    seen = []
    real = liecert.anosov._classify_solvable

    def record(action, cert, caveats):
        report = real(action, cert, caveats)
        seen.append((action, report.evidence))
        return report

    monkeypatch.setattr(liecert.anosov, "_classify_solvable", record)
    actions = [build_example(name) for name in catalog_names()]
    rng = random.Random(7)
    for _ in range(6):
        g, flow, _, _ = random_hyperbolic_suspension(rng)
        actions.append(ActionSpec(g, Subspace(g, flow)))
    for action in actions:
        classify(action)
    assert len(seen) >= 4 + 6  # the catalog's four solvable rows and the suspensions
    assert all(evidence["flow_is_csa"] for _, evidence in seen)
    # a flow that is no Cartan subalgebra, which no accepted action here
    # has: the suspension plus a central z, with the flow span(T) alone
    sus = build_example("suspension-hyperbolic")
    g = direct_sum(sus.ambient, LieAlgebra.from_entries(1, ()))
    t, z = sus.flow.basis[0] + (F(0),), (F(0),) * sus.ambient.dim + (F(1),)
    cert = check_anosov(ActionSpec(g, Subspace(g, [t, z])), t)
    assert cert.accepted
    evidence = record(ActionSpec(g, Subspace(g, [t])), cert, []).evidence
    assert not evidence["flow_is_csa"] and evidence["flow_dim"] == 1
    for action, evidence in seen:
        assert evidence["csa_dim"] == find_csa(fresh(action.ambient)).dim
