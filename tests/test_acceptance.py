"""End-to-end acceptance gates with pinned budgets and tolerances.

Six sections: golden examples, universal certificate properties on
randomized inputs, the sign-counting kernel against a floating-point
oracle, the Cartan machinery at scale, chamber completeness (up to
sl(6, R) and its 720 chambers), and the command-line contract.
Wall-clock budgets are asserted where the section is a batch run; fixed
seeds make every run reproducible.
"""

import io
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from generators import (
    fraction_ad,
    functional_root_system,
    random_hyperbolic_suspension,
    random_solvable,
)
from liecert import (
    ActionSpec,
    RationalPolynomial,
    Subspace,
    action_csa,
    action_to_document,
    build_example,
    cartan_subspace,
    catalog_names,
    char_poly,
    check_anosov,
    classify,
    derived_ideal_check,
    derived_series,
    direct_sum,
    find_anosov_elements,
    find_csa,
    is_codimension_one,
    is_csa,
    lower_central_series,
    nil_suspension_check,
    nilradical,
    parse_document,
    restricted_roots,
    root_sign_counts,
    serialize_document,
    sl_basis,
    splitting_invariance,
    subalgebra_table,
    weyl_chambers,
)
from liecert.algebra import lie_algebra_from_matrices
from liecert.builders import _sl2, build_weyl_chamber
from liecert.cartan import engel_subalgebra
from liecert.cli import main
from liecert.documents import AlgebraDocument
from liecert.linalg import restrict_operator
from test_sparse_kernel import reference_quotient_operator

_golden_elapsed: list[float] = []


def _timed(fn):
    start = time.monotonic()
    fn()
    _golden_elapsed.append(time.monotonic() - start)


# -- 1. golden example suite (< 10 s total, exact arithmetic) -----------------------


def test_golden_sl2_geodesic():
    def body():
        spec = build_example("sl2-geodesic")
        g = spec.ambient
        cert = check_anosov(spec, g.basis_vector(0))
        assert cert.accepted
        assert cert.dim_stable == 1 and cert.dim_unstable == 1
        assert cert.gap == F(2) and cert.gap_exact
        assert is_codimension_one(spec)

    _timed(body)


def test_golden_so13_geodesic():
    def body():
        spec = build_example("so13-geodesic")
        g = spec.ambient
        # isotropy is one-dimensional and abelian
        k, _ = subalgebra_table(spec.isotropy)
        assert spec.isotropy.dim == 1 and len(derived_series(k)) == 2
        # restricted roots: +-alpha, each of multiplicity 2
        rs = restricted_roots(g, cartan_subspace(g))
        nonzero = [r for r in rs.roots if not r.is_zero]
        assert len(nonzero) == 2
        assert all(r.multiplicity == 2 for r in nonzero)
        assert rs.exact
        vals = sorted(v for r in nonzero for v in r.values)
        assert vals == sorted(-v for v in vals)
        rep = classify(spec)
        assert rep.case == "semisimple"
        assert rep.evidence["flow_isotropy_equals_cartan_plus_torus"] is True

    _timed(body)


def test_golden_so13_frame_flow():
    def body():
        spec = build_example("so13-frame-flow")
        assert spec.isotropy.dim == 0 and spec.flow.dim == 2
        rep = classify(spec)
        assert rep.case == "semisimple"
        assert rep.evidence["modified"] is True
        assert rep.evidence["torus_in_flow_dim"] == 1

    _timed(body)


def test_golden_heisenberg_starkov():
    def body():
        spec = build_example("heisenberg-starkov")
        g = spec.ambient
        rep = classify(spec)
        assert rep.case == "solvable"
        assert rep.evidence["flow_is_csa"] is True
        # central-extension structure over the plane suspension
        from liecert import build_suspension

        base = build_suspension([[[1, 0], [0, -1]]])
        fiber = Subspace(g, (g.basis_vector(3),))
        ns = nil_suspension_check(base, spec, fiber)
        assert ns.structure_ok and ns.kind == "central" and ns.anosov
        # the twist is visible in the derived length: 3 against 2
        product = direct_sum(
            base.ambient, build_suspension([[[0]]]).ambient
        )
        dl = lambda a: len([s for s in derived_series(a) if s.dim > 0])
        assert dl(g) == 3 and dl(product) == 2

    _timed(body)


def test_golden_wedge():
    def body():
        spec = build_example("wedge")
        nil, _ = subalgebra_table(nilradical(spec.ambient))
        assert [s.dim for s in lower_central_series(nil)] == [6, 3, 0]
        assert classify(spec).case == "solvable"

    _timed(body)


def test_golden_suite_runtime():
    assert len(_golden_elapsed) == 5, "golden tests must run before the gate"
    assert sum(_golden_elapsed) < 10.0


# -- 2. universal certificate properties (>= 200 accepted certificates) -------------


def test_universal_certificate_properties():
    rng = random.Random(20260816)
    runs = []  # (label, action, cert)
    while len(runs) < 200:
        g, flow, dim_s, dim_u = random_hyperbolic_suspension(rng)
        action = ActionSpec(g, Subspace(g, flow))
        cert = check_anosov(action, flow[0])
        assert cert.accepted, "suspension generators are hyperbolic by design"
        assert (cert.dim_stable, cert.dim_unstable) == (dim_s, dim_u)
        runs.append((f"suspension-{len(runs)}", action, cert))
    for name in catalog_names():
        action = build_example(name)
        for h0, cert in find_anosov_elements(action, budget=60):
            runs.append((name, action, cert))
    assert len(runs) >= 200

    failures = []
    for label, action, cert in runs:
        g = action.ambient
        if not derived_ideal_check(action, cert):
            failures.append(f"{label}: carrier escapes the derived ideal")
        if not splitting_invariance(action, cert).ok:
            failures.append(f"{label}: splitting not flow-invariant")
        ac = action_csa(action)
        if not is_csa(g, ac.csa):
            failures.append(f"{label}: assembled subalgebra is not a CSA")
        a = fraction_ad(g, cert.h0)
        quotient, _ = reference_quotient_operator(a, action.joint.basis)
        inside = root_sign_counts(char_poly(restrict_operator(a, action.joint.basis)))
        outside = root_sign_counts(char_poly(quotient))
        if inside.n_neg or inside.n_pos:
            failures.append(f"{label}: off-axis spectrum along the orbit part")
        if outside.n_zero_real:
            failures.append(f"{label}: axis spectrum transverse to the orbit part")
        if (outside.n_neg, outside.n_pos) != (cert.dim_stable, cert.dim_unstable):
            failures.append(f"{label}: quotient counts disagree with the certificate")
        both = inside + outside
        if both.n_neg + both.n_zero_real + both.n_pos != g.dim:
            failures.append(f"{label}: counts do not sum to the dimension")
        if both != root_sign_counts(char_poly(a)):
            failures.append(f"{label}: the parts' counts disagree with the whole operator's")
    assert not failures, "\n".join(failures)


# -- 3. sign-counting kernel vs floating-point oracle (< 30 s) ----------------------


def test_sign_counts_match_numpy_oracle():
    rng = random.Random(3)
    start = time.monotonic()
    checked = 0
    while checked < 1000:
        deg = rng.randint(1, 12)
        coeffs = [F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(deg)]
        coeffs.append(F(1))
        roots = np.roots([1.0] + [float(c) for c in reversed(coeffs[:-1])])
        if min(abs(r.real) for r in roots) < 1e-3:
            continue  # the oracle cannot referee near the axis
        want_neg = int(sum(1 for r in roots if r.real < 0))
        want_pos = len(roots) - want_neg
        got = root_sign_counts(RationalPolynomial(coeffs))
        assert (got.n_neg, got.n_zero_real, got.n_pos) == (want_neg, 0, want_pos)
        checked += 1
    assert time.monotonic() - start < 30.0


def test_sign_counts_exact_axis_ties():
    t = RationalPolynomial([F(0), F(1)])
    for q in (F(1), F(2), F(1, 4), F(9, 7)):
        axis = t * RationalPolynomial([q, F(0), F(1)])  # t (t^2 + q)
        for cofactor, extra in (
            (RationalPolynomial([F(1)]), (0, 0)),
            (RationalPolynomial([F(2), F(1)]), (1, 0)),  # root -2
            (RationalPolynomial([F(-1), F(1)]) * RationalPolynomial([F(3), F(1)]), (1, 1)),
        ):
            got = root_sign_counts(axis * cofactor)
            assert (got.n_neg, got.n_zero_real, got.n_pos) == (extra[0], 3, extra[1])
    # higher multiplicity on the axis
    doubled = t * t * RationalPolynomial([F(1, 4), F(0), F(1)])
    got = root_sign_counts(doubled * RationalPolynomial([F(-2), F(1)]))
    assert (got.n_neg, got.n_zero_real, got.n_pos) == (0, 4, 1)


# -- 4. Cartan machinery at scale (< 60 s) -------------------------------------------


def test_csa_machinery_at_scale():
    rng = random.Random(4)
    start = time.monotonic()
    algebras = [random_solvable(rng) for _ in range(500)]
    for g in algebras:
        assert is_csa(g, find_csa(g))
    # seed independence of the dimension on a subsample
    for g in algebras[:25]:
        dims = {find_csa(g, seed=s).dim for s in range(20)}
        assert len(dims) == 1
    assert time.monotonic() - start < 60.0


def test_engel_minimality_brute_force():
    rng = random.Random(44)
    checked = 0
    while checked < 10:
        g = random_solvable(rng, min_dim=2, max_dim=4)
        if g.dim > 4:
            continue
        grid = [-2, -1, 1, 2]
        best = g.dim
        import itertools

        for coords in itertools.product([0] + grid, repeat=g.dim):
            if not any(coords):
                continue
            x = tuple(F(c) for c in coords)
            best = min(best, engel_subalgebra(g, x).dim)
        assert find_csa(g).dim == best
        checked += 1


# -- 5. Weyl chamber completeness ----------------------------------------------------


@pytest.mark.parametrize(
    "make,count",
    [
        (lambda: _sl2(), 2),
        (lambda: direct_sum(_sl2(), _sl2()), 4),
        (lambda: build_example("so13-geodesic").ambient, 2),
    ],
    ids=["rank-one", "rank-two-product", "lorentz"],
)
def test_chamber_completeness(make, count):
    g = make()
    action = build_weyl_chamber(g)
    rs = restricted_roots(g, action.flow)
    chambers = weyl_chambers(rs)
    assert chambers.count == count
    for ch in chambers.chambers:
        h0 = tuple(
            sum((s * b[i] for s, b in zip(ch.sample, rs.base)), F(0))
            for i in range(g.dim)
        )
        cert = check_anosov(action, h0)
        assert cert.accepted
        assert cert.dim_stable == cert.dim_unstable


def _sl_diagonal(d):
    """Coordinates of diag(d), trace zero, in `sl_basis(len(d))`."""
    n = len(d)
    head = [sum(d[: i + 1]) for i in range(n - 1)]
    return tuple(F(x) for x in head) + (F(0),) * (n * n - n)


def test_sl6_ladder():
    # roots, chambers and one decision each way on sl(6, R), dim 35
    g = lie_algebra_from_matrices(sl_basis(6))
    assert g.dim == 35
    action = ActionSpec(g, cartan_subspace(g))
    rs = restricted_roots(g, action.flow)
    assert rs.exact
    assert weyl_chambers(rs).count == 720
    cert = check_anosov(action, _sl_diagonal([5, 3, 1, -1, -3, -5]))
    assert cert.accepted
    assert (cert.dim_stable, cert.dim_unstable) == (15, 15)
    assert not check_anosov(action, _sl_diagonal([1, 1, -2, 0, 0, 0])).accepted


@pytest.mark.parametrize(
    "positive,count",
    [
        ([tuple(int(i <= c <= j) for c in range(5)) for i in range(5) for j in range(i, 5)], 720),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
          (1, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2)], 48),
    ],
    ids=["A5", "B3"],
)
def test_synthetic_chamber_counts(positive, count):
    # positive roots in simple-root coordinates; the count is |W|
    chambers = weyl_chambers(functional_root_system(positive, len(positive[0])))
    assert chambers.count == count
    assert len({ch.signs for ch in chambers.chambers}) == count


# -- 6. command-line contract ---------------------------------------------------------


def _cli(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_golden_reports_are_byte_identical(monkeypatch, capsys):
    for name in catalog_names():
        doc = serialize_document(action_to_document(build_example(name)))
        first = _cli(["classify", "--seed", "0"], doc, monkeypatch, capsys)
        second = _cli(["classify", "--seed", "0"], doc, monkeypatch, capsys)
        assert first == second, name
        assert first[0] == 0, name


def test_cli_exit_code_table(monkeypatch, capsys):
    sl2 = serialize_document(action_to_document(build_example("sl2-geodesic")))
    ok, _, _ = _cli(["anosov", "--h0", "1,0,0"], sl2, monkeypatch, capsys)
    neg, _, _ = _cli(["anosov", "--h0", "0,0,0"], sl2, monkeypatch, capsys)
    from liecert import build_suspension

    flat = serialize_document(
        action_to_document(build_suspension([[[0, 0], [0, 0]]]))
    )
    inc, _, _ = _cli(["anosov", "--budget", "10"], flat, monkeypatch, capsys)
    bad, _, _ = _cli(["validate"], "not json", monkeypatch, capsys)
    assert (ok, neg, inc, bad) == (0, 1, 2, 3)


def test_document_round_trip_property():
    rng = random.Random(6)
    for _ in range(1000):
        dim = rng.randint(0, 6)
        entries = {}
        for _ in range(rng.randint(0, 2 * dim)):
            if dim < 2:
                break
            i = rng.randrange(dim - 1)
            j = rng.randrange(i + 1, dim)
            k = rng.randrange(dim)
            v = F(rng.randint(-9, 9), rng.randint(1, 9))
            if v:
                entries[(i, j, k)] = v
        subspaces = {}
        for key in rng.sample(["flow", "isotropy", "hint"], rng.randint(0, 3)):
            subspaces[key] = tuple(
                tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
                for _ in range(rng.randint(0, dim))
            )
        doc = AlgebraDocument(
            dim,
            tuple(f"b{i}" for i in range(dim)),
            tuple(sorted((i, j, k, v) for (i, j, k), v in entries.items())),
            subspaces,
            rng.choice([None, "sample"]),
        )
        text = serialize_document(doc)
        back = parse_document(text)
        assert back == doc
        assert serialize_document(back) == text
