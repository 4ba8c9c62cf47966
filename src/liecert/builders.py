"""Deterministic constructors for the catalog of example action data.

Each builder returns a validated ActionSpec with exact rational
structure constants.  Where the classical constructions use an integer
automorphism whose logarithm is irrational, the builders substitute a
rational hyperbolic derivation with the same qualitative spectrum; the
descriptor records that substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import (
    LieAlgebra,
    StructureError,
    Subspace,
    direct_sum,
    lie_algebra_from_matrices,
    radical,
)
from .anosov import ActionSpec
from .cartan import cartan_subspace, compact_levi_split, restricted_roots
from .linalg import Matrix, Vector, matmul, vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rat_matrix(rows: Sequence[Sequence]) -> Matrix:
    m = tuple(vector(r) for r in rows)
    if any(len(r) != len(m) for r in m):
        raise StructureError("matrix must be square")
    return m


def _antisymmetric(brackets: Iterable[tuple[int, int, dict]]) -> Iterator[tuple]:
    """The entries (i, j, k, c) and (j, i, k, -c) of each [e_i, e_j] = sum_k c e_k,
    given as (i, j, {k: c}), for `LieAlgebra.from_entries`."""
    for i, j, coords in brackets:
        for k, c in coords.items():
            yield i, j, k, c
            yield j, i, k, -c


# -- suspensions ---------------------------------------------------------------


def build_suspension(d_list: Sequence[Sequence[Sequence]]) -> ActionSpec:
    """Abelian fiber plus commuting derivations: R^p extended by R^k.

    Basis order is fiber first, then one generator per derivation; the
    only brackets are [T_s, e_j] = D_s e_j.  The derivations must
    commute exactly.
    """
    mats = [_rat_matrix(d) for d in d_list]
    if not mats:
        raise StructureError("at least one derivation is required")
    p = len(mats[0])
    if any(len(m) != p for m in mats):
        raise StructureError("derivations must share one size")
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if matmul(a, b) != matmul(b, a):
                raise StructureError("suspension derivations must commute")
    k = len(mats)
    brackets = (
        (p + s, j, {r: d[r][j] for r in range(p)})
        for s, d in enumerate(mats)
        for j in range(p)
    )
    labels = [f"e{i}" for i in range(p)] + [f"T{s}" for s in range(k)]
    g = LieAlgebra.from_entries(p + k, _antisymmetric(brackets), labels)
    flow = Subspace(g, tuple(g.basis_vector(p + s) for s in range(k)))
    spec = ActionSpec(g, flow, name="suspension")
    spec.require_valid()
    return spec


def build_central_extension(
    base: ActionSpec, ell: int, cocycle: Sequence[Sequence[Sequence]]
) -> ActionSpec:
    """Extend the base algebra by an ell-dimensional center.

    The cocycle is one antisymmetric matrix per new central direction;
    entry [i][j] is that direction's coordinate of the twisted part of
    [e_i, e_j].  The twisted bracket must satisfy the Jacobi identity,
    which is exactly the 2-cocycle condition.  The new directions are
    appended to the flow span.
    """
    if ell < 1:
        raise StructureError("central extension needs at least one direction")
    if len(cocycle) != ell:
        raise StructureError("one cocycle matrix per central direction")
    g0 = base.ambient
    p = g0.dim
    omegas = [_rat_matrix(m) for m in cocycle]
    for m in omegas:
        if len(m) != p:
            raise StructureError("cocycle matrix size must match the base")
        for i in range(p):
            for j in range(p):
                if m[i][j] != -m[j][i]:
                    raise StructureError("cocycle matrices must be antisymmetric")
    n = p + ell
    zero = tuple(_ZERO for _ in range(n))
    table = [[zero] * n for _ in range(n)]
    t0 = g0.table
    for i in range(p):
        for j in range(p):
            table[i][j] = t0[i][j] + tuple(m[i][j] for m in omegas)
    labels = list(g0.labels) + [f"z{m}" for m in range(ell)]
    g = LieAlgebra(table, labels)
    report = g.validate()
    if not report.ok:
        raise StructureError(
            f"twisted bracket is not a Lie bracket: {report.summary()}"
        )

    def up(v: Vector) -> Vector:
        return tuple(v) + (_ZERO,) * ell

    flow = Subspace(
        g,
        tuple(up(v) for v in base.flow.basis)
        + tuple(g.basis_vector(p + m) for m in range(ell)),
    )
    isotropy = Subspace(g, tuple(up(v) for v in base.isotropy.basis))
    name = f"{base.name}-central-extension" if base.name else "central-extension"
    spec = ActionSpec(g, flow, isotropy, name=name)
    spec.require_valid()
    return spec


def build_heisenberg_starkov() -> ActionSpec:
    """Central extension of the hyperbolic plane suspension.

    The fiber plane carries the derivation diag(1, -1) (the rational
    surrogate for the logarithm of a hyperbolic integer matrix) and the
    twist is the symplectic form on that plane, so the ambient algebra
    is the Heisenberg algebra extended by the derivation.  The flow span
    is the center plus the derivation generator.
    """
    base = build_suspension([[[1, 0], [0, -1]]])
    omega = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    spec = build_central_extension(base, 1, [omega])
    return ActionSpec(
        spec.ambient, spec.flow, spec.isotropy, name="heisenberg-starkov"
    )


def build_wedge_example() -> ActionSpec:
    """Derivation extension of the free 2-step nilpotent algebra on R^3.

    Basis: u+, u-, e0, then the three wedges u+^u-, u+^e0, u-^e0, then
    the derivation generator T with weights diag(1, -1, 0) on the
    vectors.  Vector brackets land in the wedge part with a factor 2
    (the second-order term of the underlying group law); the wedge part
    is central in the nilpotent part.
    """
    brackets = (
        (0, 1, {3: 2}),  # [u+, u-] = 2 u+^u-
        (0, 2, {4: 2}),  # [u+, e0] = 2 u+^e0
        (1, 2, {5: 2}),  # [u-, e0] = 2 u-^e0
        (6, 0, {0: 1}),  # [T, u+] = u+
        (6, 1, {1: -1}),  # [T, u-] = -u-
        (6, 4, {4: 1}),  # [T, u+^e0] = u+^e0
        (6, 5, {5: -1}),  # [T, u-^e0] = -u-^e0
    )
    labels = ["u+", "u-", "e0", "u+^u-", "u+^e0", "u-^e0", "T"]
    g = LieAlgebra.from_entries(7, _antisymmetric(brackets), labels)
    flow = Subspace(g, (g.basis_vector(2), g.basis_vector(3), g.basis_vector(6)))
    spec = ActionSpec(g, flow, name="wedge")
    spec.require_valid()
    return spec


# -- semisimple examples -------------------------------------------------------


def _sl2() -> LieAlgebra:
    h, e, f = 0, 1, 2
    brackets = ((h, e, {e: 2}), (h, f, {f: -2}), (e, f, {h: 1}))
    return LieAlgebra.from_entries(3, _antisymmetric(brackets), ["h", "e", "f"])


def _e(i: int, j: int) -> Matrix:
    return tuple(
        tuple(_ONE if (r, c) == (i, j) else _ZERO for c in range(4)) for r in range(4)
    )


def _madd(*pairs) -> Matrix:
    out = [[_ZERO] * 4 for _ in range(4)]
    for coef, m in pairs:
        for r in range(4):
            for c in range(4):
                out[r][c] += coef * m[r][c]
    return tuple(tuple(r) for r in out)


def _so13() -> LieAlgebra:
    """Lorentz algebra in the boost/rotation basis B1 B2 B3 R1 R2 R3."""
    b1 = _madd((_ONE, _e(0, 1)), (_ONE, _e(1, 0)))
    b2 = _madd((_ONE, _e(0, 2)), (_ONE, _e(2, 0)))
    b3 = _madd((_ONE, _e(0, 3)), (_ONE, _e(3, 0)))
    r1 = _madd((_ONE, _e(2, 3)), (-_ONE, _e(3, 2)))
    r2 = _madd((_ONE, _e(3, 1)), (-_ONE, _e(1, 3)))
    r3 = _madd((_ONE, _e(1, 2)), (-_ONE, _e(2, 1)))
    return lie_algebra_from_matrices(
        [b1, b2, b3, r1, r2, r3], ["B1", "B2", "B3", "R1", "R2", "R3"]
    )


def build_sl2_geodesic() -> ActionSpec:
    """Diagonal flow on the split rank-one algebra; empty isotropy."""
    g = _sl2()
    spec = ActionSpec(g, Subspace(g, (g.basis_vector(0),)), name="sl2-geodesic")
    spec.require_valid()
    return spec


def build_so13_geodesic() -> ActionSpec:
    """Boost flow on the Lorentz algebra with the commuting rotation as isotropy."""
    g = _so13()
    spec = ActionSpec(
        g,
        Subspace(g, (g.basis_vector(0),)),
        Subspace(g, (g.basis_vector(3),)),
        name="so13-geodesic",
    )
    spec.require_valid()
    return spec


def build_so13_frame_flow() -> ActionSpec:
    """Boost and rotation together as a two-dimensional flow span."""
    g = _so13()
    spec = ActionSpec(
        g,
        Subspace(g, (g.basis_vector(0), g.basis_vector(3))),
        name="so13-frame-flow",
    )
    spec.require_valid()
    return spec


def build_weyl_chamber(alg: LieAlgebra) -> ActionSpec:
    """Cartan subspace as the flow, its compact centralizer part as isotropy.

    Requires a semisimple input; the isotropy is the complement of the
    Cartan subspace inside the zero-root space, which consists of the
    axis-spectrum directions there.
    """
    if radical(alg).dim != 0:
        raise StructureError("chamber data requires a semisimple algebra")
    a = cartan_subspace(alg)
    rs = restricted_roots(alg, a)
    k = Subspace(alg, rs.zero_complement or ())
    spec = ActionSpec(alg, a, k, name="weyl-chamber")
    spec.require_valid()
    return spec


def build_modified_weyl(base: ActionSpec, ke: Subspace) -> ActionSpec:
    """Move part of the isotropy center into the flow span.

    ke must sit inside the center of the isotropy; the kept isotropy is
    the derived part plus ke, and the flow gains a complement of ke in
    that center.  ke equal to the whole center returns data equal to the
    base; ke = 0 absorbs the center entirely.
    """
    g = base.ambient
    split = compact_levi_split(g, base.isotropy)
    if not split.reductive:
        raise StructureError("isotropy center is not defined for this datum")
    te = split.central
    if ke.algebra is not g or not te.contains_space(ke):
        raise StructureError("absorbed part must sit inside the isotropy center")
    he_vecs = []
    grown = ke
    for v in te.basis:
        if not grown.contains(v):
            he_vecs.append(v)
            grown = Subspace(g, grown.basis + (v,))
    flow = base.flow.sum(Subspace(g, he_vecs))
    isotropy = split.semisimple.sum(ke)
    name = f"{base.name}-modified" if base.name else "modified-weyl"
    spec = ActionSpec(g, flow, isotropy, name=name)
    spec.require_valid()
    return spec


# -- the catalog ---------------------------------------------------------------


@dataclass(frozen=True)
class ExampleDescriptor:
    name: str
    build: Callable[[], ActionSpec]
    parameters: dict
    expected: dict
    annotation: str = ""


def _suspension_hyperbolic() -> ActionSpec:
    spec = build_suspension([[[0, 1], [1, 0]]])
    return ActionSpec(spec.ambient, spec.flow, spec.isotropy, name="suspension-hyperbolic")


def _suspension_r2() -> ActionSpec:
    spec = build_suspension([[[1, 0], [0, -1]], [[-1, 0], [0, -1]]])
    return ActionSpec(spec.ambient, spec.flow, spec.isotropy, name="suspension-r2")


def _weyl_sl2sl2() -> ActionSpec:
    spec = build_weyl_chamber(direct_sum(_sl2(), _sl2()))
    return ActionSpec(spec.ambient, spec.flow, spec.isotropy, name="weyl-sl2sl2")


CATALOG: tuple[ExampleDescriptor, ...] = (
    ExampleDescriptor(
        "sl2-geodesic",
        build_sl2_geodesic,
        {},
        {"case": "semisimple", "anosov": True, "codimension_one": True},
        "geodesic-flow data on the rank-one split algebra",
    ),
    ExampleDescriptor(
        "so13-geodesic",
        build_so13_geodesic,
        {},
        {"case": "semisimple", "anosov": True, "isotropy_dim": 1},
        "boost flow with rotation isotropy on the Lorentz algebra",
    ),
    ExampleDescriptor(
        "so13-frame-flow",
        build_so13_frame_flow,
        {},
        {"case": "semisimple", "anosov": True, "isotropy_dim": 0},
        "boost plus rotation flow, empty isotropy",
    ),
    ExampleDescriptor(
        "heisenberg-starkov",
        build_heisenberg_starkov,
        {"derivation": [[1, 0], [0, -1]], "twist": "symplectic"},
        {"case": "solvable", "anosov": True, "central_extension": True},
        "non-product central extension of the plane suspension; the "
        "derivation stands in for the logarithm of a hyperbolic integer "
        "matrix",
    ),
    ExampleDescriptor(
        "wedge",
        build_wedge_example,
        {"weights": [1, -1, 0]},
        {"case": "solvable", "anosov": True, "tower": [6, 3, 0]},
        "two-step nilpotent part from the wedge square of R^3",
    ),
    ExampleDescriptor(
        "suspension-hyperbolic",
        _suspension_hyperbolic,
        {"derivations": [[[0, 1], [1, 0]]]},
        {"case": "solvable", "anosov": True, "dims": [1, 1]},
        "plane suspension by one hyperbolic derivation; an integer "
        "matrix with this spectrum preserves a lattice at group level",
    ),
    ExampleDescriptor(
        "suspension-r2",
        _suspension_r2,
        {"derivations": [[[1, 0], [0, -1]], [[-1, 0], [0, -1]]]},
        {"case": "solvable", "anosov": True, "sign_classes": 4},
        "rank-two suspension whose regular set has four sign classes",
    ),
    ExampleDescriptor(
        "weyl-sl2sl2",
        _weyl_sl2sl2,
        {},
        {"case": "semisimple", "anosov": True, "chambers": 4},
        "chamber data on the sum of two rank-one factors",
    ),
)


def catalog_names() -> tuple[str, ...]:
    return tuple(d.name for d in CATALOG)


def build_example(name: str) -> ActionSpec:
    for d in CATALOG:
        if d.name == name:
            return d.build()
    raise KeyError(f"unknown example {name!r}")
