"""Finite-dimensional Lie algebras over Q given by structure constants.

Everything is exact.  Subspaces carry canonical reduced-row-echelon bases,
so equal spans compare equal and every derived object (series, radical,
quotient bases) is deterministic for a given input table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    Echelon,
    Matrix,
    Vector,
    basis_coordinates,
    extend_basis,
    integer_row,
    intersect_spaces,
    is_zero_vector,
    matmul,
    matvec,
    nullspace,
    rref,
    rref_coords,
    row_basis,
    solve,
    vec_add,
    vec_scale,
    vector,
    zero_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AlgebraError(Exception):
    """Base class for structural failures in this package."""


class ValidationError(AlgebraError):
    """The input table is not a Lie algebra."""


class StructureError(AlgebraError):
    """A span lacked the property an operation required of it."""


class LieAlgebra:
    """Lie algebra from a structure-constant table.

    table[i][j] is the coordinate vector of [e_i, e_j].  The constructor
    checks shape only; call validate() for antisymmetry and Jacobi.
    `_cache` memoises derived data (Killing form, radical basis) that
    passed its self-checks; it holds nothing that refers back to the algebra.
    """

    __slots__ = ("table", "labels", "_ad_basis", "_cache")

    def __init__(self, table, labels: Sequence[str] | None = None):
        rows = []
        n = len(table)
        for i, trow in enumerate(table):
            if len(trow) != n:
                raise ValidationError(f"table row {i} has {len(trow)} entries, expected {n}")
            rows.append(tuple(vector(v) if len(v) == n else _bad(i, j, len(v), n)
                              for j, v in enumerate(trow)))
        self.table: tuple[tuple[Vector, ...], ...] = tuple(rows)
        if labels is not None:
            if len(labels) != n:
                raise ValidationError("labels length does not match dimension")
            self.labels = tuple(str(s) for s in labels)
        else:
            self.labels = tuple(f"e{i}" for i in range(n))
        self._ad_basis: tuple[Matrix, ...] | None = None
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return len(self.table)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    # -- bracket and adjoint ---------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        n = self.dim
        out = [_ZERO] * n
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                cij = row[j]
                f = xi * yj
                for k, c in enumerate(cij):
                    if c != 0:
                        out[k] += f * c
        return tuple(out)

    @property
    def ad_basis(self) -> tuple[Matrix, ...]:
        """ad(e_a) for each basis vector, cached."""
        if self._ad_basis is None:
            n = self.dim
            mats = []
            for a in range(n):
                row = self.table[a]
                mats.append(tuple(tuple(row[j][i] for j in range(n)) for i in range(n)))
            self._ad_basis = tuple(mats)
        return self._ad_basis

    def ad(self, x: Vector) -> Matrix:
        n = self.dim
        out = [[_ZERO] * n for _ in range(n)]
        for a, xa in enumerate(x):
            if xa == 0:
                continue
            m = self.ad_basis[a]
            for i in range(n):
                mi = m[i]
                oi = out[i]
                for j in range(n):
                    if mi[j] != 0:
                        oi[j] += xa * mi[j]
        return tuple(tuple(r) for r in out)

    def basis_vector(self, i: int) -> Vector:
        return tuple(_ONE if j == i else _ZERO for j in range(self.dim))

    def element(self, coeffs: Iterable) -> Vector:
        v = vector(coeffs)
        if len(v) != self.dim:
            raise ValidationError("element length does not match dimension")
        return v

    # -- validation --------------------------------------------------------

    def validate(self) -> "ValidationReport":
        anti = []
        jac = []
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                defect = vec_add(self.table[i][j], self.table[j][i])
                if i == j:
                    defect = self.table[i][i]
                if not is_zero_vector(defect):
                    anti.append((i, j, defect))
        basis = [self.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    d = vec_add(
                        vec_add(
                            self.bracket(basis[i], self.table[j][k]),
                            self.bracket(basis[j], self.table[k][i]),
                        ),
                        self.bracket(basis[k], self.table[i][j]),
                    )
                    if not is_zero_vector(d):
                        jac.append((i, j, k, d))
        return ValidationReport(
            dim=n,
            antisymmetry_failures=tuple(anti),
            jacobi_failures=tuple(jac),
        )


def _bad(i, j, got, want):
    raise ValidationError(f"table entry ({i},{j}) has length {got}, expected {want}")


@dataclass(frozen=True)
class ValidationReport:
    dim: int
    antisymmetry_failures: tuple
    jacobi_failures: tuple

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_failures and not self.jacobi_failures

    def summary(self) -> str:
        if self.ok:
            return f"valid Lie algebra of dimension {self.dim}"
        parts = []
        if self.antisymmetry_failures:
            pairs = ", ".join(f"({i},{j})" for i, j, _ in self.antisymmetry_failures[:5])
            parts.append(f"antisymmetry fails at {pairs}")
        if self.jacobi_failures:
            triples = ", ".join(
                f"({i},{j},{k})" for i, j, k, _ in self.jacobi_failures[:5]
            )
            parts.append(f"Jacobi fails at {triples}")
        return "; ".join(parts)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block sum in which the two summands commute."""
    na, nb = a.dim, b.dim
    n = na + nb
    zero = tuple(_ZERO for _ in range(n))
    table = [[zero] * n for _ in range(n)]
    for i in range(na):
        for j in range(na):
            table[i][j] = a.table[i][j] + (_ZERO,) * nb
    for i in range(nb):
        for j in range(nb):
            table[na + i][na + j] = (_ZERO,) * na + b.table[i][j]
    return LieAlgebra(table, a.labels + b.labels)


def lie_algebra_from_matrices(
    mats: Sequence[Matrix], labels: Sequence[str] | None = None
) -> LieAlgebra:
    """Structure constants of a matrix Lie algebra in the given basis.

    The matrices must be linearly independent and closed under commutator.
    """
    if not mats:
        return LieAlgebra([], labels)
    flat = tuple(tuple(x for row in m for x in row) for m in mats)
    if Echelon(flat).rank != len(mats):
        raise StructureError("matrices are linearly dependent")
    n = len(mats)
    coords = basis_coordinates(flat)
    zero = zero_vector(n)
    table = [[zero] * n for _ in range(n)]
    # [m_j, m_i] = -[m_i, m_j], so only i < j is computed; a commutator
    # leaving the span is still reported at its first (i, j) in row order.
    for i in range(n):
        for j in range(i + 1, n):
            prod = matmul(mats[i], mats[j])
            anti = matmul(mats[j], mats[i])
            cf = tuple(x - y for rp, ra in zip(prod, anti) for x, y in zip(rp, ra))
            c = coords(cf)
            if c is None:
                raise StructureError(f"commutator of basis {i},{j} leaves the span")
            table[i][j] = c
            table[j][i] = tuple(-x for x in c)
    return LieAlgebra(table, labels)


# -- subspaces -----------------------------------------------------------


class Subspace:
    """Subspace of an algebra with a canonical echelon basis.

    `basis` is the nonzero part of a reduced row echelon form and `pivots`
    its pivot columns, so membership and coordinates need no elimination.
    """

    __slots__ = ("algebra", "basis", "pivots")

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[Vector] = ()):
        self.algebra = algebra
        rows = tuple(vector(v) for v in vectors)
        for v in rows:
            if len(v) != algebra.dim:
                raise ValidationError("subspace vector length does not match dimension")
        red, self.pivots = rref(rows)
        self.basis: Matrix = red[: len(self.pivots)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra is other.algebra
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((id(self.algebra), self.basis))

    def contains(self, v: Vector) -> bool:
        return rref_coords(self.basis, self.pivots, v) is not None

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, intersect_spaces(self.basis, other.basis))

    def is_subalgebra(self) -> bool:
        return self.contains_space(bracket_space(self, self))

    def is_ideal(self) -> bool:
        g = full_space(self.algebra)
        return self.contains_space(bracket_space(g, self))

    def is_abelian(self) -> bool:
        return bracket_space(self, self).dim == 0


def full_space(g: LieAlgebra) -> Subspace:
    return Subspace(g, tuple(g.basis_vector(i) for i in range(g.dim)))


def zero_space(g: LieAlgebra) -> Subspace:
    return Subspace(g, ())


def bracket_space(a: Subspace, b: Subspace) -> Subspace:
    g = a.algebra
    vecs = [g.bracket(x, y) for x in a.basis for y in b.basis]
    return Subspace(g, vecs)


class Subalgebra(Subspace):
    """Subspace validated to be closed under the bracket."""

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[Vector] = ()):
        super().__init__(algebra, vectors)
        for x in self.basis:
            for y in self.basis:
                if not self.contains(algebra.bracket(x, y)):
                    raise StructureError("span is not closed under the bracket")

    def as_algebra(self) -> tuple[LieAlgebra, Matrix]:
        """Structure constants in the canonical basis, plus that basis."""
        g = self.algebra
        bs = self.basis
        table = []
        for x in bs:
            row = []
            for y in bs:
                row.append(rref_coords(bs, self.pivots, g.bracket(x, y)))
            table.append(row)
        return LieAlgebra(table), bs


def as_subalgebra(s: Subspace) -> Subalgebra:
    return Subalgebra(s.algebra, s.basis)


# -- classical constructions ----------------------------------------------


def centralizer(g: LieAlgebra, s: Subspace) -> Subalgebra:
    """{x : [x, v] = 0 for all v in s}."""
    if s.dim == 0:
        return Subalgebra(g, tuple(g.basis_vector(i) for i in range(g.dim)))
    stacked = []
    for v in s.basis:
        stacked.extend(g.ad(v))
    ker = nullspace(tuple(stacked))
    return Subalgebra(g, ker)


def center(g: LieAlgebra) -> Subalgebra:
    return centralizer(g, full_space(g))


def normalizer(g: LieAlgebra, s: Subspace) -> Subalgebra:
    """{x : [x, s] inside s}."""
    if s.dim == 0:
        return Subalgebra(g, tuple(g.basis_vector(i) for i in range(g.dim)))
    ann = nullspace(s.basis)
    if not ann:
        return Subalgebra(g, tuple(g.basis_vector(i) for i in range(g.dim)))
    stacked = []
    for v in s.basis:
        adv = g.ad(v)
        for w in ann:
            stacked.append(tuple(-sum(w[r] * adv[r][c] for r in range(g.dim))
                                 for c in range(g.dim)))
    ker = nullspace(tuple(stacked))
    return Subalgebra(g, ker)


def lower_central_series(g: LieAlgebra) -> tuple[Subspace, ...]:
    """g = g1, g_{k+1} = [g, g_k], until stable."""
    out = [full_space(g)]
    while True:
        nxt = bracket_space(full_space(g), out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(out)


def derived_series(g: LieAlgebra) -> tuple[Subspace, ...]:
    out = [full_space(g)]
    while True:
        nxt = bracket_space(out[-1], out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(out)


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central_series(g)[-1].dim == 0


def is_solvable(g: LieAlgebra) -> bool:
    return derived_series(g)[-1].dim == 0


def subspace_is_nilpotent(s: Subspace) -> bool:
    """Whether the span, which must be a subalgebra, is nilpotent."""
    sub, _ = as_subalgebra(s).as_algebra()
    return is_nilpotent(sub)


def subspace_is_solvable(s: Subspace) -> bool:
    sub, _ = as_subalgebra(s).as_algebra()
    return is_solvable(sub)


def killing_form(g: LieAlgebra) -> Matrix:
    """K[i][j] = trace(ad e_i . ad e_j), memoised on g."""
    cached = g._cache.get("killing_form")
    if cached is not None:
        return cached
    n = g.dim
    ads = g.ad_basis
    out = []
    for i in range(n):
        row = []
        for j in range(i + 1):
            a, b = ads[i], ads[j]
            row.append(sum((a[r][c] * b[c][r] for r in range(n) for c in range(n)),
                           _ZERO))
        out.append(row)
    k = tuple(
        tuple(out[i][j] if j <= i else out[j][i] for j in range(n)) for i in range(n)
    )
    g._cache["killing_form"] = k
    return k


def radical(g: LieAlgebra) -> Subspace:
    """Largest solvable ideal: the Killing-orthogonal of [g, g].

    Its basis is memoised on g once it has passed its ideal and solvability
    checks.  Only the basis: a Subspace refers back to g, and that cycle
    would keep every analysed algebra alive until a full garbage collection.
    """
    cached = g._cache.get("radical")
    if cached is not None:
        return Subspace(g, cached)
    k = killing_form(g)
    derived = bracket_space(full_space(g), full_space(g))
    if derived.dim == 0:
        rad = full_space(g)
    else:
        rows = tuple(matvec(k, d) for d in derived.basis)
        rad = Subspace(g, nullspace(rows))
        if not rad.is_ideal() or not subspace_is_solvable(rad):
            raise AlgebraError("radical computation produced a non-solvable span")
    g._cache["radical"] = rad.basis
    return rad


def _unital_envelope(mats: Sequence[Matrix], n: int) -> Matrix:
    """Row basis (flattened) of the unital associative algebra generated.

    Worklist closure: the span of words in the generators is the smallest
    span holding the identity and closed under left multiplication by each
    generator, so every new word is multiplied once by every generator.
    Scaling a generator does not change that span, so the words are built
    from primitive integer multiples of the generators.
    """
    gens = []
    for m in mats:
        flat = integer_row(tuple(x for row in m for x in row))
        gens.append(tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n)))
    span = Echelon()
    found: list[tuple[int, ...]] = []
    work = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    while work:
        m = work.pop()
        flat = tuple(x for row in m for x in row)
        if span.add(flat):
            found.append(flat)
            work.extend(matmul(gen, m) for gen in gens)
    return row_basis(tuple(found))


def nilradical(g: LieAlgebra) -> Subspace:
    """Largest nilpotent ideal.

    Within the solvable radical R, the nilradical is exactly the set of x
    whose adjoint action is nilpotent, and that set is cut out by the
    linear conditions trace(ad(x) . B) = 0 over a basis B of the unital
    associative envelope of ad(R): by Lie's theorem the envelope is
    simultaneously triangularizable, so a member of R acts nilpotently
    precisely when its diagonal characters vanish, which the trace pairing
    against the envelope detects in characteristic zero.
    """
    rad = radical(g)
    if rad.dim == 0:
        return rad
    n = g.dim
    ads = [g.ad(r) for r in rad.basis]
    env = _unital_envelope(ads, n)
    # Conditions on coefficients c: sum_r c_r trace(ad(rad_r) . B) = 0,
    # with trace(A . B) = sum_ij A[i][j] B[j][i] over the nonzero A[i][j].
    pairings = [
        tuple((j * n + i, x) for i, row in enumerate(adr) for j, x in enumerate(row) if x)
        for adr in ads
    ]
    rows = [
        tuple(sum((x * bflat[k] for k, x in terms), _ZERO) for terms in pairings)
        for bflat in env
    ]
    coeff_ker = nullspace(tuple(rows))
    vecs = []
    for coef in coeff_ker:
        v = zero_vector(n)
        for r, c in enumerate(coef):
            v = vec_add(v, vec_scale(c, rad.basis[r]))
        vecs.append(v)
    nil = Subspace(g, vecs)
    if not nil.is_ideal() or not subspace_is_nilpotent(nil):
        raise AlgebraError("nilradical computation produced a non-nilpotent span")
    if not nil.contains_space(bracket_space(full_space(g), rad)):
        raise AlgebraError("nilradical misses [g, radical]")
    return nil


# -- quotients ------------------------------------------------------------


@dataclass(frozen=True)
class Quotient:
    """g / ideal with explicit projection and a linear section.

    projection: (q.dim x n) matrix, section: (n x q.dim); the quotient is
    coordinatized by the deterministic standard-vector complement of the
    ideal, and projection . section is the identity.
    """

    algebra: LieAlgebra
    ideal: Subspace
    quotient: LieAlgebra
    projection: Matrix
    section: Matrix

    def push(self, v: Vector) -> Vector:
        return matvec(self.projection, v)

    def lift(self, v: Vector) -> Vector:
        return matvec(self.section, v)

    def push_space(self, s: Subspace) -> Subspace:
        return Subspace(self.quotient, tuple(self.push(v) for v in s.basis))

    def pull_space(self, s: Subspace) -> Subspace:
        vecs = tuple(self.lift(v) for v in s.basis) + self.ideal.basis
        return Subspace(self.algebra, vecs)


def quotient_by_ideal(g: LieAlgebra, ideal: Subspace) -> Quotient:
    if not ideal.is_ideal():
        raise StructureError("quotient requires an ideal")
    n = g.dim
    comp = extend_basis(ideal.basis, n)
    q = len(comp)
    full = ideal.basis + tuple(g.basis_vector(j) for j in comp)
    k = ideal.dim
    # projection: coordinates in `full`, keeping the complement block
    coords = basis_coordinates(full)
    inv_cols = [coords(g.basis_vector(i)) for i in range(n)]
    projection = tuple(
        tuple(inv_cols[i][k + a] for i in range(n)) for a in range(q)
    )
    section = tuple(
        tuple(_ONE if comp[a] == i else _ZERO for a in range(q)) for i in range(n)
    )
    table = []
    for a in range(q):
        row = []
        for b in range(q):
            br = g.bracket(g.basis_vector(comp[a]), g.basis_vector(comp[b]))
            row.append(matvec(projection, br))
        table.append(row)
    labels = tuple(g.labels[j] for j in comp)
    qalg = LieAlgebra(table, labels)
    return Quotient(g, ideal, qalg, projection, section)


# -- Levi decomposition ----------------------------------------------------


def levi_decomposition(g: LieAlgebra) -> tuple[Subspace, Subspace]:
    """(levi, radical): a semisimple subalgebra complementary to the radical.

    Constructive Levi-Malcev.  With an abelian radical the correction to a
    linear section is the solution of a linear system whose solvability is
    guaranteed in characteristic zero; a nonabelian radical is handled by
    recursing through g/[R, R] and the pullback of its Levi subalgebra.
    """
    rad = radical(g)
    levi = _levi_complement(g, rad)
    if levi.dim + rad.dim != g.dim or levi.intersect(rad).dim != 0:
        raise AlgebraError("Levi complement has wrong dimension")
    if not levi.is_subalgebra():
        raise AlgebraError("Levi complement is not a subalgebra")
    return levi, rad


def _levi_complement(g: LieAlgebra, rad: Subspace) -> Subspace:
    if rad.dim == 0:
        return full_space(g)
    if rad.dim == g.dim:
        return zero_space(g)
    rad_derived = bracket_space(rad, rad)
    if rad_derived.dim > 0:
        quo = quotient_by_ideal(g, rad_derived)
        qrad = quo.push_space(rad)
        qlevi = _levi_complement(quo.quotient, qrad)
        pre = quo.pull_space(qlevi)
        sub, bs = as_subalgebra(pre).as_algebra()
        inner = _levi_complement(sub, radical(sub))
        vecs = []
        for v in inner.basis:
            w = zero_vector(g.dim)
            for c, b in zip(v, bs):
                w = vec_add(w, vec_scale(c, b))
            vecs.append(w)
        return Subspace(g, vecs)
    # abelian radical: correct the deterministic complement section
    n = g.dim
    comp = extend_basis(rad.basis, n)
    xs = [g.basis_vector(j) for j in comp]
    q = len(xs)
    k = rad.dim
    full = rad.basis + tuple(xs)
    coords = basis_coordinates(full)
    inv = [coords(g.basis_vector(i)) for i in range(n)]
    proj_rad = tuple(tuple(inv[i][a] for i in range(n)) for a in range(k))
    proj_comp = tuple(tuple(inv[i][k + a] for i in range(n)) for a in range(q))
    # quotient structure constants cbar[a][b] in the complement coordinates
    cbar = [[matvec(proj_comp, g.bracket(xs[a], xs[b])) for b in range(q)] for a in range(q)]
    phi = [[matvec(proj_rad, g.bracket(xs[a], xs[b])) for b in range(q)] for a in range(q)]
    # unknown mu: q vectors in R^k; equations over pairs a < b:
    # phi_ab + rad-part([x_a, mu_b] - [x_b, mu_a]) - sum_c cbar_ab^c mu_c = 0
    rad_vec = [rad.basis[r] for r in range(k)]
    ad_on_rad = []  # ad(x_a) restricted: k x k matrix on rad coordinates
    for a in range(q):
        cols = []
        for r in range(k):
            img = g.bracket(xs[a], rad_vec[r])
            cols.append(matvec(proj_rad, img))
        ad_on_rad.append(tuple(tuple(cols[c][r] for c in range(k)) for r in range(k)))
    unknowns = q * k
    rows = []
    rhs = []
    for a in range(q):
        for b in range(a + 1, q):
            for r in range(k):
                row = [_ZERO] * unknowns
                # [x_a, mu_b] contributes ad_on_rad[a] acting on mu_b
                for c in range(k):
                    row[b * k + c] += ad_on_rad[a][r][c]
                    row[a * k + c] -= ad_on_rad[b][r][c]
                for cidx in range(q):
                    coeff = cbar[a][b][cidx]
                    if coeff != 0:
                        row[cidx * k + r] -= coeff
                rows.append(tuple(row))
                rhs.append(-phi[a][b][r])
    if rows:
        sol = solve(tuple(rows), tuple(rhs))
        if sol is None:
            raise AlgebraError("Levi correction system is inconsistent")
    else:
        sol = tuple([_ZERO] * unknowns)
    vecs = []
    for a in range(q):
        w = xs[a]
        for c in range(k):
            w = vec_add(w, vec_scale(sol[a * k + c], rad_vec[c]))
        vecs.append(w)
    return Subspace(g, vecs)
