"""Finite-dimensional Lie algebras over Q given by structure constants.

Everything is exact.  A `Subspace` is held as its canonical reduced
echelon form in integers (`linalg.Echelon.reduced`: primitive rows with
positive pivots), so equal spans compare equal, membership, sums and
bracket spans run in integers, and every derived object (series,
radical, quotient bases) is deterministic for a given input table.  Its
`Fraction` basis, the rref, is built only when something reads it, such
as structure constants or coordinates in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add
from typing import Iterable, Sequence

from .linalg import (
    Coordinates,
    Echelon,
    IntMatrix,
    Matrix,
    Vector,
    _from_integer,
    _int_matmul,
    _integer_form,
    _rref_rows,
    combine,
    extend_basis,
    frac,
    identity,
    integer_row,
    intersect_spaces,
    matmul,
    matvec,
    nullspace,
    row_basis,
    solve,
    transpose,
    vec_add,
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
    The structure constants are held once, as integers over one common
    denominator `_den` (the lcm of their denominators): `_constants[i][j]`
    is the tuple of (k, c) with c != 0 and c / _den the k-th coordinate of
    [e_i, e_j].  It is built from every entry, (j, i) included, so it is
    exact for a table that is not antisymmetric too.  `bracket`,
    `brackets` and `ad_integer` take the integer form of their arguments
    once and accumulate in integers over the nonzero constants; the
    brackets build one `Fraction` per nonzero output entry.  ad(x) has
    one form, the `linalg.IntMatrix` of `ad_integer`, and stays in
    integers through the kernel and the Jordan-Chevalley parts; the
    inverse problem, y with ad(y) given, is solved from the integer
    brackets `_int_brackets` in one place in `cartan`.  `table` is the
    dense `Fraction` view,
    rebuilt on each access.  `_cache` memoises derived data (Killing
    form, radical basis, ad-hyperbolicity verdicts per vector) that passed
    its self-checks; it holds nothing that refers back to the algebra.
    """

    __slots__ = ("labels", "_constants", "_den", "_cache")

    def __init__(self, table, labels: Sequence[str] | None = None):
        n = len(table)
        rows = []
        for i, trow in enumerate(table):
            if len(trow) != n:
                raise ValidationError(f"table row {i} has {len(trow)} entries, expected {n}")
            rows.append([
                [(k, c) for k, c in enumerate(map(frac, v)) if c]
                if len(v) == n else _bad(i, j, len(v), n)
                for j, v in enumerate(trow)
            ])
        self._set_fractions(rows, labels)

    @classmethod
    def from_entries(
        cls, dim: int, entries: Iterable[tuple], labels: Sequence[str] | None = None
    ) -> "LieAlgebra":
        """The algebra whose [e_i, e_j] has coordinate v at k for each (i, j, k, v).

        Every other structure constant is zero; nothing is implied by
        antisymmetry, and a repeated (i, j, k) keeps its last value.  The
        cost is O(entries + dim**2), with no dense table.
        """
        cells: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, j, k, v in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValidationError(f"entry ({i},{j},{k}) is out of range for dim {dim}")
            cells.setdefault((i, j), {})[k] = frac(v)
        rows = [
            [sorted((k, c) for k, c in cells.get((i, j), {}).items() if c) for j in range(dim)]
            for i in range(dim)
        ]
        alg = cls.__new__(cls)
        alg._set_fractions(rows, labels)
        return alg

    def _set_fractions(self, rows, labels: Sequence[str] | None) -> None:
        """Set the table from nonzero (k, Fraction) lists per (i, j), k ascending."""
        den = lcm(*(c.denominator for row in rows for terms in row for _, c in terms))
        constants = tuple(
            tuple(
                tuple((k, c.numerator * (den // c.denominator)) for k, c in terms)
                for terms in row
            )
            for row in rows
        )
        self._set(constants, den, labels)

    def _set(self, constants, den: int, labels: Sequence[str] | None) -> None:
        n = len(constants)
        if labels is not None:
            if len(labels) != n:
                raise ValidationError("labels length does not match dimension")
            self.labels = tuple(str(s) for s in labels)
        else:
            self.labels = tuple(f"e{i}" for i in range(n))
        self._constants = constants
        self._den = den
        self._cache: dict = {}

    @classmethod
    def _from_block(
        cls, rows: list[list[int]], den: int, labels: Sequence[str] | None = None
    ) -> "LieAlgebra":
        """The algebra of dimension q with [e_a, e_b] = rows[a q + b] / den.

        The common factor of den and every entry is divided out, so `_den`
        is the lcm of the reduced denominators, as the constructor makes it.
        """
        q = isqrt(len(rows))
        g = gcd(den, *(x for row in rows for x in row))
        constants = tuple(
            tuple(
                tuple((k, x // g) for k, x in enumerate(rows[a * q + b]) if x)
                for b in range(q)
            )
            for a in range(q)
        )
        alg = cls.__new__(cls)
        alg._set(constants, den // g, labels)
        return alg

    @property
    def dim(self) -> int:
        return len(self._constants)

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense Fraction table, built from the integer one."""
        n, d = self.dim, self._den
        out = []
        for row in self._constants:
            trow = []
            for terms in row:
                v = [_ZERO] * n
                for k, c in terms:
                    v[k] = Fraction(c, d)
                trow.append(tuple(v))
            out.append(tuple(trow))
        return tuple(out)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    def __eq__(self, other):
        # the integer table over the lcm of the denominators is canonical
        return (
            isinstance(other, LieAlgebra)
            and self._den == other._den
            and self._constants == other._constants
        )

    def __hash__(self):
        return hash((self._den, self._constants))

    # -- bracket and adjoint ---------------------------------------------

    def _int_brackets(self, xs, ys) -> list[list[int]]:
        """Integer [x, y] for (index, integer) term lists, x-major, times _den."""
        n, table = self.dim, self._constants
        out = []
        for x in xs:
            for y in ys:
                acc = [0] * n
                for i, xi in x:
                    row = table[i]
                    for j, yj in y:
                        terms = row[j]
                        if terms:
                            f = xi * yj
                            for k, c in terms:
                                acc[k] += f * c
                out.append(acc)
        return out

    def brackets(self, xs: Sequence[Vector], ys: Sequence[Vector]) -> Matrix:
        """[x, y] for every x in xs and y in ys, x-major."""
        ix, dx = _integer_terms(xs)
        iy, dy = _integer_terms(ys)
        return _from_integer(self._int_brackets(ix, iy), dx * dy * self._den)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        return self.brackets((x,), (y,))[0]

    def _int_ad(self, x) -> list[list[int]]:
        """Integer ad(x) times _den for an (index, integer) term list x."""
        n = self.dim
        out = [[0] * n for _ in range(n)]
        for a, xa in x:
            for j, terms in enumerate(self._constants[a]):
                for k, c in terms:
                    out[k][j] += xa * c
        return out

    def ad_integer(self, x: Vector) -> IntMatrix:
        """ad(x) as integer rows over one denominator."""
        (terms,), d = _integer_terms((x,))
        return IntMatrix(self._int_ad(terms), d * self._den)

    def basis_vector(self, i: int) -> Vector:
        return tuple(_ONE if j == i else _ZERO for j in range(self.dim))

    # -- validation --------------------------------------------------------

    def validate(self) -> "ValidationReport":
        n, d, table = self.dim, self._den, self._constants
        anti = []
        for i in range(n):
            for j in range(i, n):
                defect = [0] * n
                for k, c in table[i][j] + (table[j][i] if j != i else ()):
                    defect[k] += c
                if any(defect):
                    anti.append((i, j, _from_integer((defect,), d)[0]))
        # Jacobi at i < j < k: [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]],
        # the inner brackets read off the table as given; the first terms
        # are one block per i, the other two one block each per (i, j)
        jac = []
        unit = [((a, 1),) for a in range(n)]
        for i in range(n):
            later = range(i + 1, n)
            inner = [table[j][k] for j in later for k in range(j + 1, n)]
            first = iter(self._int_brackets((unit[i],), inner))
            for j in later:
                rest = range(j + 1, n)
                second = self._int_brackets((unit[j],), [table[k][i] for k in rest])
                third = self._int_brackets([unit[k] for k in rest], (table[i][j],))
                for k, b, c in zip(rest, second, third):
                    s = list(map(add, next(first), map(add, b, c)))
                    if any(s):
                        jac.append((i, j, k, _from_integer((s,), d * d)[0]))
        return ValidationReport(
            dim=n,
            antisymmetry_failures=tuple(anti),
            jacobi_failures=tuple(jac),
        )


def _integer_terms(vs: Sequence[Vector]) -> tuple[list[list[tuple[int, int]]], int]:
    """(terms, d): each vector's nonzero (index, integer) pairs over one denominator d."""
    rows, d = _integer_form(vs)
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows], d


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
    ta, tb = a.table, b.table
    zero = tuple(_ZERO for _ in range(n))
    table = [[zero] * n for _ in range(n)]
    for i in range(na):
        for j in range(na):
            table[i][j] = ta[i][j] + (_ZERO,) * nb
    for i in range(nb):
        for j in range(nb):
            table[na + i][na + j] = (_ZERO,) * na + tb[i][j]
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
    # the matrices as integer matrices over one denominator d, so the
    # commutators are integer matrices over d^2
    ints, d = _integer_form(flat)
    size = len(mats[0])
    square = [[row[r * size : (r + 1) * size] for r in range(size)] for row in ints]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    commutators = []
    for i, j in pairs:
        prod = _int_matmul(square[i], square[j])
        anti = _int_matmul(square[j], square[i])
        commutators.append([x - y for rp, ra in zip(prod, anti) for x, y in zip(rp, ra)])
    zero = [0] * n
    rows = [zero] * (n * n)
    # [m_j, m_i] = -[m_i, m_j], so only i < j is computed and the whole
    # block is mapped at once; a commutator leaving the span is reported
    # at its first (i, j) in row order.
    coords, den = Coordinates(flat).map_integer(commutators, d * d)
    for (i, j), c in zip(pairs, coords):
        if c is None:
            raise StructureError(f"commutator of basis {i},{j} leaves the span")
        rows[i * n + j] = c
        rows[j * n + i] = [-x for x in c]
    return LieAlgebra._from_block(rows, den, labels)


# -- subspaces -----------------------------------------------------------


class Subspace:
    """Subspace of an algebra, held as its canonical reduced echelon form.

    The span is an `Echelon` brought to its reduced form: primitive
    integer rows with positive pivots, each zero at every other pivot
    column, in pivot order.  A span has exactly one such form, so equality
    and hashing compare the integer rows, and membership is one pass of
    `Echelon`'s reduction.  `pivots` are the pivot columns.  `basis` is
    the `Fraction` rref, each row divided by its pivot; it is built on
    first read, and anything in coordinates of the basis uses it.
    """

    __slots__ = ("algebra", "pivots", "_span", "_rows", "_basis")

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[Vector] = ()):
        vectors = tuple(vectors)
        if any(len(v) != algebra.dim for v in vectors):
            raise ValidationError("subspace vector length does not match dimension")
        self.algebra = algebra
        self._span = Echelon(vectors)
        self._rows, pivots = self._span.reduced()
        self.pivots = tuple(pivots)
        self._basis = None

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            self._basis = _rref_rows(self._rows, self.pivots)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra is other.algebra
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(map(tuple, self._rows))))

    def contains(self, v: Vector) -> bool:
        if len(v) != self.algebra.dim:
            raise ValidationError("subspace vector length does not match dimension")
        return self._span.contains(v)

    def contains_space(self, other: "Subspace") -> bool:
        return all(map(self._span.contains, other._rows))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, self._rows + other._rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, intersect_spaces(self._rows, other._rows))

    def is_subalgebra(self) -> bool:
        return self.contains_space(bracket_space(self, self))

    def is_ideal(self) -> bool:
        g = full_space(self.algebra)
        return self.contains_space(bracket_space(g, self))

    def is_abelian(self) -> bool:
        g, (terms, _) = self.algebra, _integer_terms(self._rows)
        pairs = ((x, y) for i, x in enumerate(terms) for y in terms[i + 1 :])
        return not any(any(g._int_brackets((x,), (y,))[0]) for x, y in pairs)


def full_space(g: LieAlgebra) -> Subspace:
    """All of g; the identity is its reduced form, so nothing is eliminated.
    Nothing is memoised: a `Subspace` in `g._cache` would refer back to g."""
    s = Subspace(g)
    s.pivots = tuple(range(g.dim))
    s._rows = [[0] * i + [1] + [0] * (g.dim - 1 - i) for i in s.pivots]
    s._span._rows = list(zip(s.pivots, s._rows))
    return s


def zero_space(g: LieAlgebra) -> Subspace:
    return Subspace(g, ())


def bracket_space(a: Subspace, b: Subspace) -> Subspace:
    g, (xs, _), (ys, _) = a.algebra, _integer_terms(a._rows), _integer_terms(b._rows)
    return Subspace(g, g._int_brackets(xs, ys))


class Subalgebra(Subspace):
    """Subspace validated to be closed under the bracket.

    The closure check maps the brackets of every ordered pair of basis
    vectors, antisymmetry not assumed, as one integer block through the
    coordinates in the basis; `_table` keeps that block and its
    denominator as the structure constants.
    """

    __slots__ = ("_table",)

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[Vector] = ()):
        super().__init__(algebra, vectors)
        terms, d = _integer_terms(self.basis)
        block = algebra._int_brackets(terms, terms)
        coords, den = Coordinates(self.basis).map_integer(block, d * d * algebra._den)
        if None in coords:
            raise StructureError("span is not closed under the bracket")
        self._table = (coords, den)

    def as_algebra(self) -> tuple[LieAlgebra, Matrix]:
        """Structure constants in the canonical basis, plus that basis."""
        return LieAlgebra._from_block(*self._table), self.basis


def as_subalgebra(s: Subspace) -> Subalgebra:
    return Subalgebra(s.algebra, s.basis)


# -- classical constructions ----------------------------------------------


def centralizer(g: LieAlgebra, s: Subspace) -> Subalgebra:
    """{x : [x, v] = 0 for all v in s}."""
    if s.dim == 0:
        return Subalgebra(g, tuple(g.basis_vector(i) for i in range(g.dim)))
    stacked = []
    for v in s.basis:
        stacked.extend(g.ad_integer(v).rows)
    return Subalgebra(g, nullspace(stacked))


def center(g: LieAlgebra) -> Subalgebra:
    return centralizer(g, full_space(g))


def normalizer(g: LieAlgebra, s: Subspace) -> Subalgebra:
    """{x : [x, s] inside s}."""
    if s.dim == 0:
        return Subalgebra(g, tuple(g.basis_vector(i) for i in range(g.dim)))
    ann = [integer_row(w) for w in nullspace(s.basis)]
    if not ann:
        return Subalgebra(g, tuple(g.basis_vector(i) for i in range(g.dim)))
    # x is in the normalizer when w . [v, x] = -(w . ad(v)) x vanishes for
    # every v in s and w in the annihilator of s; the sign leaves the kernel
    stacked = []
    for v in s.basis:
        stacked.extend(_int_matmul(ann, g.ad_integer(v).rows))
    return Subalgebra(g, nullspace(stacked))


def lower_central_series(g: LieAlgebra) -> tuple[Subspace, ...]:
    """g = g1, g_{k+1} = [g, g_k], until stable."""
    out = [full_space(g)]
    while True:
        nxt = bracket_space(out[0], out[-1])
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
    ads = [g._int_ad(((a, 1),)) for a in range(g.dim)]  # ad(e_a) times _den
    # trace(a b) is the dot product of a, read by rows, with b, read by columns
    by_rows = [[x for row in a for x in row] for a in ads]
    by_cols = [[x for col in zip(*b) for x in col] for b in ads]
    k = _from_integer(_int_matmul(by_rows, transpose(by_cols)), g._den**2)
    g._cache["killing_form"] = k
    return k


def radical(g: LieAlgebra) -> Subspace:
    """Largest solvable ideal: the Killing-orthogonal of [g, g].

    Its integer rows are memoised on g once it has passed its ideal and
    solvability checks.  Only the rows: a Subspace refers back to g, and
    that cycle would keep every analysed algebra alive until a full garbage
    collection.
    """
    cached = g._cache.get("radical")
    if cached is not None:
        return Subspace(g, cached)
    k = killing_form(g)
    whole = full_space(g)
    derived = bracket_space(whole, whole)
    if derived.dim == 0:
        rad = whole
    else:
        rad = Subspace(g, nullspace(matmul(derived.basis, k)))  # k is symmetric
        if not rad.is_ideal() or not subspace_is_solvable(rad):
            raise AlgebraError("radical computation produced a non-solvable span")
    g._cache["radical"] = rad._rows
    return rad


def _unital_envelope(mats: Sequence[Matrix], n: int) -> Matrix:
    """Row basis (flattened) of the unital associative algebra generated.

    Worklist closure: the span of words in the generators is the smallest
    span holding the identity and closed under left multiplication by each
    generator, so every new word is multiplied once by every generator.
    Scaling a generator does not change that span, so the words are built
    in integers from primitive integer multiples of the generators.
    """
    gens = []
    for m in mats:
        flat = integer_row([x for row in m for x in row])
        gens.append([flat[r * n : (r + 1) * n] for r in range(n)])
    span = Echelon()
    found: list[list[int]] = []
    work = [[[int(i == j) for j in range(n)] for i in range(n)]]
    while work:
        m = work.pop()
        flat = [x for row in m for x in row]
        if span.add(flat):
            found.append(flat)
            work.extend(_int_matmul(gen, m) for gen in gens)
    return row_basis(found)


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
    # ad(rad_r) times one common denominator: a common scale changes
    # neither the envelope nor the kernel of the pairing
    terms, _ = _integer_terms(rad.basis)
    ads = [g._int_ad(t) for t in terms]
    env = _unital_envelope(ads, n)
    # Conditions on coefficients c: sum_r c_r trace(ad(rad_r) . B) = 0, and
    # trace(A . B) is the dot product of A^T and B, both flattened by rows
    pairing = tuple(tuple(x for col in zip(*a) for x in col) for a in ads)
    rows = matmul(env, transpose(pairing))
    nil = Subspace(g, matmul(nullspace(rows), rad.basis))
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
    coords = Coordinates(full)
    inv_cols = coords.map(identity(n))
    projection = tuple(
        tuple(inv_cols[i][k + a] for i in range(n)) for a in range(q)
    )
    section = tuple(
        tuple(_ONE if comp[a] == i else _ZERO for a in range(q)) for i in range(n)
    )
    # the quotient brackets are the complement coordinates of [e_a, e_b]
    xs = [((j, 1),) for j in comp]
    br, den = coords.map_integer(g._int_brackets(xs, xs), g._den)
    labels = tuple(g.labels[j] for j in comp)
    qalg = LieAlgebra._from_block([c[k:] for c in br], den, labels)
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
        return Subspace(g, matmul(inner.basis, bs))
    # abelian radical: correct the deterministic complement section
    n = g.dim
    comp = extend_basis(rad.basis, n)
    xs = [g.basis_vector(j) for j in comp]
    q = len(xs)
    k = rad.dim
    full = rad.basis + tuple(xs)
    coords = Coordinates(full)
    # [x_a, x_b] in coordinates of `full`: the radical part phi[a][b] and the
    # quotient structure constants cbar[a][b] in the complement coordinates
    pairs = coords.map(g.brackets(xs, xs))
    cbar = [[pairs[a * q + b][k:] for b in range(q)] for a in range(q)]
    phi = [[pairs[a * q + b][:k] for b in range(q)] for a in range(q)]
    # unknown mu: q vectors in R^k; equations over pairs a < b:
    # phi_ab + rad-part([x_a, mu_b] - [x_b, mu_a]) - sum_c cbar_ab^c mu_c = 0
    rad_vec = [rad.basis[r] for r in range(k)]
    images = coords.map(g.brackets(xs, rad_vec))
    ad_on_rad = []  # ad(x_a) restricted: k x k matrix on rad coordinates
    for a in range(q):
        cols = images[a * k : (a + 1) * k]
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
    vecs = [
        vec_add(xs[a], combine(sol[a * k : (a + 1) * k], rad_vec, n)) for a in range(q)
    ]
    return Subspace(g, vecs)
