"""Exact linear algebra over the rationals.

At the API boundary everything is tuples of ``fractions.Fraction``.  Inside,
there is one row elimination, `Echelon`, and it is fraction-free: each row
is scaled to a primitive integer row (denominators cleared, content divided
out), rows are combined in integers with gcd normalisation, and a reduced
row is divided by its pivot only when it is emitted.  `Echelon` inserts
rows one at a time, each reduced against the rows before it, so a growing
span answers membership and insertion in O(rank * n); its `reduced`
finishes the reduced row echelon form with one back-substitution.  Its
rows are then primitive with positive pivots: that integer form is
unique to the span, it is what `algebra.Subspace` holds, and divided by
the pivots it is the rref; its `rank` is the rank.  `rref`, `nullspace`,
`generalized_kernel` and `Coordinates` all eliminate through it, so the
results are the same canonical ``Fraction`` rows and pivots as textbook
Gauss-Jordan, whatever the order of the rows, and bases, complements and
echelon forms are reproducible.

Products, powers, characteristic polynomials and polynomials in a matrix
run on `IntMatrix(rows, den)`, integer rows over one common denominator.
`_integer_form` is the one conversion from a `Fraction` matrix and
returns an `IntMatrix` as it is, so every kernel entry point takes either
kind, and the integer value passes between kernel calls: `mat_poly` and
`restrict_operator` return an `IntMatrix` when given one, and a
`Fraction` is built only where a public function returns one.  The
adjoint enters in that form only (`LieAlgebra.ad_integer`), and no
matrix is inverted: `spectral.jordan_chevalley` divides in Q[t] instead.
Generalized kernels stop multiplying as soon as the rank stops falling.

The matrices met here, ad(x) and polynomials in it, are mostly zeros, so
the integer product takes each left row by its density: a row with at
most half its entries nonzero is summed as x_j b_j over its nonzero x_j
(a zero row costs nothing), a denser row by dot products with the columns
of b.  Callers put the sparse factor on the left.  Horner's step for a
polynomial in A is A . acc rather than acc . A: acc is itself a
polynomial in A, and polynomials in A commute with A, so both give the
same matrix.

Coordinates in a basis come from one integer elimination of [basis | I]
and map whole blocks of vectors with two integer products (membership,
then coordinates); restriction to a subspace and the invariance tests
are such block maps.  No quotient matrix is built: A is block-triangular
on an invariant span W, so the operator induced on V/W has the
characteristic polynomial charpoly(A) / charpoly(A|W).
`Coordinates.map_integer` takes and returns integer rows over one
denominator, so a caller that already holds integers (the structure
layer) never builds a `Fraction` between two integer steps.

The structure layer (`algebra.LieAlgebra`) uses the same forms: its
structure constants are integers over one common denominator, brackets
and adjoints are accumulated in integers, and a `Fraction` is built once
per nonzero output entry; a span of brackets goes from the integer
brackets straight into an `Echelon`.
No floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', floats-free input to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(xs: Iterable) -> Vector:
    return tuple(frac(x) for x in xs)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def zeros(r: int, c: int) -> Matrix:
    return tuple((_ZERO,) * c for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


class IntMatrix(NamedTuple):
    """rows / den: integer rows over one positive, not necessarily minimal,
    denominator.  Rows may be shared between values: never change them in place."""

    rows: list[list[int]]
    den: int


def _integer_form(m) -> IntMatrix:
    """m as integer rows over one common denominator; an IntMatrix as it is."""
    if isinstance(m, IntMatrix):
        return m
    d = lcm(*(x.denominator for row in m for x in row))
    if d == 1:
        return IntMatrix([[x.numerator for x in row] for row in m], 1)
    return IntMatrix([[x.numerator * (d // x.denominator) for x in row] for row in m], d)


def _like(m, rows: list[list[int]], den: int):
    """rows / den of the kind of m: an IntMatrix for an IntMatrix, else a Fraction matrix."""
    return IntMatrix(rows, den) if isinstance(m, IntMatrix) else _from_integer(rows, den)


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a . b on integer rows, each row of a by the cheaper of two loops.

    A row with at most half its entries nonzero is the sum of x_j b_j over
    its nonzero x_j (a zero row costs nothing); a denser row takes dot
    products with the columns of b.  Both loops run inside map and sum.
    """
    m = len(b[0]) if b else 0
    bt = None
    out = []
    for row in a:
        if 2 * (len(row) - row.count(0)) > len(row):
            if bt is None:
                bt = list(zip(*b))
            out.append([sum(map(mul, row, col)) for col in bt])
            continue
        acc = None
        for j, x in enumerate(row):
            if not x:
                continue
            bj = b[j]
            if acc is None:
                acc = list(bj) if x == 1 else [x * y for y in bj]
            elif x == 1:
                acc = list(map(add, acc, bj))
            elif x == -1:
                acc = list(map(sub, acc, bj))
            else:
                acc = list(map(add, acc, map(mul, repeat(x), bj)))
        out.append([0] * m if acc is None else acc)
    return out


def _from_integer(rows: list[list[int] | None], d: int) -> Matrix:
    """The Fraction matrix rows / d; a None row stays None."""
    return tuple(
        None if row is None else tuple(Fraction(x, d) if x else _ZERO for x in row)
        for row in rows
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return zeros(len(a), len(b[0]) if b else 0)
    ia, da = _integer_form(a)
    ib, db = _integer_form(b)
    return _from_integer(_int_matmul(ia, ib), da * db)


def combine(coeffs: Sequence[Fraction], rows: Matrix, n: int) -> Vector:
    """sum_i coeffs[i] rows[i]; the zero vector of length n when rows is empty."""
    if not rows:
        return zero_vector(n)
    return matmul((tuple(coeffs),), rows)[0]


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    """a^k by squaring and multiplying in integers, divided by d^k once."""
    base, d = _integer_form(a)
    if k == 0:
        return identity(len(base))
    out = None
    e = k
    while e:
        if e & 1:
            out = base if out is None else _int_matmul(out, base)
        e >>= 1
        if e:
            base = _int_matmul(base, base)
    return _from_integer(out, d**k)


def mat_poly(coeffs: Sequence[Fraction], a: Matrix) -> Matrix:
    """sum_i coeffs[i] a^i for ascending coefficients, of the kind of a.

    With a = C / d and coeffs[i] = k_i / e, this is P(C) / (e d^deg) for
    the integer polynomial P = sum_i k_i d^(deg - i) t^i, evaluated by
    Horner, so degree k costs k - 1 products.
    """
    rows, d = _integer_form(a)
    n = len(rows)
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        c = cs[0] if cs else _ZERO
        scalar = [[c.numerator if i == j else 0 for j in range(n)] for i in range(n)]
        return _like(a, scalar, c.denominator)
    e = lcm(*(c.denominator for c in cs))
    ks = [c.numerator * (e // c.denominator) for c in cs]
    deg = len(ks) - 1
    acc = [[ks[deg] * x for x in row] for row in rows]
    for i in range(deg - 1, -1, -1):
        s = ks[i] * d ** (deg - i)
        if s:
            for j in range(n):
                acc[j][j] += s
        if i:
            acc = _int_matmul(rows, acc)
    return _like(a, acc, e * d**deg)


def primitive(w: list[int]) -> list[int]:
    """w divided by the gcd of its entries."""
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def integer_row(v) -> list[int]:
    """Primitive integer row spanning the same line as the row v of ints and Fractions.

    Any other entry, a float for one, raises TypeError.
    """
    try:
        dens = [x.denominator for x in v]
    except AttributeError:
        raise TypeError(f"not an exact rational row: {v!r}") from None
    den = lcm(*dens)
    if den == 1:
        return primitive([x.numerator for x in v])
    return primitive([x.numerator * (den // d) for x, d in zip(v, dens)])


def _combine(p: int, w: list[int], f: int, row: list[int]) -> list[int]:
    """Primitive part of p*w - f*row."""
    return primitive([p * a - f * b for a, b in zip(w, row)])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Returns (echelon matrix, pivot column indices). Zero rows are kept at
    the bottom so the shape is preserved.  The reduced integer rows come
    from `Echelon`; each is divided by its pivot on the way out.
    """
    rows, pivots = Echelon(m).reduced()
    zero = ((_ZERO,) * (len(m[0]) if m else 0),)
    return _rref_rows(rows, pivots) + zero * (len(m) - len(pivots)), tuple(pivots)


def _rref_rows(rows: Sequence[list[int]], pivots: Sequence[int]) -> Matrix:
    """Reduced integer echelon rows, each divided by its pivot: the nonzero rows of the rref."""
    return tuple(
        tuple(Fraction(a, row[c]) if a else _ZERO for a in row)
        for row, c in zip(rows, pivots)
    )


def row_basis(m: Matrix) -> Matrix:
    """Canonical basis of the row space: nonzero rows of the rref."""
    red, piv = rref(m)
    return red[: len(piv)]


def _kernel(rows: list[list[int]], pivots: list[int], nc: int) -> tuple[Vector, ...]:
    """Right kernel read off reduced integer pivot rows, free columns in order."""
    pivset = set(pivots)
    basis = []
    for fc in range(nc):
        if fc in pivset:
            continue
        v = [_ZERO] * nc
        v[fc] = _ONE
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return tuple(basis)


def nullspace(m: Matrix) -> tuple[Vector, ...]:
    """Deterministic basis of the right kernel, free columns in order."""
    return _kernel(*Echelon(m).reduced(), shape(m)[1])


def generalized_kernel(b: Matrix) -> Matrix:
    """Canonical basis of the generalized kernel of the square matrix b.

    ker b^j grows with j until the Fitting index and is constant from
    there on, so the first j with rank b^(j+1) = rank b^j gives it, and the
    result equals row_basis(nullspace(b^n)).  The reduced rows of b^j have
    the kernel of b^j, so each step multiplies those rank-many rows by b.
    The rows stay the left factor: the kernel is read off the row space of
    b^j, which b . rows^T would not give.  An invertible b stops at once.
    """
    rows, _ = _integer_form(b)
    red, piv = _integer_reduced(rows)
    while 0 < len(piv) < len(rows):
        nxt, npiv = _integer_reduced(_int_matmul(red, rows))
        if len(npiv) == len(piv):
            break
        red, piv = nxt, npiv
    return row_basis(_kernel(red, piv, len(rows)))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b, or None if inconsistent."""
    nr, nc = shape(a)
    aug = tuple(row + (bb,) for row, bb in zip(a, b))
    red, piv = rref(aug)
    if nc in piv:
        return None
    x = [_ZERO] * nc
    for r, pc in enumerate(piv):
        x[pc] = red[r][nc]
    return tuple(x)


def charpoly(a: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(tI - A), ascending coefficients.

    Faddeev-LeVerrier on the integer matrix C = dA, where every M_k and
    every coefficient is an integer, so each division by k is exact.
    Coefficient i of det(tI - C) is d^(n-i) times that of det(tI - A).
    """
    c, d = _integer_form(a)
    n = len(c)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    b = c  # invariant: b = C . M_k after each step
    if n:
        coeffs[n - 1] = -sum(b[i][i] for i in range(n))
    for k in range(2, n + 1):
        m = [row[:] for row in b]
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        b = _int_matmul(c, m)
        q, r = divmod(-sum(b[i][i] for i in range(n)), k)
        if r:
            from .algebra import AlgebraError  # algebra imports this module

            raise AlgebraError("Faddeev-LeVerrier division is not exact")
        coeffs[n - k] = q
    return tuple(Fraction(x, d ** (n - i)) if x else _ZERO for i, x in enumerate(coeffs))


class Echelon:
    """A span kept as primitive integer rows with distinct pivots.

    This is the one Gauss-Jordan elimination of the module.  A row is
    reduced against the rows before it, so it is zero at their pivot
    columns and, since its pivot is its first nonzero entry, left of its
    own pivot: one pass in insertion order reduces a vector, and add(v),
    contains(v) and the rank cost O(rank * n), never a fresh elimination.
    Sorted by pivot the rows are an echelon form; `reduced` clears each
    pivot column above its pivot too, which gives the reduced echelon form.
    Rows may be rational (`Fraction`) or integer vectors.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Vector] = ()):
        self._rows: list[tuple[int, list[int]]] = []  # (pivot column, row)
        self._insert(map(integer_row, rows))

    def _reduce(self, w: list[int]) -> list[int]:
        """The integer row w reduced against every row of the span."""
        for c, row in self._rows:
            f = w[c]
            if f:
                w = _combine(row[c], w, f, row)
        return w

    def _insert(self, ws: Iterable[list[int]]) -> None:
        """Insert primitive integer rows, each reduced against the rows before it."""
        out = self._rows
        for w in ws:
            w = self._reduce(w)
            for c, a in enumerate(w):
                if a:
                    out.append((c, w))
                    break

    @property
    def rank(self) -> int:
        return len(self._rows)

    def contains(self, v) -> bool:
        return not any(self._reduce(integer_row(v)))

    def add(self, v) -> bool:
        """Insert v; True when it enlarged the span."""
        rank = len(self._rows)
        self._insert((integer_row(v),))
        return len(self._rows) > rank

    def reduced(self) -> tuple[list[list[int]], list[int]]:
        """(rows, pivots) of the canonical reduced echelon form, in pivot order.

        The rows are primitive integer rows with positive pivots, each
        zero at every other pivot column: a span has exactly one such
        form, and divided by their pivots the rows are its rref.  One
        back-substitution, last pivot first: when pivot k is cleared from
        the rows above it, row k is already zero at every later pivot.
        The span keeps the reduced rows, which reduce a vector as well as
        the rows they replace.
        """
        ordered = sorted(self._rows)  # the pivots are distinct
        pivots = [c for c, _ in ordered]
        rows = [row if row[c] > 0 else [-a for a in row] for c, row in ordered]
        for k in range(len(rows) - 1, 0, -1):
            c, prow = pivots[k], rows[k]
            p = prow[c]
            for i in range(k):
                f = rows[i][c]
                if f:
                    rows[i] = _combine(p, rows[i], f, prow)
        self._rows = list(zip(pivots, rows))
        return rows, pivots


def _integer_reduced(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """`Echelon(rows).reduced()` for integer rows: only their content is divided out."""
    span = Echelon()
    span._insert(map(primitive, rows))
    return span.reduced()


def in_span(rows: Matrix, v: Vector) -> bool:
    return Echelon(rows).contains(v)


class Coordinates:
    """Coordinates in an independent row basis, from one integer elimination.

    [basis | I] is eliminated once on primitive integer rows; scaled to one
    common denominator e, its pivot rows give the reduced basis at the
    non-pivot columns and the transform back to `basis`.  A block V = W/d
    of vectors is mapped with two integer products of its pivot entries
    W[:, pivots]: against the non-pivot columns, where a member must
    reproduce e W (the membership test), and against the back transform,
    which gives the coordinates times d e.
    """

    __slots__ = ("_k", "_pivots", "_free", "_left", "_back", "_den")

    def __init__(self, basis: Matrix):
        k = self._k = len(basis)
        n = len(basis[0]) if basis else 0
        rows, pivots = Echelon(tuple(row) + e for row, e in zip(basis, identity(k))).reduced()
        pivots = [c for c in pivots if c < n]
        rows = rows[: len(pivots)]
        den = lcm(*(row[c] for row, c in zip(rows, pivots)))
        rows = [[a * (den // row[c]) for a in row] for row, c in zip(rows, pivots)]
        pivset = set(pivots)
        self._pivots = pivots
        self._free = [j for j in range(n) if j not in pivset]
        self._left = [[row[j] for j in self._free] for row in rows]
        self._back = [row[n:] for row in rows]
        self._den = den

    def _members(self, w: list[list[int]]) -> tuple[list[list[int]], list[bool]]:
        """(W[:, pivots], membership of each row) for integer rows W."""
        lead = [[row[c] for c in self._pivots] for row in w]
        e, free = self._den, self._free
        found = _int_matmul(lead, self._left)
        inside = [
            all(x == e * row[j] for x, j in zip(got, free))
            for got, row in zip(found, w)
        ]
        return lead, inside

    def contains(self, w: list[list[int]]) -> list[bool]:
        """Whether each of the integer rows W lies in the span."""
        if not self._pivots:
            return [not any(row) for row in w]
        return self._members(w)[1]

    def map_integer(
        self, w: list[list[int]], d: int
    ) -> tuple[list[list[int] | None], int]:
        """Coordinates of the rows of W/d as integer rows over one denominator.

        Returns (rows, denominator); a row outside the span maps to None.
        """
        if not self._pivots:
            return [None if any(row) else [0] * self._k for row in w], d
        lead, inside = self._members(w)
        coords = iter(_int_matmul([c for c, ok in zip(lead, inside) if ok], self._back))
        return [next(coords) if ok else None for ok in inside], d * self._den

    def map(self, block: Matrix) -> tuple[Vector | None, ...]:
        """Coordinates of each row of the block; None for a row outside."""
        return _from_integer(*self.map_integer(*_integer_form(block)))


def intersect_spaces(a: Matrix, b: Matrix) -> Matrix:
    """Canonical basis of the intersection of two row spaces."""
    if not a or not b:
        return ()
    # Solve alpha . a - beta . b = 0; intersection vectors are alpha . a.
    na, nb = len(a), len(b)
    sys_rows = []
    n = len(a[0])
    for i in range(n):
        sys_rows.append(tuple(a[r][i] for r in range(na)) + tuple(-b[r][i] for r in range(nb)))
    ker = nullspace(tuple(sys_rows))
    return row_basis(matmul(tuple(coef[:na] for coef in ker), a))


def extend_basis(rows: Matrix, n: int) -> tuple[int, ...]:
    """Standard basis indices completing `rows` to all of Q^n.

    Scans e_0, e_1, ... in order and keeps those that enlarge the span;
    this is the deterministic complement used for quotients.
    """
    span = Echelon(rows)
    picked: list[int] = []
    for j in range(n):
        if span.rank == n:
            break
        if span.add(tuple(1 if i == j else 0 for i in range(n))):
            picked.append(j)
    return tuple(picked)


def _image_rows(m: Matrix, basis: Matrix) -> tuple[list[list[int]], int]:
    """The rows (m b)^T for the rows b of `basis`, as integer rows over one
    denominator: the integer basis times the integer m^T, never a `Fraction`."""
    im, dm = _integer_form(m)
    ib, db = _integer_form(basis)
    return _int_matmul(ib, [list(col) for col in zip(*im)]), dm * db


def invariant_under(ops: Sequence[Matrix], basis: Matrix) -> list[bool]:
    """For each operator, whether it maps the span of `basis` into itself.

    The basis is eliminated and made integer once; each operator's
    images are tested as one block.  Every operator keeps the zero space.
    """
    if not basis:
        return [True] * len(ops)
    span, ib = Coordinates(basis), _integer_form(basis)
    return [all(span.contains(_image_rows(m, ib)[0])) for m in ops]


def restrict_operators(ops: Sequence[Matrix], basis: Matrix) -> list[Matrix | None]:
    """Matrix of each operator on the span of `basis`, in that basis, of its kind.

    None for an operator under which the span is not invariant.  The basis
    rows must be independent; they are eliminated and made integer once
    for every operator, and each operator's images are mapped as one block.
    """
    if not basis:
        return [_like(m, [], 1) for m in ops]
    span, ib = Coordinates(basis), _integer_form(basis)
    out = []
    for m in ops:
        rows, den = span.map_integer(*_image_rows(m, ib))
        out.append(None if None in rows else _like(m, [list(col) for col in zip(*rows)], den))
    return out


def restrict_operator(m: Matrix, basis: Matrix) -> Matrix | None:
    """Matrix of m on the span of `basis`, in that basis, of the kind of m,
    or None when the span is not invariant under m (`restrict_operators`)."""
    return restrict_operators([m], basis)[0]

