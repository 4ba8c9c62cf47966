"""Exact linear algebra over the rationals.

At the API boundary everything is tuples of ``fractions.Fraction``.  Inside,
elimination is fraction-free: each row is scaled to a primitive integer row
(denominators cleared, content divided out), rows are combined in integers
with gcd normalisation, and a reduced row is divided by its pivot only when
it is emitted.  The reduced row echelon form is unique, so the results are
the same canonical ``Fraction`` rows and pivots as textbook Gauss-Jordan,
and bases, complements and echelon forms are reproducible.  ``Echelon``
keeps a growing span in the same integer form, so membership tests and
insertions cost O(rank * n) instead of a fresh elimination.
No floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable

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


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return zeros(len(a), len(b[0]) if b else 0)
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    n = len(a)
    out = identity(n)
    base = a
    while k > 0:
        if k & 1:
            out = matmul(out, base)
        k >>= 1
        if k:
            base = matmul(base, base)
    return out


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), _ZERO)


def integer_row(v) -> list[int]:
    """Primitive integer row spanning the same line as the rational row v."""
    den = lcm(*(x.denominator for x in v))
    w = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def _combine(p: int, w: list[int], f: int, row: list[int]) -> list[int]:
    """Primitive part of p*w - f*row."""
    out = [p * a - f * b for a, b in zip(w, row)]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Returns (echelon matrix, pivot column indices). Zero rows are kept at
    the bottom so the shape is preserved.  Elimination runs on primitive
    integer rows; each pivot row is divided by its pivot on the way out.
    """
    rows = [integer_row(r) for r in m]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nr):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _combine(p, rows[i], f, prow)
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append(tuple(Fraction(a, p) if a else _ZERO for a in row))
    out.extend(((_ZERO,) * nc,) * (nr - r))
    return tuple(out), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def row_basis(m: Matrix) -> Matrix:
    """Canonical basis of the row space: nonzero rows of the rref."""
    red, piv = rref(m)
    return red[: len(piv)]


def nullspace(m: Matrix) -> tuple[Vector, ...]:
    """Deterministic basis of the right kernel, free columns in order."""
    nr, nc = shape(m)
    if nc == 0:
        return ()
    if nr == 0:
        return identity(nc)
    red, piv = rref(m)
    pivset = set(piv)
    free = [c for c in range(nc) if c not in pivset]
    basis = []
    for fc in free:
        v = [_ZERO] * nc
        v[fc] = _ONE
        for r, pc in enumerate(piv):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


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


def inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = tuple(row + iden for row, iden in zip(a, identity(n)))
    red, piv = rref(aug)
    if tuple(piv[:n]) != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red[:n])


def det(a: Matrix) -> Fraction:
    rows = [list(r) for r in a]
    n = len(rows)
    d = _ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return _ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d *= rows[c][c]
        inv = _ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def charpoly(a: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial det(tI - A), ascending coefficients.

    Faddeev-LeVerrier: exact over Q, divisions are by integers only.
    """
    n = len(a)
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = _ONE
    if n == 0:
        return tuple(coeffs)
    b = a  # invariant: b = A . M_k after each step
    coeffs[n - 1] = -trace(b)
    for k in range(2, n + 1):
        m = tuple(
            tuple(b[i][j] + (coeffs[n - k + 1] if i == j else _ZERO) for j in range(n))
            for i in range(n)
        )
        b = matmul(a, m)
        coeffs[n - k] = -trace(b) / k
    return tuple(coeffs)


class Echelon:
    """Growing span kept as primitive integer rows with distinct pivots.

    Each row is reduced against the rows before it, so it is zero at their
    pivot columns, and one pass in insertion order reduces a vector: add(v),
    contains(v) and the rank cost O(rank * n), never a fresh elimination.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Vector] = ()):
        self._rows: list[tuple[int, list[int]]] = []  # (pivot column, row)
        for v in rows:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v) -> list[int]:
        w = integer_row(v)
        for c, row in self._rows:
            f = w[c]
            if f:
                w = _combine(row[c], w, f, row)
        return w

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    def add(self, v) -> bool:
        """Insert v; True when it enlarged the span."""
        w = self._reduce(v)
        c = next((j for j, a in enumerate(w) if a), None)
        if c is None:
            return False
        self._rows.append((c, w))
        return True


def in_span(rows: Matrix, v: Vector) -> bool:
    if is_zero_vector(v):
        return True
    if not rows:
        return False
    return Echelon(rows).contains(v)


def rref_coords(red: Matrix, pivots: tuple[int, ...], v: Vector) -> Vector | None:
    """Coordinates of v in the nonzero rows of a reduced echelon form.

    They are v's entries at the pivot columns; v lies in the span exactly
    when that combination matches v at every other column.  No elimination.
    """
    coords = tuple(v[c] for c in pivots)
    pivset = set(pivots)
    for j, x in enumerate(v):
        if j not in pivset and x != sum(
            (a * row[j] for a, row in zip(coords, red) if a), _ZERO
        ):
            return None
    return coords


def basis_coordinates(basis: Matrix) -> Callable[[Vector], Vector | None]:
    """Coordinate map of an independent row basis, eliminating it once.

    One rref of [basis | I] gives the reduced basis and the transform back
    to `basis`; each call then costs O(rank * n) Fraction operations.
    """
    k = len(basis)
    if not k:
        return lambda v: () if is_zero_vector(v) else None
    n = len(basis[0])
    red, piv = rref(tuple(row + e for row, e in zip(basis, identity(k))))
    piv = tuple(c for c in piv if c < n)
    left = tuple(row[:n] for row in red[: len(piv)])
    back = tuple(row[n:] for row in red[: len(piv)])

    def coords(v: Vector) -> Vector | None:
        c = rref_coords(left, piv, v)
        if c is None:
            return None
        return tuple(
            sum((a * t[i] for a, t in zip(c, back) if a), _ZERO) for i in range(k)
        )

    return coords


def coords_in_basis(basis: Matrix, v: Vector) -> Vector | None:
    """Coordinates of v in the given (independent) row basis, or None."""
    return basis_coordinates(basis)(v)


def spaces_equal(a: Matrix, b: Matrix) -> bool:
    return row_basis(a) == row_basis(b)


def sum_spaces(a: Matrix, b: Matrix) -> Matrix:
    return row_basis(a + b)


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
    vecs = []
    for coef in ker:
        v = zero_vector(n)
        for r in range(na):
            v = vec_add(v, vec_scale(coef[r], a[r]))
        vecs.append(v)
    return row_basis(tuple(vecs))


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


def symmetric_inertia(m: Matrix) -> tuple[int, int, int]:
    """Sylvester inertia (n_pos, n_neg, n_zero) of a symmetric matrix.

    Congruence diagonalization over Q; exact. The off-diagonal repair step
    (adding row j to row i) preserves congruence class.
    """
    n = len(m)
    a = [list(r) for r in m]
    pos = neg = zero = 0
    idx = list(range(n))
    for k in range(n):
        if a[k][k] == 0:
            jd = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if jd is not None:
                # Swap rows and columns k <-> jd (a congruence).
                a[k], a[jd] = a[jd], a[k]
                for r in range(n):
                    a[r][k], a[r][jd] = a[r][jd], a[r][k]
            else:
                jo = next((j for j in range(k + 1, n) if a[j][k] != 0), None)
                if jo is None:
                    zero += 1
                    continue
                # Trailing diagonal is all zero, so the new pivot is
                # 2 a[jo][k] != 0 after adding row and column jo.
                for c in range(n):
                    a[k][c] += a[jo][c]
                for r in range(n):
                    a[r][k] += a[r][jo]
        p = a[k][k]
        if p == 0:
            raise AssertionError("pivot repair failed in symmetric_inertia")
        if p > 0:
            pos += 1
        else:
            neg += 1
        inv = _ONE / p
        for r in range(k + 1, n):
            if a[r][k] != 0:
                f = a[r][k] * inv
                for c in range(n):
                    a[r][c] -= f * a[k][c]
        for c in range(k + 1, n):
            if a[k][c] != 0:
                f = a[k][c] * inv
                for r in range(n):
                    a[r][c] -= f * a[r][k]
    return pos, neg, zero


def restrict_operator(m: Matrix, basis: Matrix) -> Matrix | None:
    """Matrix of m on the span of `basis`, in that basis.

    Returns None when the span is not invariant under m.  The basis rows
    must be independent.
    """
    if not basis:
        return ()
    coords = basis_coordinates(basis)
    cols = []
    for b in basis:
        c = coords(matvec(m, b))
        if c is None:
            return None
        cols.append(c)
    k = len(basis)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def quotient_operator(
    m: Matrix, basis: Matrix
) -> tuple[Matrix, tuple[int, ...]] | None:
    """Matrix induced by m on the quotient by the span of `basis`.

    The quotient is coordinatized by the deterministic complement of
    standard basis vectors from extend_basis.  Returns (matrix, indices)
    or None when the span is not invariant.
    """
    n = len(m)
    if restrict_operator(m, basis) is None and basis:
        return None
    comp = extend_basis(basis, n)
    full = tuple(basis) + tuple(
        tuple(_ONE if i == j else _ZERO for i in range(n)) for j in comp
    )
    coords = basis_coordinates(full)
    k = len(basis)
    cols = []
    for j in comp:
        e = tuple(_ONE if i == j else _ZERO for i in range(n))
        c = coords(matvec(m, e))
        if c is None:
            raise AssertionError("complement construction failed")
        cols.append(c[k:])
    q = len(comp)
    return tuple(tuple(cols[j][i] for j in range(q)) for i in range(q)), comp
