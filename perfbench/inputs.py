"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` seeded from the command line and
returns plain data (rational matrices, structure tables, root values).
Closures and expected facts are computed here with a small exact
elimination of our own, so the inputs and the expectations the oracle
checks against do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


# -- exact helpers independent of liecert ---------------------------------------


class Echelon:
    """Incremental integer echelon form; `add` reports whether v was new."""

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, primitive row)

    def add(self, v) -> bool:
        v = list(v)
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                lead = row[pivot]
                v = [lead * a - c * b for a, b in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        g = math.gcd(*v)
        self.rows.append((pivot, [x // g for x in v]))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def _flat(m) -> tuple:
    return tuple(x for row in m for x in row)


def commutator(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def derived_dim(mats) -> int:
    """Dimension of the span of all commutators of a basis."""
    ech = Echelon()
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            ech.add(_flat(commutator(a, b)))
    return ech.rank


def _rational(m) -> Matrix:
    return tuple(tuple(F(x) for x in row) for row in m)


# -- solvable-batch ---------------------------------------------------------------


@dataclass(frozen=True)
class SolvableInput:
    mats: tuple[Matrix, ...]  # basis of the Lie closure
    derived_dim: int  # dim [g, g], a lower bound for the nilradical


@dataclass(frozen=True)
class SuspensionInput:
    table: tuple  # structure constants table[i][j] -> vector
    flow: tuple  # one flow vector
    stable: int
    unstable: int


def random_solvable(rng: random.Random, dim: int) -> SolvableInput:
    """Lie closure of 2 or 3 random upper-triangular 3x3 integer matrices.

    Draws are rejected until the closure has exactly `dim` dimensions, so
    the workload can fix its mix of sizes while the seed picks the draws.
    """
    while True:
        gens = []
        for _ in range(rng.choice([2, 3])):
            m = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    m[i][j] = rng.randint(-2, 2)
            gens.append(tuple(tuple(r) for r in m))
        ech = Echelon()
        basis = [m for m in gens if ech.add(_flat(m))]
        work = list(basis)
        while work and len(basis) <= dim:
            a = work.pop()
            for b in list(basis):
                c = commutator(a, b)
                if ech.add(_flat(c)):
                    basis.append(c)
                    work.append(c)
        if len(basis) == dim:
            return SolvableInput(tuple(_rational(m) for m in basis), derived_dim(basis))


def random_suspension(rng: random.Random, kind: str) -> SuspensionInput:
    """Nilpotent-by-abelian action datum that is Anosov by construction.

    The ambient algebra is N x| span(T), N the Heisenberg algebra
    (kind "heis") or abelian Q^m (kind "ab<m>"), and T acts by an
    invertible diagonal derivation with nonzero integer weights, so the
    stable and unstable dimensions are the numbers of negative and
    positive weights.
    """
    heis = kind == "heis"
    if heis:
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if a and b and a + b:
                break
        weights = [a, b, a + b]
    else:
        weights = []
        for _ in range(int(kind[2:])):
            w = 0
            while w == 0:
                w = rng.randint(-3, 3)
            weights.append(w)
    m = len(weights)
    n = m + 1

    def unit(k: int, c: int) -> tuple[Fraction, ...]:
        return tuple(F(c) if r == k else F(0) for r in range(n))

    zero = tuple(F(0) for _ in range(n))
    t = [[zero] * n for _ in range(n)]
    if heis:
        t[0][1] = unit(2, 1)
        t[1][0] = unit(2, -1)
    for i, w in enumerate(weights):
        t[m][i] = unit(i, w)
        t[i][m] = unit(i, -w)
    return SuspensionInput(
        tuple(tuple(r) for r in t),
        (unit(m, 1),),
        sum(1 for w in weights if w < 0),
        sum(1 for w in weights if w > 0),
    )


# -- semisimple-ladder ------------------------------------------------------------


def _unit_matrix(n: int, entries: dict) -> Matrix:
    return tuple(
        tuple(F(entries.get((r, c), 0)) for c in range(n)) for r in range(n)
    )


def sl_basis(n: int) -> tuple[Matrix, ...]:
    """sl(n, R): diagonal differences first, then the elementary matrices."""
    diag = [_unit_matrix(n, {(i, i): 1, (i + 1, i + 1): -1}) for i in range(n - 1)]
    off = [_unit_matrix(n, {(i, j): 1}) for i in range(n) for j in range(n) if i != j]
    return tuple(diag + off)


def sp_basis(m: int) -> tuple[Matrix, ...]:
    """sp(2m, R) as [[A, B], [C, -A^T]] with B and C symmetric."""
    n = 2 * m
    pairs = [(i, i) for i in range(m)] + [(i, j) for i in range(m) for j in range(m) if i != j]
    gl = [_unit_matrix(n, {(i, j): 1, (m + j, m + i): -1}) for i, j in pairs]
    upper, lower = [], []
    for i in range(m):
        for j in range(i, m):
            if i == j:
                upper.append(_unit_matrix(n, {(i, m + i): 1}))
                lower.append(_unit_matrix(n, {(m + i, i): 1}))
            else:
                upper.append(_unit_matrix(n, {(i, m + j): 1, (j, m + i): 1}))
                lower.append(_unit_matrix(n, {(m + i, j): 1, (m + j, i): 1}))
    return tuple(gl + upper + lower)


def positive_roots_a(rank: int) -> list[tuple[int, ...]]:
    """A_rank positive roots in simple-root coordinates."""
    return [
        tuple(1 if i <= k <= j else 0 for k in range(rank))
        for i in range(rank)
        for j in range(i, rank)
    ]


def positive_roots_b3() -> list[tuple[int, ...]]:
    """B3 positive roots in simple-root coordinates (alpha_3 short)."""
    return [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (0, 1, 2), (1, 1, 2), (1, 2, 2),
    ]


def sl_element(d) -> tuple[Fraction, ...]:
    """Coordinates of diag(d), trace zero, in `sl_basis(len(d))`."""
    n = len(d)
    head = list(itertools.accumulate(d))[: n - 1]
    return tuple(F(x) for x in head) + (F(0),) * (n * n - n)


def sp_element(d) -> tuple[Fraction, ...]:
    """Coordinates of diag(d, -d) in `sp_basis(len(d))`."""
    m = len(d)
    return tuple(F(x) for x in d) + (F(0),) * (2 * m * m)


def sl_elements(rng: random.Random, n: int):
    """A regular and a singular diagonal element, moved by a seeded Weyl element.

    The Weyl group of sl(n) permutes diagonal entries, so every seed gets
    elements of the same size: distinct entries n-1, n-3, ..., 1-n for the
    regular one, and a repeated entry for the singular one.
    """
    regular = rng.sample(range(n - 1, -n, -2), n)
    singular = rng.sample([1, 1, -2] + [0] * (n - 3), n)
    return sl_element(regular), sl_element(singular)


def sp_elements(rng: random.Random, m: int):
    """As `sl_elements` for sp(2m), whose Weyl group acts by signed permutations."""

    def signed(vals):
        return [rng.choice([-1, 1]) * v for v in rng.sample(vals, m)]

    return sp_element(signed(range(m, 0, -1))), sp_element(signed([1] * m))


def shuffled_roots(rng: random.Random, positive: list[tuple[int, ...]]):
    """Positive roots in seeded order, each listed with a seeded sign.

    Order and signs change the enumeration order of the sign vectors but
    not the arrangement, so the chamber count stays |W|.
    """
    roots = []
    for v in positive:
        sign = rng.choice([-1, 1])
        roots.append(tuple(F(sign * x) for x in v))
    rng.shuffle(roots)
    return roots


# -- digest -----------------------------------------------------------------------


def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _plain(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering of generated inputs."""
    text = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
