"""Polynomials over Q and exact root location by half-plane.

The counting machinery is Sturm-chain based throughout:

* real roots via classical Sturm sequences,
* imaginary-axis roots of p via the real/imaginary parts of p(iy),
* left/right half-plane counts via the Cauchy index of that same pair
  (a Routh-Hurwitz count that stays exact in degenerate cases).

The axis factor of a rational polynomial is generally *not* rational
(p = t^4 - 2 has axis roots +-i 2^(1/4)), so nothing here ever tries to
split off axis roots by polynomial division.  It need not: common factors
of the real and imaginary parts of f(iy) cancel in the Cauchy index, and
they carry exactly the axis roots and the pairs lambda, -conj(lambda),
one root of each pair on either side.  So for squarefree f with n0 axis
roots the index is still n_neg - n_pos, and n_neg = (n - n0 + index) / 2
(the singular case of the Routh-Hurwitz theorem; Gantmacher, *The Theory
of Matrices*, vol. II, ch. XV).  The last member of that chain is the
gcd of the pair, so one chain gives both the index and the axis roots.

Every count, gcd and shift runs on primitive integer coefficient lists
(ascending, like `RationalPolynomial.coeffs`); `Fraction` appears only
where a `RationalPolynomial` comes in or goes out.  Three facts keep the
answers exact:

* Multiplying members of a remainder chain by positive constants changes
  no sign anywhere, so the sign variations at every point, the Sturm
  counts and the Cauchy index stay the same.  Remainders are therefore
  pseudo-remainders with a positive multiplier (the divisor is negated
  first when its leading coefficient is negative, which does not change
  the remainder), divided by their positive content: the primitive
  polynomial remainder sequence (Collins 1967; Brown & Traub 1971).
* A gcd is only defined up to a constant.  Quotients by a primitive
  divisor of an integer polynomial are integer polynomials (Gauss's
  lemma), so Yun's algorithm runs on exact integer quotients, and gcds
  and factors are made monic when they are returned.
* A rational shift delta = a/b (b > 0) is taken as b^n f((s + a)/b), an
  integer Taylor shift.  Its roots are b (lambda - delta): the roots of
  f(t + delta) scaled by b > 0, which keeps the sign of every real part,
  so the half-plane counts of f(t + delta) are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .linalg import frac, integer_row, primitive

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalPolynomial:
    """Dense polynomial with exact rational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- basics ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPolynomial({list(self.coeffs)})"

    def __call__(self, x: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RationalPolynomial(
            [x + (b[i] if i < len(b) else _ZERO) for i, x in enumerate(a)]
        )

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "RationalPolynomial"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        q = [_ZERO] * max(len(rem) - d, 0)
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPolynomial(q), RationalPolynomial(rem)

    def __mod__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[0]

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        inv = _ONE / self.leading
        return RationalPolynomial([c * inv for c in self.coeffs])


# -- integer kernel: coefficient lists, ascending, no trailing zeros -------


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _difference(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _trim([x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _monic(cs: list[int]) -> RationalPolynomial:
    """The monic rational polynomial proportional to cs (zero stays zero)."""
    return RationalPolynomial([Fraction(c, cs[-1]) for c in cs] if cs else [])


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a positive integer (b nonzero)."""
    if b[-1] < 0:
        b = [-c for c in b]
    lb, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        k = len(r) - 1 - db
        g = gcd(r[-1], lb)
        m, q = lb // g, r[-1] // g
        if m != 1:
            r = [m * c for c in r]
        for i in range(db):
            r[k + i] -= q * b[i]
        r.pop()
        _trim(r)
    return r


def _remainder_chain(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed remainder chain a, b, -rem(a, b), ... to its last nonzero member.

    Each member from the third on is primitive and a positive multiple of
    the member of the chain over Q; the last member is a gcd of a and b.
    """
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, [-c for c in primitive(_prem(a, b))]
    return chain


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials; zero when both are zero."""
    return primitive(_remainder_chain(a, b)[-1])


def _product(a: list[int], b: list[int]) -> list[int]:
    """a * b for integer polynomials a, b."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a multiple a of a primitive b: an integer polynomial."""
    lb, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], lb)
        if rest:
            raise ArithmeticError("polynomial division is not exact")
        q[k] = c
        for i in range(db + 1):
            r[k + i] -= c * b[i]
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return q


# the prime of `_squarefree`'s modular test, a Mersenne prime
_SQUAREFREE_PRIME = 2**31 - 1


def _squarefree(cs: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(f, f', g) for a nonconstant integer cs: g = gcd(cs, cs'), f = cs / g.

    f is the squarefree part of cs; when g is a constant, f = cs and
    g = [1].  The gcd over Z is skipped when cs and cs' are coprime modulo
    a prime P not dividing cs's leading coefficient: a common factor of
    positive degree would keep its degree modulo P.
    """
    dcs = _derivative(cs)
    p = _SQUAREFREE_PRIME
    if cs[-1] % p and _coprime_mod(cs, dcs, p):
        return cs, dcs, [1]
    g = _gcd(cs, dcs)
    if len(g) == 1:
        return cs, dcs, [1]
    f = _exact_quotient(cs, g)
    return f, _derivative(f), g


def _coprime_mod(a: list[int], b: list[int], p: int) -> bool:
    """Whether a and b are coprime modulo the prime p, by Euclid over F_p."""
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a.pop() * inv % p
            k = len(a) - len(b) + 1
            for i in range(len(b) - 1):
                a[k + i] = (a[k + i] - q * b[i]) % p
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _yun(cs: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on integers: [(f_k, k)] for the nonconstant f_k, degree >= 1."""
    b, db, a = _squarefree(cs)
    d = _difference(_exact_quotient(_derivative(cs), a), db)
    out: list[tuple[list[int], int]] = []
    k = 1
    while len(b) > 1:
        f = _gcd(b, d)
        if len(f) > 1:
            out.append((f, k))
        b2 = _exact_quotient(b, f)
        d = _difference(_exact_quotient(d, f), _derivative(b2))
        b = b2
        k += 1
    return out


def _scaled_shift(cs: list[int], a: int, b: int) -> list[int]:
    """b^n f((s + a)/b) for f = cs of degree n and b > 0.

    Scale the coefficients to b^(n-i) c_i, then Taylor-shift by the
    integer a (Horner rows, O(n^2) integer additions).
    """
    n = len(cs) - 1
    out = [c * b ** (n - i) for i, c in enumerate(cs)]
    if a:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                out[j] += a * out[j + 1]
    return out


# -- sign variations and Sturm counts ------------------------------------


def _variations(values: Sequence[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _index(chain: list[list[int]]) -> int:
    """V(-oo) - V(+oo) over a remainder chain of nonzero members."""
    plus = [c[-1] for c in chain]
    minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _variations(minus) - _variations(plus)


def _cauchy_index(a: list[int], b: list[int]) -> int:
    if not a or not b:
        return 0
    if len(b) >= len(a):
        b = primitive(_prem(b, a))
        if not b:
            return 0
    return _index(_remainder_chain(a, b))


def _real_root_count(cs: list[int]) -> int:
    """Distinct real roots of cs: the Cauchy index of cs'/cs."""
    return _cauchy_index(cs, _derivative(cs))


def count_real_roots_squarefree(f: RationalPolynomial) -> int:
    """Distinct real roots of a squarefree f, whole line."""
    return _real_root_count(integer_row(f.coeffs))


def root_bound(p: RationalPolynomial) -> Fraction:
    """Cauchy bound: every complex root has |z| < this."""
    if p.degree <= 0:
        return _ONE
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else _ZERO
    return _ONE + m / lead


def _ceil_log2(num: int, den: int) -> int:
    """Least integer e with 2^e >= num / den, for num, den > 0."""
    e = num.bit_length() - den.bit_length()  # 2^(e-1) < num/den < 2^(e+1)
    within = num <= den << e if e >= 0 else num << -e <= den
    return e if within else e + 1


def _root_exponent(cs: list[int]) -> int | None:
    """The exponent of `power_of_two_root_bound` for integer cs; None for 0."""
    n = len(cs) - 1
    exponents = [
        -(-_ceil_log2(abs(cs[n - j]), abs(cs[n]) * (2 if j == n else 1)) // j)
        for j in range(1, n + 1)
        if cs[n - j]
    ]
    return max(exponents) + 1 if exponents else None


def power_of_two_root_bound(p: RationalPolynomial) -> Fraction:
    """Least power of two B at or above Fujiwara's bound: every root has |z| <= B.

    Fujiwara (1916): |z| <= 2 max(|a_{n-1}/a_n|, |a_{n-2}/a_n|^(1/2), ...,
    |a_1/a_n|^(1/(n-1)), |a_0/(2 a_n)|^(1/n)).  B = 2^(t+1) for the least
    integer t with 2^(t j) >= |a_{n-j}/a_n| for every j (a_0 halved).  Zero
    when every root is zero.
    """
    e = _root_exponent(integer_row(p.coeffs))
    return _ZERO if e is None else Fraction(2) ** e


# -- gcd and squarefree decomposition ------------------------------------


def squarefree_part(p: RationalPolynomial) -> RationalPolynomial:
    if p.degree <= 0:
        return p.monic()
    return _monic(_squarefree(integer_row(p.coeffs))[0])


# -- half-plane counting -------------------------------------------------


@dataclass(frozen=True)
class RootSignCount:
    """Counts of complex roots by sign of the real part, with multiplicity."""

    n_neg: int
    n_zero_real: int
    n_pos: int

    def __add__(self, other: "RootSignCount") -> "RootSignCount":
        return RootSignCount(
            self.n_neg + other.n_neg,
            self.n_zero_real + other.n_zero_real,
            self.n_pos + other.n_pos,
        )

    def scaled(self, k: int) -> "RootSignCount":
        return RootSignCount(k * self.n_neg, k * self.n_zero_real, k * self.n_pos)


def _axis_pair(cs: list) -> tuple[list, list]:
    """Real and imaginary part of f(iy) as coefficient lists in y."""
    re = [c * (1, 0, -1, 0)[j % 4] for j, c in enumerate(cs)]
    im = [c * (0, 1, 0, -1)[j % 4] for j, c in enumerate(cs)]
    return _trim(re), _trim(im)


def _axis_chain(cs: list[int]) -> list[list[int]]:
    """Remainder chain of the real and imaginary parts of f(iy).

    It starts at (Im, Re) for odd degree and at (Re, -Im) for even degree,
    so that its index is n_neg - n_pos (see _sign_counts).  Its last
    member is gcd(Re, Im), whose real roots y are the axis roots iy of f.
    """
    re, im = _axis_pair(cs)
    if len(cs) % 2 == 0:
        return _remainder_chain(im, re)
    return _remainder_chain(re, [-c for c in im])


def _sign_counts(cs: list[int]) -> RootSignCount:
    """(n_neg, n_zero_real, n_pos) for squarefree integer cs, from one axis chain."""
    n = len(cs) - 1
    if n <= 0:
        return RootSignCount(0, 0, 0)
    chain = _axis_chain(cs)
    # the real roots y of gcd(Re, Im) are the axis roots iy, each simple in f
    n0 = _real_root_count(chain[-1])
    if n0 == n:
        return RootSignCount(0, n, 0)
    # Routh-Hurwitz: the Cauchy index of the pair is n_neg - n_pos; the
    # orientation of the chain depends on the degree parity.  Axis roots and
    # pairs lambda, -conj(lambda) are common zeros of the pair and drop out
    # (see the module docstring).
    d = _index(chain)
    if (n - n0 + d) % 2 != 0:
        raise AssertionError("parity failure in Hurwitz index")
    n_neg = (n - n0 + d) // 2
    return RootSignCount(n_neg, n0, n - n0 - n_neg)


def squarefree_sign_counts(
    f: RationalPolynomial, shift: Fraction = _ZERO
) -> RootSignCount:
    """(n_neg, n_zero_real, n_pos) of squarefree f(t + shift), each root once.

    That is, the roots lambda of f by the sign of Re(lambda) - shift,
    counted on the integer shift b^n f((s + a)/b) for shift = a/b.
    """
    cs = integer_row(f.coeffs)
    shift = frac(shift)
    if shift and len(cs) > 1:
        cs = primitive(_scaled_shift(cs, shift.numerator, shift.denominator))
    return _sign_counts(cs)


def root_sign_counts(p: RationalPolynomial) -> RootSignCount:
    """Exact (n_neg, n_zero_real, n_pos) for the roots of p, multiplicity included."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    cs = integer_row(p.coeffs)
    total = RootSignCount(0, 0, 0)
    if len(cs) > 1:
        for f, k in _yun(cs):
            total = total + _sign_counts(f).scaled(k)
    return total
