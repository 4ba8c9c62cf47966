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
of Matrices*, vol. II, ch. XV).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import frac

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

    def shift(self, c: Fraction) -> "RationalPolynomial":
        """Compose with t + c, i.e. return p(t + c)."""
        c = frac(c)
        out = RationalPolynomial([])
        t_plus_c = RationalPolynomial([c, _ONE])
        for coeff in reversed(self.coeffs):
            out = out * t_plus_c + RationalPolynomial([coeff])
        return out

    def reflect(self) -> "RationalPolynomial":
        """Return p(-t)."""
        return RationalPolynomial(
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)]
        )


def poly(coeffs: Iterable) -> RationalPolynomial:
    return RationalPolynomial(coeffs)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over Q."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_part(p: RationalPolynomial) -> RationalPolynomial:
    if p.degree <= 0:
        return p.monic()
    return (p // poly_gcd(p, p.derivative())).monic()


def squarefree_decomposition(
    p: RationalPolynomial,
) -> list[tuple[RationalPolynomial, int]]:
    """Yun's algorithm: p = c * prod f_k^k with the f_k squarefree, coprime.

    Returns [(f_k, k)] for the nonconstant f_k only.
    """
    if p.degree <= 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    out: list[tuple[RationalPolynomial, int]] = []
    k = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        if f.degree > 0:
            out.append((f.monic(), k))
        b2 = b // f
        c2 = d // f
        d = c2 - b2.derivative()
        b = b2
        k += 1
    return out


# -- sign variations and Sturm machinery --------------------------------


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Sequence[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _sign_at_inf(p: RationalPolynomial, positive: bool) -> int:
    if p.is_zero:
        return 0
    s = _sign(p.leading)
    if not positive and p.degree % 2 == 1:
        s = -s
    return s


def sturm_chain(
    f: RationalPolynomial, g: RationalPolynomial
) -> list[RationalPolynomial]:
    chain = [f, g]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def cauchy_index(
    f: RationalPolynomial, g: RationalPolynomial
) -> int:
    """Cauchy index of g/f over the whole real line.

    Counts jumps of g/f from -oo to +oo minus jumps from +oo to -oo at the
    real poles.  Computed as V(-oo) - V(+oo) over the signed remainder
    chain started at (f, g).  The index only depends on g mod f, so g is
    reduced first when its degree is not already smaller.
    """
    if f.is_zero or g.is_zero:
        return 0
    if g.degree >= f.degree:
        g = g % f
        if g.is_zero:
            return 0
    chain = sturm_chain(f, g)
    vm = _variations([_sign_at_inf(p, positive=False) for p in chain])
    vp = _variations([_sign_at_inf(p, positive=True) for p in chain])
    return vm - vp


def count_real_roots_squarefree(f: RationalPolynomial) -> int:
    """Distinct real roots of a squarefree f, whole line."""
    if f.degree <= 0:
        return 0
    return cauchy_index(f, f.derivative())


def count_real_roots(p: RationalPolynomial) -> int:
    """Real roots of p counted with multiplicity."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    total = 0
    for f, k in squarefree_decomposition(p):
        total += k * count_real_roots_squarefree(f)
    return total


def _variations_at(chain: Sequence[RationalPolynomial], x: Fraction) -> int:
    return _variations([_sign(p(x)) for p in chain])


def count_real_roots_in_interval(
    f: RationalPolynomial, a: Fraction, b: Fraction
) -> int:
    """Distinct real roots of squarefree f in the open interval (a, b).

    Endpoints that are themselves roots are excluded by dividing them out.
    """
    a, b = frac(a), frac(b)
    if f.degree <= 0 or a >= b:
        return 0
    for r in (a, b):
        while f(r) == 0:
            f = f // RationalPolynomial([-r, _ONE])
    if f.degree <= 0:
        return 0
    chain = sturm_chain(f, f.derivative())
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(p: RationalPolynomial) -> Fraction:
    """Cauchy bound: every complex root has |z| < this."""
    if p.degree <= 0:
        return _ONE
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else _ZERO
    return _ONE + m / lead


def _ceil_log2(q: Fraction) -> int:
    """Least integer e with 2^e >= q, for q > 0."""
    num, den = q.numerator, q.denominator
    e = num.bit_length() - den.bit_length()  # 2^(e-1) < q < 2^(e+1)
    within = num <= den << e if e >= 0 else num << -e <= den
    return e if within else e + 1


def power_of_two_root_bound(p: RationalPolynomial) -> Fraction:
    """Least power of two B at or above Fujiwara's bound: every root has |z| <= B.

    Fujiwara (1916): |z| <= 2 max(|a_{n-1}/a_n|, |a_{n-2}/a_n|^(1/2), ...,
    |a_1/a_n|^(1/(n-1)), |a_0/(2 a_n)|^(1/n)).  B = 2^(t+1) for the least
    integer t with 2^(t j) >= |a_{n-j}/a_n| for every j (a_0 halved).  Zero
    when every root is zero.
    """
    n = p.degree
    exponents = []
    for j in range(1, n + 1):
        q = abs(p.coeffs[n - j] / p.leading) / (2 if j == n else 1)
        if q:
            exponents.append(-(-_ceil_log2(q) // j))
    return Fraction(2) ** (max(exponents) + 1) if exponents else _ZERO


def isolate_real_roots(
    f: RationalPolynomial,
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the real roots of squarefree f.

    Returns [(a, b)] sorted increasingly; an exact rational root r is
    returned as the degenerate pair (r, r).  Open intervals (a, b) contain
    exactly one root each and have nonroot endpoints.
    """
    if f.degree <= 0:
        return []
    bound = root_bound(f)
    out: list[tuple[Fraction, Fraction]] = []

    def emit(a: Fraction, b: Fraction) -> None:
        # Exactly one root lies in the open interval; shrink until both
        # endpoints are nonroots so downstream sign queries are safe.
        while f(a) == 0 or f(b) == 0:
            mid = (a + b) / 2
            if f(mid) == 0:
                out.append((mid, mid))
                return
            if count_real_roots_in_interval(f, a, mid) == 1:
                b = mid
            else:
                a = mid
        out.append((a, b))

    def _refine_open(a: Fraction, b: Fraction, k: int) -> None:
        # a or b may be an exact root; counts use the root-excluding helper.
        if k == 0:
            return
        mid = (a + b) / 2
        if f(mid) == 0:
            out.append((mid, mid))
            _refine_open(a, mid, count_real_roots_in_interval(f, a, mid))
            _refine_open(mid, b, count_real_roots_in_interval(f, mid, b))
            return
        kl = count_real_roots_in_interval(f, a, mid)
        kr = count_real_roots_in_interval(f, mid, b)
        if kl == 1:
            emit(a, mid)
        elif kl > 1:
            _refine_open(a, mid, kl)
        if kr == 1:
            emit(mid, b)
        elif kr > 1:
            _refine_open(mid, b, kr)

    total = count_real_roots_squarefree(f)
    _refine_open(-bound, bound, total)
    return sorted(out, key=lambda ab: ab[0])


# -- half-plane counting -------------------------------------------------


@dataclass(frozen=True)
class RootSignCount:
    """Counts of complex roots by sign of the real part, with multiplicity."""

    n_neg: int
    n_zero_real: int
    n_pos: int

    @property
    def total(self) -> int:
        return self.n_neg + self.n_zero_real + self.n_pos

    def __add__(self, other: "RootSignCount") -> "RootSignCount":
        return RootSignCount(
            self.n_neg + other.n_neg,
            self.n_zero_real + other.n_zero_real,
            self.n_pos + other.n_pos,
        )

    def scaled(self, k: int) -> "RootSignCount":
        return RootSignCount(k * self.n_neg, k * self.n_zero_real, k * self.n_pos)


def axis_parts(
    p: RationalPolynomial,
) -> tuple[RationalPolynomial, RationalPolynomial]:
    """Real and imaginary part of p(iy) as real polynomials in y."""
    re = [_ZERO] * len(p.coeffs)
    im = [_ZERO] * len(p.coeffs)
    for j, c in enumerate(p.coeffs):
        r = j % 4
        if r == 0:
            re[j] = c
        elif r == 1:
            im[j] = c
        elif r == 2:
            re[j] = -c
        else:
            im[j] = -c
    return RationalPolynomial(re), RationalPolynomial(im)


def axis_gcd(p: RationalPolynomial) -> RationalPolynomial:
    """gcd of the real and imaginary parts of p(iy): its real roots are p's axis roots."""
    re, im = axis_parts(p)
    if re.is_zero:
        return im.monic()
    if im.is_zero:
        return re.monic()
    return poly_gcd(re, im)


def axis_root_count_squarefree(f: RationalPolynomial) -> int:
    """Number of roots of squarefree f lying on the imaginary axis."""
    if f.degree <= 0:
        return 0
    g = axis_gcd(f)
    if g.degree <= 0:
        return 0
    return count_real_roots_squarefree(squarefree_part(g))


def _hurwitz_index(f: RationalPolynomial) -> int:
    """n_neg - n_pos for squarefree f.

    Routh-Hurwitz via the Cauchy index of the real/imaginary pair of
    f(iy); the orientation depends on the degree parity.  Axis roots and
    pairs lambda, -conj(lambda) are common zeros of the pair and drop out
    (see the module docstring).
    """
    re, im = axis_parts(f)
    if f.degree % 2 == 1:
        return cauchy_index(im, re)
    return -cauchy_index(re, im)


def squarefree_sign_counts(f: RationalPolynomial) -> RootSignCount:
    """(n_neg, n_zero_real, n_pos) for squarefree f: each distinct root once."""
    n = f.degree
    if n <= 0:
        return RootSignCount(0, 0, 0)
    n0 = axis_root_count_squarefree(f)
    if n0 == n:
        return RootSignCount(0, n, 0)
    d = _hurwitz_index(f)
    if (n - n0 + d) % 2 != 0:
        raise AssertionError("parity failure in Hurwitz index")
    n_neg = (n - n0 + d) // 2
    return RootSignCount(n_neg, n0, n - n0 - n_neg)


def root_sign_counts(p: RationalPolynomial) -> RootSignCount:
    """Exact (n_neg, n_zero_real, n_pos) for the roots of p, multiplicity included."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    total = RootSignCount(0, 0, 0)
    for f, k in squarefree_decomposition(p):
        total = total + squarefree_sign_counts(f).scaled(k)
    return total
