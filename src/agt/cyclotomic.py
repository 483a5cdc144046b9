"""Exact arithmetic in the ring Z[t], t = 2cos(2*pi/N), with an exact sign.

The Chebyshev polynomials C_0 = 2, C_1 = x, C_{k+1} = x*C_k - C_{k-1}
have integer coefficients and C_k(2cos a) = 2cos(ka), so
2cos(pi/m) = C_{N/(2m)}(t) lies in the ring when 2m divides N (for
m <= 3 it is an integer, so any N holds it).  The
minimal polynomial Psi_N of t is monic with integer coefficients, of
degree d = phi(N)/2 (d = 1 for N <= 2): for N >= 3 the cyclotomic
polynomial Phi_N is palindromic and z^(-phi/2) * Phi_N(z) =
Psi_N(z + 1/z).  An element is a tuple of d ints, its coordinates over
1, t, ..., t^(d-1), reduced modulo Psi_N.  The representation is unique,
so the zero test is exact; ``CyclotomicField.sign`` is exact too.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import UsageError

Element = tuple[int, ...]


@functools.cache
def _cyclotomic_poly(n: int) -> list[int]:
    """Integer coefficients of the n-th cyclotomic polynomial (ascending):
    x^n - 1 divided by the cyclotomic polynomials of the proper divisors
    of n, which are monic."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_poly(d)
            quotient = [0] * (len(poly) - len(den) + 1)
            for i in reversed(range(len(quotient))):
                quotient[i] = q = poly[i + len(den) - 1]
                for j, c in enumerate(den):
                    poly[i + j] -= q * c
            poly = quotient
    return poly


def _chebyshev(k: int) -> list[int]:
    """Coefficients of C_k (ascending)."""
    prev, cur = [2], [0, 1]
    for _ in range(k):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return prev


def _bisect(psi: list[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The half of [lo, hi] that holds t, when t is the only root of Psi_N
    in [lo, hi].  t is the largest real root of the monic Psi_N, whose
    roots are simple, so Psi_N < 0 on [lo, t) and > 0 on (t, hi]; Psi_N
    has no rational root when d > 1, so it is never 0 at the midpoint."""
    mid = (lo + hi) / 2
    return (mid, hi) if sum(c * mid**i for i, c in enumerate(psi)) < 0 else (lo, mid)


@functools.cache
def _theta(n: int) -> tuple[list[int], tuple[Fraction, Fraction] | None]:
    """Psi_N (ascending), and for d > 1 a bracket of t of width at most
    2^-50.

    d > 1 needs phi(N) >= 4, so N >= 5.  Bisection starts from
    [2 - (2 * 355/113 / N)^2, 2], inside [0, 2].  It holds t, since
    355/113 > pi and 2cos(x) >= 2 - x^2.  It holds no other root of
    Psi_N: those are 2cos(2*pi*k/N) for k coprime to N, 1 < k <= N/2,
    all at most 2cos(2x) = 2 - 4sin(x)^2 with x = 2*pi/N <= 2*pi/5, and
    there sin(x)/x >= 0.75, so 4sin(x)^2 > 2.2 x^2 > (2 * 355/113 / N)^2.
    """
    if n <= 2:
        return [-2 if n == 1 else 2, 1], None  # t = 2 or -2
    phi = _cyclotomic_poly(n)
    h = (len(phi) - 1) // 2
    # z^-h Phi_N(z) = phi[h] + sum over j >= 1 of phi[h+j] (z^j + z^-j)
    psi = [phi[h]] + [0] * h
    for j in range(1, h + 1):
        for i, c in enumerate(_chebyshev(j)):
            psi[i] += phi[h + j] * c
    if h == 1:
        return psi, None
    lo, hi = 2 - Fraction(710, 113 * n) ** 2, Fraction(2)
    while hi - lo > Fraction(1, 2**50):
        lo, hi = _bisect(psi, lo, hi)
    return psi, (lo, hi)


class CyclotomicField:
    """Z[t], t = 2cos(2*pi/N): the real subring of Z[zeta_N] that holds
    every Coxeter root, with exact operations on int tuples."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise UsageError("conductor must be positive")
        self.conductor = conductor
        self.modulus, self._bracket = _theta(conductor)
        d = self.degree = len(self.modulus) - 1
        self.zero: Element = (0,) * d
        self.one: Element = self.from_int(1)
        if self._bracket is not None:
            lo, hi = self._bracket
            # |t - _t| <= delta: delta covers the half-width and the rounding of mid
            self._t = float((lo + hi) / 2)
            delta = float(hi - lo) + 2.0**-52
            self._weights = tuple(d * 2.0 ** (i - 50) + delta * i * 2.0**i for i in range(d))

    def from_int(self, q: int) -> Element:
        return (q,) + self.zero[1:]

    def _reduce(self, coeffs: list[int]) -> Element:
        """coeffs (ascending, in t) modulo the monic Psi_N."""
        psi, d = self.modulus, self.degree
        coeffs = coeffs + [0] * (d - len(coeffs))
        for k in range(len(coeffs) - 1, d - 1, -1):
            if c := coeffs[k]:
                for j in range(d):
                    coeffs[k - d + j] -= c * psi[j]
        return tuple(coeffs[:d])

    def add(self, a: Element, b: Element) -> Element:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, q: int, a: Element) -> Element:
        return tuple(q * x for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self._reduce(conv)

    def conjugate(self, a: Element) -> Element:
        """Complex conjugation, which fixes every element of this real ring."""
        return a

    def is_zero(self, a: Element) -> bool:
        return not any(a)

    def two_cos_pi_over(self, m: int) -> Element:
        """2cos(pi/m): the integers -2, 0 and 1 for m = 1, 2, 3, else
        C_{N/(2m)}(t), which requires 2m | N."""
        if m in (1, 2, 3):
            return self.from_int((-2, 0, 1)[m - 1])
        if m < 1 or self.conductor % (2 * m) != 0:
            raise UsageError(f"conductor {self.conductor} does not contain cos(pi/{m})")
        return self._reduce(_chebyshev(self.conductor // (2 * m)))

    def sign(self, a: Element) -> int:
        """Sign of p(t) for p(x) = sum a_i x^i, exact.

        An integer is its own sign.  Otherwise d > 1, so 0 < t < 2, and
        a float evaluation decides first.  Let u = 2^-53 and
        |t - _t| <= delta, 0 <= _t <= 2.  Horner's rule in doubles, each
        a_i rounded once, gives s with |s - p(_t)| <= gamma_{2d-1} *
        sum |a_i| 2^i, where gamma_n = n*u / (1 - n*u) <= 4d*u (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2002, eq. 5.3
        and lemma 3.3).  By the mean value theorem |p(_t) - p(t)| <=
        delta * sum i |a_i| 2^(i-1).  So |s - p(t)| <= sum |a_i| w_i with
        w_i = 4d*u * 2^i + delta * i * 2^(i-1).  ``_weights`` holds 2 w_i,
        which covers the rounding in summing the bound; when |s| exceeds
        that sum, s has the sign of p(t).  Otherwise ``_exact_sign``
        decides.
        """
        if not any(a[1:]):
            return (a[0] > 0) - (a[0] < 0)
        s = 0.0
        for c in reversed(a):
            s = s * self._t + c
        if abs(s) > sum(abs(c) * w for c, w in zip(a, self._weights)):
            return 1 if s > 0 else -1
        return self._exact_sign(a)

    def _exact_sign(self, a: Element) -> int:
        """Sign of a non-integer p(t) with ``Fraction``s: bisect the
        bracket [lo, hi] of t until |p(mid)| > L * (hi - lo) / 2, where
        L = sum i |a_i| 2^(i-1) bounds |p'| on [0, 2].  Then p has no
        root in [lo, hi], so p(t) has the sign of p(mid).  The loop ends:
        p(t) != 0, as p is nonzero of degree below deg Psi_N, and the
        bracket shrinks to t.  The ring keeps the shrunk bracket."""
        lipschitz = sum(i * abs(c) << (i - 1) for i, c in enumerate(a) if i)
        lo, hi = self._bracket
        while True:
            mid = (lo + hi) / 2
            v = sum(c * mid**i for i, c in enumerate(a))
            if 2 * abs(v) > lipschitz * (hi - lo):
                self._bracket = lo, hi
                return 1 if v > 0 else -1
            lo, hi = _bisect(self.modulus, lo, hi)

    def format_element(self, a: Element) -> str:
        """An integer polynomial in t = 2cos(2*pi/N), lowest power first."""
        terms = []
        for j, c in enumerate(a):
            if c:
                t = "t" if j == 1 else f"t^{j}"
                terms.append(str(c) if j == 0 else t if c == 1 else f"-{t}" if c == -1 else f"{c}*{t}")
        return " + ".join(terms).replace("+ -", "- ") or "0"


def conductor_for(orders: Sequence[int]) -> int:
    """lcm of 2m over the relation orders m >= 4, at least 2: 2cos(pi/m)
    is an integer for m = 1, 2, 3, and 0 (an infinite order) needs none."""
    n = 1
    for m in orders:
        if m >= 4:
            n = n * (2 * m) // gcd(n, 2 * m)
    return max(n, 2)
