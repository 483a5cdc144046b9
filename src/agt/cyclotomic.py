"""Exact arithmetic in cyclotomic fields with decidable real sign.

Elements of Q(zeta_N) are coefficient tuples over the power basis
1, zeta, ..., zeta^(phi(N)-1), with rational coefficients reduced mod
the N-th cyclotomic polynomial.  Representation in this basis is
unique, so the zero test is exact; the sign of a (real) element is
decided by rigorous interval evaluation at increasing precision, which
terminates because nonzero elements are bounded away from zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

import mpmath

from .errors import IntegrityError, UsageError

Element = tuple[Fraction, ...]


def _cyclotomic_poly(n: int, _memo: dict[int, list[int]] = {}) -> list[int]:
    """Integer coefficients of the n-th cyclotomic polynomial (ascending)."""
    if n in _memo:
        return _memo[n]
    # x^n - 1 divided by the cyclotomic polynomials of proper divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic_poly(d))
    _memo[n] = poly
    return poly


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert all(c == 0 for c in num)
    return out


class CyclotomicField:
    """Q(zeta_N) with exact field operations on coefficient tuples."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise UsageError("conductor must be positive")
        self.conductor = conductor
        poly = _cyclotomic_poly(conductor)
        self.degree = len(poly) - 1
        # zeta^k for k = degree, degree + 1, ...; _power_reduction extends it
        self._reductions = [tuple(Fraction(-c, poly[-1]) for c in poly[:-1])]
        self.zero: Element = tuple([Fraction(0)] * self.degree)
        self.one: Element = self.from_rational(Fraction(1))

    def from_rational(self, q) -> Element:
        out = [Fraction(0)] * self.degree
        out[0] = Fraction(q)
        return tuple(out)

    def root_of_unity(self, k: int) -> Element:
        """zeta_N^k as an element."""
        k %= self.conductor
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return self._reduce(coeffs)

    def _reduce(self, coeffs: list[Fraction]) -> Element:
        out = list(coeffs[: self.degree])
        out.extend([Fraction(0)] * (self.degree - len(out)))
        for k in range(self.degree, len(coeffs)):
            c = coeffs[k]
            if c:
                red = self._power_reduction(k)
                for i, r in enumerate(red):
                    out[i] += c * r
        return tuple(out)

    def _power_reduction(self, k: int) -> tuple[Fraction, ...]:
        # zeta^k as basis coefficients, for k >= degree
        idx = k - self.degree
        while idx >= len(self._reductions):
            base, prev = self._reductions[0], self._reductions[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            top = prev[-1]
            self._reductions.append(tuple(s + top * b for s, b in zip(shifted, base)))
        return self._reductions[idx]

    # -- arithmetic ----------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def scale(self, q, a: Element) -> Element:
        q = Fraction(q)
        return tuple(q * x for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        n = self.degree
        conv = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return self._reduce(conv)

    def conjugate(self, a: Element) -> Element:
        """Complex conjugation: zeta^j -> zeta^(N-j)."""
        coeffs = [Fraction(0)] * self.conductor
        for j, c in enumerate(a):
            if c:
                coeffs[(-j) % self.conductor] += c
        return self._reduce(coeffs)

    def is_zero(self, a: Element) -> bool:
        return not any(a)

    def is_rational(self, a: Element) -> bool:
        return not any(a[1:])

    def is_real(self, a: Element) -> bool:
        return self.conjugate(a) == a

    # -- values --------------------------------------------------------

    def cos_pi_over(self, m: int) -> Element:
        """cos(pi/m), requires 2m | N."""
        if m < 1 or self.conductor % (2 * m) != 0:
            raise UsageError(f"conductor {self.conductor} does not contain cos(pi/{m})")
        k = self.conductor // (2 * m)
        val = self.add(self.root_of_unity(k), self.root_of_unity(-k))
        return self.scale(Fraction(1, 2), val)

    def sign(self, a: Element) -> int:
        """Sign of a real element: exact zero test first, then rigorous
        interval evaluation at increasing precision."""
        if self.is_zero(a):
            return 0
        if self.is_rational(a):
            q = a[0]
            return -1 if q < 0 else 1
        if not self.is_real(a):
            raise UsageError("sign of a non-real element")
        n = self.conductor
        iv = mpmath.iv
        old_prec = iv.prec
        prec = 64
        try:
            while prec <= 1 << 16:
                iv.prec = prec
                total = iv.mpf(0)
                two_pi = 2 * iv.pi
                for j, c in enumerate(a):
                    if c:
                        coef = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                        total += coef * iv.cos(two_pi * j / n)
                if total.a > 0:
                    return 1
                if total.b < 0:
                    return -1
                prec *= 2
        finally:
            iv.prec = old_prec
        raise IntegrityError("sign determination did not converge")

    def format_element(self, a: Element) -> str:
        """Readable exact form as a polynomial in z = exp(2*pi*i/N)."""
        if self.is_zero(a):
            return "0"
        parts = []
        for j, c in enumerate(a):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                z = "z" if j == 1 else f"z^{j}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def conductor_for(orders: Sequence[int]) -> int:
    """lcm of 2m over the relation orders m, at least 2; 0 (an infinite
    order) is skipped, and 1 only adds a factor 2."""
    n = 1
    for m in orders:
        if m:
            n = n * (2 * m) // gcd(n, 2 * m)
    return max(n, 2)
