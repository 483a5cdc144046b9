import math

import pytest

from agt.cyclotomic import CyclotomicField, _chebyshev, _cyclotomic_poly, _theta, conductor_for
from agt.errors import UsageError

from oracles import as_integer


def test_cyclotomic_polynomials():
    assert _cyclotomic_poly(1) == [-1, 1]
    assert _cyclotomic_poly(2) == [1, 1]
    assert _cyclotomic_poly(3) == [1, 1, 1]
    assert _cyclotomic_poly(6) == [1, -1, 1]
    assert _cyclotomic_poly(8) == [1, 0, 0, 0, 1]
    assert _cyclotomic_poly(12) == [1, 0, -1, 0, 1]


def test_theta_polynomials():
    # minimal polynomials of 2cos(2pi/N), ascending
    assert _theta(1)[0] == [-2, 1]
    assert _theta(2)[0] == [2, 1]
    assert _theta(3)[0] == [1, 1]
    assert _theta(4)[0] == [0, 1]
    assert _theta(5)[0] == [-1, 1, 1]
    assert _theta(6)[0] == [-1, 1]
    assert _theta(7)[0] == [-1, -2, 1, 1]
    assert _theta(8)[0] == [-2, 0, 1]
    assert _theta(9)[0] == [1, -3, 0, 1]
    assert _theta(10)[0] == [-1, -1, 1]
    assert _theta(12)[0] == [-3, 0, 1]
    # degree phi(N)/2; the roots are 2cos(2pi k/N) for k coprime to N
    for n in range(3, 60):
        psi = _theta(n)[0]
        assert 2 * (len(psi) - 1) == len(_cyclotomic_poly(n)) - 1
        size = sum(abs(c) * 2**i for i, c in enumerate(psi))
        for k in range(1, n // 2 + 1):
            value = sum(c * (2 * math.cos(2 * math.pi * k / n)) ** i for i, c in enumerate(psi))
            assert (abs(value) < 1e-12 * size) == (math.gcd(k, n) == 1), (n, k)


def test_chebyshev_polynomials():
    assert _chebyshev(0) == [2]
    assert _chebyshev(1) == [0, 1]
    assert _chebyshev(2) == [-2, 0, 1]
    assert _chebyshev(3) == [0, -3, 0, 1]
    for k in range(12):
        x = 2 * math.cos(0.3)
        assert sum(c * x**i for i, c in enumerate(_chebyshev(k))) == pytest.approx(
            2 * math.cos(0.3 * k), abs=1e-9
        )


def test_conductor_for():
    assert conductor_for([]) == 2
    assert conductor_for([1, 2, 3]) == 2  # 2cos(pi/m) is an integer for m <= 3
    assert conductor_for([3, 4]) == 8
    assert conductor_for([0, 5]) == 10  # 0 encodes infinity, contributes nothing
    assert conductor_for([2, 3, 7]) == 14


def test_rational_cosine():
    # 2cos(pi/m) for m <= 3 is in every ring, also where 2m does not divide N
    for conductor in (2, 6, 10):
        F = CyclotomicField(conductor)
        for m, value in [(1, -2), (2, 0), (3, 1)]:
            c = F.two_cos_pi_over(m)
            assert as_integer(F, c) == value


def test_sqrt_two_squares_to_two():
    F = CyclotomicField(8)
    root2 = F.two_cos_pi_over(4)
    sq = F.mul(root2, root2)
    assert as_integer(F, sq) == 2
    assert F.sign(root2) == 1


def test_golden_ratio_identity():
    # 2cos(pi/5) satisfies x^2 = x + 1
    F = CyclotomicField(10)
    phi = F.two_cos_pi_over(5)
    assert F.mul(phi, phi) == F.add(phi, F.one)
    assert F.sign(F.sub(phi, F.one)) == 1  # phi > 1


def test_field_axioms_spot_checks():
    F = CyclotomicField(24)
    a = F.two_cos_pi_over(6)
    b = F.two_cos_pi_over(4)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.mul(a, F.add(b, F.one)), F.zero) == F.add(F.mul(a, b), a)
    assert F.sub(a, a) == F.zero


def test_conjugation_fixes_every_element():
    F = CyclotomicField(8)
    root2 = F.two_cos_pi_over(4)
    assert F.conjugate(root2) == root2
    assert F.conjugate(F.add(root2, F.one)) == F.add(root2, F.one)


def test_sign_near_zero_values():
    # cos(pi/12) - cos(pi/12) exactly zero; tiny but nonzero differences decided
    F = CyclotomicField(24)
    a = F.two_cos_pi_over(12)
    assert F.sign(F.sub(a, a)) == 0
    b = F.two_cos_pi_over(4)
    assert F.sign(F.sub(a, b)) == 1  # cos decreasing: pi/12 < pi/4


def test_sign_of_fibonacci_differences(monkeypatch):
    """t = 2cos(2pi/10) is the golden ratio g, and by Binet's formula
    F_{n+1} - F_n g = (1 - g)^n, of sign (-1)^n and size 0.618^n.  From
    n = 35 on the float evaluation cannot decide, so the exact path
    must, and its answers follow the alternation."""
    F = CyclotomicField(10)
    exact = []
    original = CyclotomicField._exact_sign
    monkeypatch.setattr(
        CyclotomicField, "_exact_sign", lambda self, a: exact.append(a) or original(self, a)
    )
    fib = [0, 1]
    while len(fib) < 202:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 200):
        assert F.sign((fib[n + 1], -fib[n])) == (-1) ** n, n
        assert F.sign((-fib[n + 1], fib[n])) == -((-1) ** n), n
    assert len(exact) > 100
    assert all(abs(a[0]) > 10**6 for a in exact)  # only values near 0 went exact


def test_exact_sign_shares_the_bracket():
    F = CyclotomicField(10)
    width = F._bracket[1] - F._bracket[0]
    assert F._exact_sign((2 * 10**30, -(10**30))) == 1  # 2 - g, far from 0
    assert F._bracket[1] - F._bracket[0] == width  # decided without bisecting
    fib = [0, 1]
    while len(fib) < 82:
        fib.append(fib[-1] + fib[-2])
    assert F._exact_sign((fib[81], -fib[80])) == 1  # (1 - g)^80
    narrowed = F._bracket[1] - F._bracket[0]
    assert narrowed < width
    assert F._exact_sign((fib[80], -fib[79])) == -1  # (1 - g)^79
    assert F._bracket[1] - F._bracket[0] <= narrowed
    fresh = CyclotomicField(10)  # a new ring starts from the wide bracket
    assert fresh._bracket[1] - fresh._bracket[0] == width


def test_cos_requires_conductor():
    F = CyclotomicField(6)
    with pytest.raises(UsageError):
        F.two_cos_pi_over(4)
