from fractions import Fraction

import pytest

from agt.cyclotomic import CyclotomicField, _cyclotomic_poly, conductor_for
from agt.errors import UsageError

from oracles import as_rational


def test_cyclotomic_polynomials():
    assert _cyclotomic_poly(1) == [-1, 1]
    assert _cyclotomic_poly(2) == [1, 1]
    assert _cyclotomic_poly(3) == [1, 1, 1]
    assert _cyclotomic_poly(6) == [1, -1, 1]
    assert _cyclotomic_poly(8) == [1, 0, 0, 0, 1]
    assert _cyclotomic_poly(12) == [1, 0, -1, 0, 1]


def test_conductor_for():
    assert conductor_for([]) == 2
    assert conductor_for([3]) == 6
    assert conductor_for([3, 4]) == 24
    assert conductor_for([0, 3]) == 6  # 0 encodes infinity, contributes nothing


def test_rational_cosine():
    F = CyclotomicField(6)
    c = F.cos_pi_over(3)
    assert F.is_rational(c)
    assert as_rational(F, c) == Fraction(1, 2)


def test_sqrt_two_squares_to_two():
    F = CyclotomicField(8)
    root2 = F.scale(2, F.cos_pi_over(4))
    sq = F.mul(root2, root2)
    assert as_rational(F, sq) == 2
    assert F.sign(root2) == 1


def test_golden_ratio_identity():
    # 2cos(pi/5) satisfies x^2 = x + 1
    F = CyclotomicField(10)
    phi = F.scale(2, F.cos_pi_over(5))
    assert F.mul(phi, phi) == F.add(phi, F.one)
    assert F.sign(F.sub(phi, F.one)) == 1  # phi > 1


def test_field_axioms_spot_checks():
    F = CyclotomicField(24)
    a = F.cos_pi_over(6)
    b = F.cos_pi_over(4)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.mul(a, F.add(b, F.one)), F.zero) == F.add(F.mul(a, b), a)
    assert F.sub(a, a) == F.zero


def test_conjugation_and_realness():
    F = CyclotomicField(8)
    z = F.root_of_unity(1)
    assert not F.is_real(z)
    assert F.is_real(F.add(z, F.conjugate(z)))
    with pytest.raises(UsageError):
        F.sign(z)


def test_sign_near_zero_values():
    # cos(pi/12) - cos(pi/12) exactly zero; tiny but nonzero differences decided
    F = CyclotomicField(24)
    a = F.cos_pi_over(12)
    assert F.sign(F.sub(a, a)) == 0
    b = F.cos_pi_over(4)
    assert F.sign(F.sub(a, b)) == 1  # cos decreasing: pi/12 < pi/4


def test_cos_requires_conductor():
    F = CyclotomicField(6)
    with pytest.raises(UsageError):
        F.cos_pi_over(4)
