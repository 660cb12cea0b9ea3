from fractions import Fraction as F

import pytest

from ratdyn.errors import DomainError
from ratdyn.polynomials import HomogeneousPoly, Poly


def test_strip_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Poly().degree == -1
    assert Poly([0]).is_zero
    assert Poly([F(1, 2)]).degree == 0


def test_arithmetic():
    p = Poly([1, 1])  # 1 + z
    q = Poly([-1, 1])  # -1 + z
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p - p == Poly()
    assert (p * q)(F(3)) == 8


def test_divmod_exact_and_remainder():
    a = Poly([-1, 0, 1])  # z^2 - 1
    b = Poly([1, 1])
    q, r = a.divmod(b)
    assert q == Poly([-1, 1]) and r.is_zero
    assert a.divide_exact(b) == q
    with pytest.raises(DomainError, match="dynatomic division failed"):
        Poly([1, 0, 1]).divide_exact(Poly([1, 1]))


def test_gcd():
    a = Poly([-1, 1]) * Poly([2, 1])  # (z-1)(z+2)
    b = Poly([1, 1]) * Poly([2, 1])  # (z+1)(z+2)
    g = a.gcd(b)
    assert g == Poly([2, 1])
    assert g.coeffs[-1] == 1  # monic
    assert Poly([1, 1]).gcd(Poly([1, 0, 1])).degree == 0


def test_canonical_form():
    p = Poly([F(1, 4), F(-1, 2)])
    assert p.canonical() == Poly([-1, 2]) or p.canonical() == Poly([1, -2])
    # positive leading coefficient
    assert p.canonical().coeffs[-1] > 0
    assert Poly([F(-2), F(-4)]).canonical() == Poly([1, 2])


def test_to_string():
    assert Poly([1, 0, 4, 0, 2]).to_string() == "2*z^4 + 4*z^2 + 1"
    assert Poly([-2, 1, 1]).to_string() == "z^2 + z - 2"
    assert Poly([-13, -1, 1]).to_string() == "z^2 - z - 13"
    assert Poly([F(1, 4), -1, 1]).to_string() == "z^2 - z + 1/4"
    assert Poly().to_string() == "0"
    assert Poly([0, 1]).to_string() == "z"
    assert Poly([0, -1]).to_string() == "-z"


def test_even_detection():
    assert Poly([1, 0, 4, 0, 2]).is_even
    assert not Poly([1, 1]).is_even


def test_homogeneous_evaluate():
    # F(x,y) = x^2 + 3y^2
    f = HomogeneousPoly(2, [3, 0, 1])
    assert f.evaluate(F(2), F(1)) == 7


def test_homogenize_dehomogenize():
    p = Poly([1, 0, 2])
    h = HomogeneousPoly.homogenize(p, 4)
    assert h.degree == 4
    assert h.dehomogenize() == p
    with pytest.raises(DomainError):
        HomogeneousPoly.homogenize(p, 1)


def test_homogeneous_coeff_length_validated():
    with pytest.raises(DomainError):
        HomogeneousPoly(2, [1, 2])
