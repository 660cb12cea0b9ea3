import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ratdyn import _intpoly
from ratdyn.errors import DomainError
from ratdyn.polynomials import HomogeneousPoly, Poly
from tests.conftest import rationals


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
    assert _intpoly.phom_eval((p * q).nums, 3, 1) == 8  # at z = 3


def test_divmod_exact_and_remainder():
    a = Poly([-1, 0, 1])  # z^2 - 1
    b = Poly([1, 1])
    q = Poly(_intpoly.pdiv_exact(a.content_den_cleared(), b.content_den_cleared()))
    assert q == Poly([-1, 1]) and (a - q * b).is_zero
    with pytest.raises(DomainError, match="dynatomic division failed"):
        _intpoly.pdiv_exact(Poly([1, 0, 1]).content_den_cleared(), Poly([1, 1]).content_den_cleared())


def test_gcd():
    a = Poly([-1, 1]) * Poly([2, 1])  # (z-1)(z+2)
    b = Poly([1, 1]) * Poly([2, 1])  # (z+1)(z+2)
    g = _intpoly._pgcd(list(a.nums), list(b.nums))
    assert g == [2, 1]  # primitive, positive leading coefficient
    assert _intpoly._pgcd([1, 1], [1, 0, 1]) == [1]


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
    # only even powers carry nonzero coefficients
    assert not any(Poly([1, 0, 4, 0, 2]).coeffs[1::2])
    assert any(Poly([1, 1]).coeffs[1::2])


def test_homogeneous_evaluate():
    # F(x,y) = x^2 + 3y^2
    f = HomogeneousPoly(2, [3, 0, 1])
    assert _intpoly.phom_eval(f.coeffs, F(2), F(1)) == 7


def test_homogenize_dehomogenize():
    p = Poly([1, 0, 2])
    h = HomogeneousPoly.homogenize(p, 4)
    assert h.degree == 4
    assert Poly(h.coeffs) == p  # y = 1
    with pytest.raises(DomainError):
        HomogeneousPoly.homogenize(p, 1)


def test_homogeneous_coeff_length_validated():
    with pytest.raises(DomainError):
        HomogeneousPoly(2, [1, 2])


# a plain Fraction-tuple reference for the integer-vector Poly

def _ref(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


_VECTORS = st.lists(st.one_of(rationals(40), st.just(F(0))), max_size=6)


@settings(max_examples=150, deadline=None)
@given(_VECTORS, _VECTORS, rationals(40))
def test_poly_matches_fraction_tuples(a, b, x):
    p, q = Poly(a), Poly(b)
    assert p.coeffs == _ref(a) and p.degree == len(_ref(a)) - 1
    assert (p + q).coeffs == _ref_add(a, b)
    assert (p - q).coeffs == _ref_add(a, b, -1)
    assert (p * q).coeffs == _ref_mul(a, b)
    assert p.scale(x).coeffs == _ref(c * x for c in a)
    # the value at x = u/v: the homogeneous integer value over den * v^deg
    u, v = x.numerator, x.denominator
    value = F(_intpoly.phom_eval(p.nums, u, v), p.den * v ** max(p.degree, 0))
    assert value == sum(c * x**i for i, c in enumerate(a))
    # the reduced form: no trailing zero, gcd(content, den) = 1, den > 0
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1 and (not p.nums or p.nums[-1] != 0)
    # equal polynomials reached by different routes compare and hash equal
    for other in (Poly(list(a) + [0, 0]), (p + q) - q, p.scale(x).scale(1 / x) if x else p):
        assert other == p and hash(other) == hash(p)


def test_poly_equality_ignores_how_the_fractions_were_written():
    half = [Poly([F(1, 2)]), Poly([F(2, 4)]), Poly(["2/4"]), Poly([0.5])]
    assert all(h == half[0] and hash(h) == hash(half[0]) for h in half)
    assert (half[0].nums, half[0].den) == ((1,), 2)
    assert Poly([F(1, 2), F(1, 3)]) - Poly([F(1, 2)]) == Poly([0, F(1, 3)])
    assert Poly([F(1, 2), F(1, 3)]) != Poly([F(1, 2), F(1, 2)])


def test_zero_polynomial_and_trailing_zeros():
    zeros = [Poly(), Poly([0, 0]), Poly([F(0, 5)]), Poly([F(1, 3)]) - Poly([F(1, 3)])]
    for z in zeros:
        assert z == Poly() and hash(z) == hash(Poly())
        assert (z.nums, z.den, z.coeffs, z.degree, z.is_zero) == ((), 1, (), -1, True)
        assert z * Poly([F(2, 7), 1]) == z and Poly([3]).scale(0) == z
    assert Poly([F(1, 6), F(1, 4), 0, 0]).coeffs == (F(1, 6), F(1, 4))
    assert Poly([F(1, 6), F(1, 4), 0, 0]).nums == (2, 3) and Poly([F(1, 6), F(1, 4)]).den == 12
