import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from ratdyn.dynamics import KBMap, QuadraticMap, exact_period
from ratdyn.core import enumerate_rationals
from ratdyn.dynatomic import (
    dynatomic_int,
    dynatomic_polynomial,
    iterate_pair,
    moebius,
    period4_dynatomic_factors,
    period_polynomial,
    periodic_points_exact,
    rational_roots,
)
from ratdyn import _intpoly, dynatomic
from ratdyn.errors import DomainError
from ratdyn.polynomials import Poly
from ratdyn.search import scan_kb_periods
from tests.conftest import rationals, sample_rationals, step_walk


def brute_moebius(n):
    # independent: count squarefree prime factorizations directly
    factors = []
    m = n
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e > 1:
            return 0
        if e == 1:
            factors.append(p)
        p += 1
    if m > 1:
        factors.append(m)
    return (-1) ** len(factors)


def test_moebius_examples_and_oracle():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    for n in range(1, 200):
        assert moebius(n) == brute_moebius(n)


def test_iterate_examples():
    ip = iterate_pair(KBMap(F(1), F(1)), 1)
    assert ip.F.coeffs == (F(1), F(0), F(1))  # x^2 + y^2
    assert ip.G.coeffs == (F(0), F(1), F(0))  # xy

    ip = iterate_pair(QuadraticMap(F(5, 3)), 1)
    assert ip.F.coeffs == (F(5, 3), F(0), F(1))
    assert ip.G.coeffs == (F(1), F(0), F(0))

    # hand expansion: (x^2 - y^2)^2 - y^4 = x^4 - 2 x^2 y^2
    ip = iterate_pair(QuadraticMap(F(-1)), 2)
    assert ip.F.coeffs == (F(0), F(0), F(-2), F(0), F(1))
    assert ip.G.coeffs == (F(1), F(0), F(0), F(0), F(0))


def test_iterate_degrees_and_coprimality(rng):
    for m in [QuadraticMap(F(-7, 5)), KBMap(F(2, 3), F(-5, 4))]:
        for n in (1, 2, 3, 4):
            ip = iterate_pair(m, n)
            assert ip.F.degree == 2**n and ip.G.degree == 2**n
            f, g = (list(Poly(h.coeffs).content_den_cleared()) for h in (ip.F, ip.G))  # y = 1
            assert _intpoly._pgcd(f, g) == [1]  # no common affine factor
            # not both divisible by y either
            assert ip.F.coeffs[-1] != 0 or ip.G.coeffs[-1] != 0


def at(h, z):
    """The value h(z, 1) of a HomogeneousPoly h."""
    return _intpoly.phom_eval(h.coeffs, z, 1)


def test_iterate_is_composition(rng):
    # oracle: evaluating the pair at sample points equals iterating the map
    m = KBMap(F(3, 2), F(-1, 3))
    ip = iterate_pair(m, 3)
    z = F(5, 7)
    w = z
    for _ in range(3):
        w = m.k * w + m.b / w
    assert at(ip.F, z) / at(ip.G, z) == w

    # non-unit denominators, n = 1..4: the integer builder's scale D^(2^n-1)
    # must divide back out exactly
    maps = [
        QuadraticMap(F(-7, 5)),
        QuadraticMap(F(3, 8)),
        KBMap(F(2, 3), F(-5, 4)),
        KBMap(F(-9, 7), F(10, 3)),
    ]
    for m in maps:
        for n in (1, 2, 3, 4):
            ip = iterate_pair(m, n)
            phi = period_polynomial(m, n)
            for z in (F(5, 7), F(-3, 11), F(2), F(-13, 6)):
                w = z
                for _ in range(n):
                    if isinstance(m, QuadraticMap):
                        w = w * w + m.c
                    else:
                        w = m.k * w + m.b / w
                fz, gz = at(ip.F, z), at(ip.G, z)
                assert fz / gz == w, (m, n, z)
                assert _intpoly.phom_eval(phi.coeffs, z, 1) == gz * (w - z), (m, n, z)


def test_period_polynomial_examples():
    assert period_polynomial(QuadraticMap(F(-13)), 1) == Poly([-13, -1, 1])
    assert period_polynomial(KBMap(F(1), F(1)), 1) == Poly([1])
    p = period_polynomial(QuadraticMap(F(0)), 1)
    assert p == Poly([0, -1, 1]) and rational_roots(p) == {F(0), F(1)}


def test_period_polynomial_kb_general_shape(rng):
    # Phi_1 of kz + b/z is (k-1) z^2 + b
    for k, b in zip(
        sample_rationals(rng, 8, 9, nonzero=True),
        sample_rationals(rng, 8, 9, nonzero=True),
    ):
        assert period_polynomial(KBMap(k, b), 1) == Poly([b, 0, k - 1])


def test_dynatomic_examples():
    d = dynatomic_polynomial(QuadraticMap(F(-3)), 2)
    assert d == Poly([-2, 1, 1])
    assert rational_roots(d) == {F(1), F(-2)}
    # n = 1 is the period polynomial itself (canonicalized)
    assert dynatomic_polynomial(QuadraticMap(F(-13)), 1) == Poly([-13, -1, 1])


def test_dynatomic_quad_period2_identity(rng):
    # exact division oracle: Phi_2 / Phi_1 == z^2 + z + c + 1
    for c in sample_rationals(rng, 12, 20):
        phi1, phi2 = (period_polynomial(QuadraticMap(c), n) for n in (1, 2))
        quotient = Poly([c + 1, 1, 1])
        assert quotient * phi1 == phi2
        ints = _intpoly.pdiv_exact(phi2.content_den_cleared(), phi1.content_den_cleared())
        assert dynatomic_polynomial(QuadraticMap(c), 2) == Poly(ints) == quotient.canonical()


def test_dynatomic_degrees():
    # dehomogenized degrees for generic maps: the homogeneous Moebius sums
    # are 3, 2, 6, 12 for n = 1..4; the n = 1 value counts the root at
    # infinity, which the dehomogenization drops
    hom = {1: 3, 2: 2, 3: 6, 4: 12}
    for m in [QuadraticMap(F(1, 3)), QuadraticMap(F(-2)), KBMap(F(2, 3), F(7, 5))]:
        for n, d in hom.items():
            expected = d - 1 if n == 1 else d
            assert dynatomic_polynomial(m, n).degree == expected


def test_moebius_product_recomposition(rng):
    # multiplying Phi*_d over d | n must recompose Phi_n up to a constant
    maps = [QuadraticMap(F(3, 7)), KBMap(F(-5, 2), F(4, 9)), KBMap(F(1), F(1))]
    for m in maps:
        for n in (1, 2, 3, 4, 6):
            prod = Poly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * dynatomic_polynomial(m, d)
            assert prod.canonical() == period_polynomial(m, n).canonical()


def test_dynatomic_factorization_examples():
    quartic, cofactor = period4_dynatomic_factors(F(1), F(1))
    assert quartic == Poly([1, 0, 4, 0, 2])
    assert quartic.to_string() == "2*z^4 + 4*z^2 + 1"
    assert quartic.degree == 4 and cofactor.degree == 8

    quartic, _ = period4_dynatomic_factors(F(4, 3), F(-10, 3))
    assert rational_roots(quartic) == {F(2), F(1), F(-1), F(-2)}

    _, cofactor = period4_dynatomic_factors(F(24, 7), F(-300, 7))
    assert rational_roots(cofactor) == frozenset()


def test_dynatomic4_equals_factor_product(rng):
    for k, b in zip(
        sample_rationals(rng, 25, 12, nonzero=True),
        sample_rationals(rng, 25, 12, nonzero=True),
    ):
        quartic, cofactor = period4_dynatomic_factors(k, b)
        assert (quartic * cofactor).canonical() == dynatomic_polynomial(KBMap(k, b), 4)


def test_rational_roots_examples():
    assert rational_roots(Poly([-2, 1, 1])) == {F(1), F(-2)}
    assert rational_roots(Poly([1, 0, 1])) == frozenset()
    with pytest.raises(DomainError, match="zero polynomial has all roots"):
        rational_roots(Poly())


def test_rational_roots_constructed_products(rng):
    # roots planted via explicit linear factors, mixed with a rootless factor
    for _ in range(10):
        planted = sorted(set(sample_rationals(rng, 3, 12)))
        poly = Poly([1, 0, 1])  # no rational roots
        for r in planted:
            poly = poly * Poly([-r, 1])
        assert rational_roots(poly) == frozenset(planted)


def test_rational_roots_height_bound():
    poly = Poly([-101, 1]) * Poly([-2, 1])  # roots 101 and 2
    assert rational_roots(poly) == {F(101), F(2)}
    assert rational_roots(poly, height_bound=50) == {F(2)}


def _even_poly(pairs, extra=()):
    # prod (v^2 z^2 - u^2) over the pairs (u, v), times rootless even factors
    p = [1]
    for u, v in pairs:
        p = _intpoly.pmul(p, [-u * u, 0, v * v])
    for f in extra:
        p = _intpoly.pmul(p, f)
    return p


def _general_branch_roots(poly, height_bound):
    # the factor (17z - 1) breaks the parity, so the general branch runs;
    # planted denominators stay below 17, so 1/17 is never a planted root
    mixed = _intpoly.pmul(poly, [-1, 17])
    assert any(mixed[1::2])
    return set(_intpoly.rational_roots_int(mixed, height_bound)) - {F(1, 17)}


def test_even_branch_matches_general_branch(rng):
    B = 12
    cases = [
        ([(1, 2), (1, 2)], ()),  # (4z^2 - 1)^2: repeated root
        ([(B, 1), (B + 1, 1), (5, B), (7, B + 1)], ()),  # heights B and B+1
        ([(B, 5), (3, 7)], ([-3, 0, 2], [1, 0, 1])),  # with rootless factors
        ([(2, 3), (B + 1, B)], ([5, 0, 0, 0, 1],)),
    ]
    for _ in range(15):
        rs = [F(rng.randint(1, B + 3), rng.randint(1, B + 3)) for _ in range(rng.randint(1, 4))]
        pairs = [(r.numerator, r.denominator) for r in rs]
        cases.append((pairs, ([-2, 0, 1],) if rng.random() < 0.5 else ()))
    for pairs, extra in cases:
        poly = _even_poly(pairs, extra)
        planted = {s * F(u, v) for u, v in pairs for s in (1, -1)}
        for bound in (None, B):
            want = {r for r in planted
                    if bound is None or max(abs(r.numerator), r.denominator) <= bound}
            got = _intpoly.rational_roots_int(poly, bound)
            assert got == sorted(want)
            assert set(got) == _general_branch_roots(poly, bound)


def _divisors(n):
    n = abs(n)
    return [d for d in range(1, math.isqrt(n) + 1) if n % d == 0 for d in {d, n // d}]


def _brute_roots(coeffs, height_bound=None):
    # independent oracle: every u/v with u | a0, v | a_lead, tested by
    # v^deg P(u/v) == 0, evaluated from the top coefficient down
    c = _intpoly.pstrip(coeffs)
    roots = set()
    while c[0] == 0:
        roots.add(F(0))
        c = c[1:]
    for u in _divisors(c[0]):
        for v in _divisors(c[-1]):
            for s in (u, -u):
                acc, vk = 0, 1
                for a in reversed(c):
                    acc, vk = acc * s + a * vk, vk * v
                if acc == 0:
                    roots.add(F(s, v))
    if height_bound is not None:
        roots = {r for r in roots if max(abs(r.numerator), r.denominator) <= height_bound}
    return sorted(roots)


def _planted(factors):
    p = [1]
    for f in factors:
        p = _intpoly.pmul(p, f)
    return p


_SMALL_POLYS = st.builds(
    lambda roots, rest: _planted([[-u, v] for u, v in roots] + [rest]),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
)


@settings(max_examples=200, deadline=None)
@given(_SMALL_POLYS, st.one_of(st.none(), st.integers(1, 15)))
@example([1, -2, 1, 0, 0], None)  # (z - 1)^2 z^2
@example([-6, 11, -6, 1], 2)  # roots 1, 2, 3
def test_rational_roots_match_divisor_oracle(poly, height_bound):
    assert _intpoly.rational_roots_int(poly, height_bound) == _brute_roots(poly, height_bound)


def test_rational_roots_repeated_roots():
    # every prime sees a repeated root, so the square-free part takes over
    rootless = [3, 1, 0, 1]
    for mult in (2, 3):
        for roots in ([(1, 2)], [(-3, 7), (5, 1)], [(2, 3), (0, 1), (-1, 1)]):
            poly = _planted([[-u, v] for u, v in roots] * mult + [rootless])
            want = sorted({F(u, v) for u, v in roots})
            assert _intpoly.rational_roots_int(poly) == want == _brute_roots(poly)


def test_rational_roots_leading_coefficient_with_small_primes():
    a = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
    poly = _planted([[-1, a], [23, 2 * a], [5, 0, 0, a]])
    assert _intpoly.rational_roots_int(poly) == [F(-23, 2 * a), F(1, a)]
    assert _intpoly.rational_roots_int(poly, a) == [F(1, a)]


def test_rational_roots_collide_at_small_primes():
    # square-free, with roots -2/19, 7/10, 13/17, 13/5 that meet mod each of
    # the first four primes not dividing a_lead = 2^4 5^3 17 19
    poly = [56784, 229736, -2457560, 4472288, -1439000, -1653400, 646000]
    for p in (3, 7, 11, 13):
        assert _intpoly._simple_roots_mod(poly, p) is None
    want = [F(-2, 19), F(7, 10), F(13, 17), F(13, 5)]
    assert _intpoly.rational_roots_int(poly) == want == _brute_roots(poly)


def _prs_gcd(a, b):
    # reference: Euclid on pseudo-remainders, primitive part at each step
    a, b = _intpoly.pprimitive(a), _intpoly.pprimitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for j, cb in enumerate(b):
                r[shift + j] -= top * cb
            r = _intpoly.pstrip(r)
        a, b = b, _intpoly.pprimitive(r)
    return a if not b else [1]


def test_polynomial_gcd_matches_prs(rng):
    # cofactors such as z(z+1) are even at every integer, so the first
    # evaluation point can give a gcd with an extra integer factor
    cofactors = [[1], [0, 1, 1], [0, 2, 3, 1], [2, 3, 1], [6, 11, 6, 1]]
    for _ in range(300):
        common = [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)]
        a, b = common, common
        for _ in range(2):
            a = _intpoly.pmul(a, [rng.randint(-30, 30) for _ in range(rng.randint(1, 4))] + [1])
            b = _intpoly.pmul(b, [rng.randint(-30, 30) for _ in range(rng.randint(1, 4))] + [1])
        a, b = _intpoly.pmul(a, rng.choice(cofactors)), _intpoly.pmul(b, rng.choice(cofactors))
        a, b = _intpoly.pprimitive(a), _intpoly.pprimitive(b)
        assert _intpoly._pgcd(a, b) == _prs_gcd(a, b)


def test_rational_roots_repeated_root_of_high_degree():
    # a degree-128 Phi*_7 with 869-bit coefficients times (3z - 1)^2: every
    # prime sees the double root 1/3, so the square-free part is taken
    poly = dynatomic_polynomial(KBMap(F(-23, 30), F(29, 21)), 7) * Poly([1, -6, 9])
    assert rational_roots(poly, height_bound=10) == {F(1, 3)}


@pytest.mark.parametrize("c", [F(1, 4), F(-3, 4), F(-5, 4), F(-7, 4)])
def test_rational_roots_of_parabolic_dynatomics(c):
    # Phi_n at c = 1/4 and -3/4 has a repeated rational root (1/2, -1/2)
    for n in (1, 2, 3, 4):
        for build in (dynatomic_polynomial, period_polynomial):
            poly = build(QuadraticMap(c), n).content_den_cleared()
            assert _intpoly.rational_roots_int(poly) == _brute_roots(poly)


def test_rational_roots_at_height_bound_edges():
    for B in (1, 2, 7, 30):
        roots = [F(B, 1), F(-1, B), F(B + 1, B), F(-B, B + 1), F(B + 1, 1)]
        poly = _planted([[-r.numerator, r.denominator] for r in roots] + [[1, 1, 1]])
        for bound in (B, B + 1):
            got = _intpoly.rational_roots_int(poly, bound)
            assert got == _brute_roots(poly, bound)
            assert got == sorted({r for r in roots if max(abs(r.numerator), r.denominator) <= bound})


def test_rational_roots_with_hard_to_factor_constant_term():
    p1, p2 = 2**61 - 1, 2**89 - 1  # a0 = p1 p2 is a 150-bit semiprime
    poly = _planted([[p1, 1], [p2, 2], [1, 0, 1]])
    assert poly[0] == p1 * p2
    assert _intpoly.rational_roots_int(poly) == [F(-p2, 2), F(-p1)]
    assert _intpoly.rational_roots_int(poly, 2**61) == [F(-p1)]
    assert _intpoly.rational_roots_int([p1 * p2, 1, 0, 1]) == []


def _in_w(q):
    # Q(w) as the even polynomial Q(z^2)
    out = [0] * (2 * len(q) - 1)
    out[::2] = q
    return out


# prod (v^2 z^2 - u^2) (roots +-u/v), times factors v z^2 - u whose w = u/v
# is negative, a non-square or a square, times any Q(z^2)
_EVEN_POLYS = st.builds(
    lambda squares, ws, rest: _planted([[-u * u, 0, v * v] for u, v in squares]
                                       + [_in_w([-u, v]) for u, v in ws] + [_in_w(rest)]),
    st.lists(st.tuples(st.integers(1, 13), st.integers(1, 13)), max_size=3),
    st.lists(st.tuples(st.integers(-13, 13).filter(bool), st.integers(1, 13)), max_size=2),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any),
)


@settings(max_examples=150, deadline=None)
@given(_EVEN_POLYS, st.one_of(st.none(), st.integers(1, 15)))
@example(_planted([[-144, 0, 1], [-169, 0, 144], [-2, 0, 3], [1, 0, 1]]), 12)  # heights 12 and 13
@example(_planted([[-144, 0, 1], [-169, 0, 144], [-2, 0, 3], [1, 0, 1]]), 13)
@example(_planted([[-1, 0, 4], [-1, 0, 4], [3, 0, 1]]), None)  # (4z^2 - 1)^2 (z^2 + 3)
@example(_planted([[-7, 0, 1], [0, 0, 0, 0, 5, 0, 1]]), None)  # z^4 (z^2 - 7) (z^2 + 5)
@example(_in_w([-16, 0, 0, 0, 1]), 2)  # z^8 - 16: even again in w
def test_even_polynomials_match_divisor_oracle(poly, height_bound):
    assert _intpoly.rational_roots_int(poly, height_bound) == _brute_roots(poly, height_bound)


def test_even_polynomials_never_reach_the_padic_route(monkeypatch):
    # an even vector is rooted in w = z^2 (again while it stays even), so
    # the p-adic route sees only vectors with a nonzero odd coefficient
    seen, padic = [], _intpoly._padic_roots

    def spy(c, *args):
        seen.append(list(c))
        return padic(c, *args)

    monkeypatch.setattr(_intpoly, "_padic_roots", spy)
    rng = random.Random(35)
    polys = [dynatomic_int(KBMap(*sample_rationals(rng, 2, 30, nonzero=True)), n) for n in (1, 2, 3, 4, 5)]
    polys += [dynatomic_int(QuadraticMap(c), n) for c in sample_rationals(rng, 20, 30) for n in (1, 2, 3)]
    polys += [_in_w(_in_w([rng.randint(-50, 50) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 9)]))
              for _ in range(30)]
    polys += [_even_poly([(3, 5), (7, 2)], ([5, 0, 0, 0, 1],)), [2, 0, -3, 0, 0, 0, 1, 0]]
    for poly in polys:
        for bound in (None, 4):
            _intpoly.rational_roots_int(poly, bound)
    assert seen and all(any(c[1::2]) for c in seen)


def _reference_lift(c, roots, p, bound):
    # the plain lift: every coefficient reduced at each Horner step, and
    # P'(r) inverted by pow at each Newton step
    m = p
    while m <= bound:
        m *= m
        desc = [a % m for a in reversed(c)]
        lifted = []
        for r in roots:
            val = der = 0
            for a in desc:
                der = (der * r + val) % m
                val = (val * r + a) % m
            lifted.append((r - val * pow(der, -1, m)) % m)
        roots = lifted
    return roots, m


def test_lift_matches_the_reference_lift():
    # every simple root mod p <= 13 of random square-free polynomials, alone
    # and all together, at bounds from none (m = p) to 2^200
    rng = random.Random(3535)
    for _ in range(120):
        c = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 9))] + [rng.randint(1, 10**6)]
        if _intpoly._squarefree(c) != _intpoly.pprimitive(c):
            continue
        for p in (2, 3, 5, 7, 11, 13):
            simple = [r for r in range(p) if _intpoly.phom_eval(c, r, 1) % p == 0
                      and _intpoly.phom_eval([i * a for i, a in enumerate(c)][1:], r, 1) % p]
            for bound in (1, p, p * p, 10**9, 2**200):
                for roots in [[r] for r in simple] + [simple]:
                    assert _intpoly._lift(c, roots, p, bound) == _reference_lift(c, roots, p, bound), (c, p, bound)


@pytest.mark.parametrize("poly, want", [
    ([1, -4, 4], [F(1, 2)]),  # (2z - 1)^2
    ([0, 1, -4, 4], [F(0), F(1, 2)]),  # z (2z - 1)^2
    ([0, 0, 9, 12, 4], [F(-3, 2), F(0)]),  # z^2 (2z + 3)^2
    ([4, 0, -4, 0, 1], []),  # (z^2 - 2)^2: a double w = 2, not a square
    ([1, 0, -8, 0, 16], [F(-1, 2), F(1, 2)]),  # (4z^2 - 1)^2, rooted in w as (4w - 1)^2
])
def test_double_roots_come_out_once(poly, want):
    assert _intpoly.rational_roots_int(poly) == want == _brute_roots(poly)


def test_a_double_root_mod_p_that_is_no_square_fails_no_prime(monkeypatch):
    # (z^2 - 2)^2 (z^2 - 4) is (w - 2)^2 (w - 4) in w = z^2; 2 is no square
    # mod 3, so that double root is not asked to be simple, and p = 3 serves
    # after one failed prime (2), with no square-free part taken
    monkeypatch.setattr(_intpoly, "_squarefree", lambda c: pytest.fail("square-free part taken"))
    assert _intpoly.rational_roots_int([-16, 0, 20, 0, -8, 0, 1]) == [F(-2), F(2)]
    assert _intpoly.rational_roots_int([-16, 0, 20, 0, -8, 0, 1], 1) == []


@pytest.mark.parametrize("bound", [0, -3])
def test_rational_roots_reject_height_bound_below_one(bound):
    with pytest.raises(DomainError, match=f"parameter excluded: height_bound={bound}"):
        rational_roots(Poly([0, -1, 1]), height_bound=bound)
    with pytest.raises(DomainError, match=f"parameter excluded: height_bound={bound}"):
        periodic_points_exact(QuadraticMap(F(-2)), 1, height_bound=bound)


def _sieved(m, n):
    """Whether the family sieve settles (m, n) in ``periodic_points_exact``."""
    quad = isinstance(m, QuadraticMap)
    return dynatomic._family_rootless(quad, n, *(m.c if quad else m.k).as_integer_ratio())


@pytest.mark.parametrize("m, n, sieved", [
    (QuadraticMap(F(1)), 3, True), (KBMap(F(1), F(1)), 4, True),
    (QuadraticMap(F(-29, 16)), 3, False), (KBMap(F(4, 3), F(-10, 3)), 4, False)])
def test_periodic_points_exact_checks_its_arguments_before_the_sieve(m, n, sieved):
    # a bad n or height bound raises the same error whether or not the
    # family sieve settles (m, n), and a bad n is named first
    assert _sieved(m, n) == sieved
    for bad_n in (0, -1):
        for bound in (None, 3, -3):
            with pytest.raises(DomainError, match=f"^parameter excluded: n={bad_n}$"):
                periodic_points_exact(m, bad_n, height_bound=bound)
    for bound in (0, -3):
        with pytest.raises(DomainError, match=f"^parameter excluded: height_bound={bound}$"):
            periodic_points_exact(m, n, height_bound=bound)


def test_periodic_points_exact_examples():
    assert periodic_points_exact(QuadraticMap(F(-13)), 2) == {F(3), F(-4)}
    # discriminant of z^2 - z - 13 is 53, not a square
    assert periodic_points_exact(QuadraticMap(F(-13)), 1) == frozenset()
    assert periodic_points_exact(KBMap(F(24, 7), F(-300, 7)), 4) == {
        F(3),
        F(-4),
        F(-3),
        F(4),
    }
    # the exact-period filter walks n steps, within which every root of
    # Phi*_n closes
    assert periodic_points_exact(KBMap(F(4, 3), F(-10, 3)), 4) == {F(-2), F(-1), F(1), F(2)}
    assert periodic_points_exact(QuadraticMap(F(-29, 16)), 3) == {F(-7, 4), F(-1, 4), F(5, 4)}


def test_periodic_points_against_direct_orbit_scan(rng):
    # oracle equivalence: enumerate all starting points up to a height bound
    # and compare exact periods found by raw iteration
    from ratdyn.core import enumerate_rationals

    cases = [
        (QuadraticMap(F(-13)), (1, 2), 300),
        (QuadraticMap(F(-29, 16)), (1, 2, 3), 300),
        (KBMap(F(24, 7), F(-300, 7)), (1, 2, 4), 300),
        (KBMap(F(4, 3), F(-10, 3)), (1, 2, 4), 300),
    ]
    for m, periods, bound in cases:
        by_iteration = {n: set() for n in periods}
        for p in enumerate_rationals(bound):
            if isinstance(m, KBMap) and p == 0:
                continue
            n = exact_period(m, p, max_steps=8)
            if n in by_iteration:
                by_iteration[n].add(p)
        for n in periods:
            assert periodic_points_exact(m, n) == by_iteration[n], (m, n)


def test_periodic_points_orbit_scan_height_1000():
    # full-depth cross-check at the documented scan height for one map; the
    # reference walk knows nothing of the local region and only prunes
    # wandering starts past a height guard (a missed periodic point would
    # break set equality, so the pruning cannot hide a failure)
    m = QuadraticMap(F(-13))
    found = {1: set(), 2: set()}
    for p in enumerate_rationals(1000):
        pairs, hit = step_walk(m, p, 4, guard=10**8)
        if hit == 0 and len(pairs) in found:
            found[len(pairs)].add(p)
    assert found[2] == periodic_points_exact(m, 2)
    assert found[1] == set() and periodic_points_exact(m, 1) == frozenset()


def test_kb_zero_is_never_periodic():
    # a KB map sends 0 to the fixed point infinity, so 0 has no exact period
    # and is never reported by the dynatomic route
    maps = [
        KBMap(F(1), F(1)),
        KBMap(F(4, 3), F(-10, 3)),
        KBMap(F(24, 7), F(-300, 7)),
        KBMap(F(-1, 2), F(3)),
        KBMap(F(2, 3), F(-5, 4)),
    ]
    for m in maps:
        assert exact_period(m, 0) is None
        for n in (1, 2, 4):
            assert F(0) not in periodic_points_exact(m, n)
            assert F(0) not in periodic_points_exact(m, n, height_bound=20)


def test_dynatomic_rejects_bad_n():
    with pytest.raises(DomainError):
        dynatomic_polynomial(QuadraticMap(F(1)), 0)
    with pytest.raises(DomainError):
        moebius(0)


def test_tower_extension_keeps_every_level():
    # a map keeps no tower between calls: one first asked past n, and one
    # asked a level at a time, give what a fresh map gives at n
    for make in (lambda: QuadraticMap(F(-29, 16)), lambda: KBMap(F(4, 3), F(-10, 3))):
        grown, stepped = make(), make()
        dynatomic_int(grown, 6)
        for n in range(1, 7):
            fresh = make()
            assert dynatomic_int(grown, n) == dynatomic_int(stepped, n) == dynatomic_int(fresh, n), n
            assert period_polynomial(grown, n) == period_polynomial(fresh, n), n
            got, want = iterate_pair(grown, n), iterate_pair(fresh, n)
            assert (got.F.coeffs, got.G.coeffs) == (want.F.coeffs, want.G.coeffs), n


def test_kb_w_route_matches_z_route_reference():
    # every KB map of height <= 3 at n = 1..6: the tower built in w = z^2
    # against the iterates composed in z with Poly, f' = k f^2 + b g^2,
    # g' = f g from (f, g) = (k z^2 + b, z)
    z = Poly([0, 1])
    ks = [r for r in enumerate_rationals(3) if r != 0]
    for k in ks:
        for b in ks:
            m, f, g = KBMap(k, b), Poly([b, 0, k]), z
            phis = []
            for n in range(1, 7):
                if n > 1:
                    f, g = f * f * Poly([k]) + g * g * Poly([b]), f * g
                phis.append(f - z * g)
                ip = iterate_pair(m, n)
                assert Poly(ip.F.coeffs) == f and Poly(ip.G.coeffs) == g, (m, n)
                assert period_polynomial(m, n) == phis[-1], (m, n)
                # prod_{d | n} Phi*_d recomposes Phi_n up to a constant
                prod = Poly([1])
                for d in range(1, n + 1):
                    if n % d == 0:
                        prod = prod * Poly(dynatomic_int(m, d))
                assert prod.canonical() == phis[-1].canonical(), (m, n)
            for n in (1, 2, 4):
                for bound in (None, 1, 3):
                    # roots found in w, against roots found in z
                    roots = _intpoly.rational_roots_int(dynatomic_int(m, n), bound)
                    expected = {r for r in roots if exact_period(m, r) == n}
                    assert periodic_points_exact(m, n, height_bound=bound) == expected, (m, n, bound)
    with pytest.raises(DomainError, match="parameter excluded: height_bound=-3"):
        periodic_points_exact(KBMap(F(1), F(1)), 4, height_bound=-3)


def _tower_route(m, n):
    """Phi*_n from a fresh copy of m's own iterate tower."""
    fresh = QuadraticMap(m.c) if isinstance(m, QuadraticMap) else KBMap(m.k, m.b)
    return dynatomic._quotient(dynatomic._tower(fresh, n), n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.builds(QuadraticMap, rationals(10**6)),
                 st.builds(KBMap, rationals(10**6, nonzero=True), rationals(10**6, nonzero=True))),
       st.integers(1, dynatomic._FAMILY_MAX_N))
@example(KBMap(F(1), F(-7, 3)), 4)
@example(KBMap(F(-1), F(5)), 2)
@example(KBMap(F(1), F(1)), 5)
@example(KBMap(F(-1), F(-2, 9)), 3)
@example(QuadraticMap(F(1, 4)), 1)
@example(QuadraticMap(F(1, 4)), 4)
@example(QuadraticMap(F(-3, 4)), 2)
@example(QuadraticMap(F(-3, 4)), 5)
def test_family_route_equals_the_tower_route(m, n):
    # the family's Phi*_n at the map's parameter, against the map's own
    # tower and Moebius division; k = +-1 drops Phi*_n's degree in w, and
    # c = 1/4, -3/4 are where a fixed point, or a 2-cycle, is a double root
    assert dynatomic._dynatomic_x(m, n) == _tower_route(m, n), (m, n)


def test_family_phi3_of_z2_plus_t_is_the_closed_form():
    # Phi*_3 = z^6 + z^5 + (3c+1) z^4 + (2c+1) z^3 + (3c^2+3c+1) z^2
    #          + (c+1)^2 z + c^3 + 2c^2 + c + 1  (quad_periodic_points)
    assert dynatomic._family(True, 3) == (
        (1, 1, 2, 1), (1, 2, 1), (1, 3, 3), (1, 2), (1, 3), (1,), (1,))


def test_family_phi4_of_tz_plus_1_over_z_is_the_product_of_the_period4_factors():
    # the rows in w = z^2, t-vectors of degree <= 12, evaluated at 14 values
    # of t, against the quartic times the cofactor at (k, 1): a pin of
    # every coefficient
    rows = dynatomic._family(False, 4)
    assert len(rows) == 7 and max(map(len, rows)) <= 13
    for k in [k for k in range(-7, 8) if k]:
        quartic, cofactor = period4_dynatomic_factors(F(k), F(1))
        want = (quartic * cofactor).coeffs
        assert want[1::2] == (0,) * 6, k
        assert [sum(c * k**j for j, c in enumerate(row)) for row in rows] == list(want[::2]), k


def test_a_family_polynomial_shown_rootless_mod_a_small_prime_has_no_rational_root():
    # every t of height <= 10 and random ones up to height 5000, some with a
    # denominator that each sieve prime divides (t = infinity mod p), in both
    # families; past the family's n nothing is decided.  The counts pin how
    # many of the parameters of height <= 10 skip the rooting at n = 1..5
    rng = random.Random(31)
    grid = [(quad, t) for quad in (False, True) for t in enumerate_rationals(10) if quad or t]
    drawn = [(rng.random() < 0.5, F(rng.choice((-1, 1)) * rng.randint(1, 5000), d))
             for d in (2, 3, 5, 7, 11, 13, 30030, 4096, 2027) for _ in range(40)]
    for quad, t in grid + drawn:
        for n in range(1, 7):
            if dynatomic._family_rootless(quad, n, *t.as_integer_ratio()):
                m = QuadraticMap(t) if quad else KBMap(t, F(1))
                assert n <= 5 and _intpoly.rational_roots_int(dynatomic._dynatomic_x(m, n)) == [], (m, n)
    shown = {kind: [sum(dynatomic._family_rootless(quad, n, *t.as_integer_ratio()) for quad, t in grid if quad == kind)
                    for n in range(1, 6)] for kind in (False, True)}
    # 126 k of kz + 1/z, 127 c of z^2 + c
    assert shown == {False: [0, 0, 125, 114, 126], True: [118, 118, 127, 127, 127]}


def test_the_sieve_asks_only_primes_that_can_settle_something():
    # the primes asked settle what all six do: every t of height <= 12 and
    # t with p | den(t) for each sieve prime p, in both families, n = 1..5
    tables = {(quad, n, p): dynatomic._family_mod(quad, n, p)
              for quad in (False, True) for n in range(1, 6) for p in dynatomic._SIEVE_PRIMES}

    def all_primes(quad, n, tn, td):
        return any(tables[quad, n, p][p if td % p == 0 else tn * pow(td, -1, p) % p] for p in dynatomic._SIEVE_PRIMES)

    ts = list(enumerate_rationals(12)) + [F(a, d * p) for p in (2, 3, 5, 7, 11, 13, 30030)
                                          for d in (1, 2, 3) for a in (-7, -1, 1, 17, 1001) if math.gcd(a, d * p) == 1]
    for quad in (False, True):
        for n in range(1, 6):
            for t in ts:
                if t or quad:
                    tn, td = t.as_integer_ratio()
                    assert dynatomic._family_rootless(quad, n, tn, td) == all_primes(quad, n, tn, td), (quad, n, t)
    asked = {n: [p for p, _ in dynatomic._sieve_tables(False, n)] for n in range(1, 6)}
    assert asked == {1: [], 2: [], 3: [2, 3, 5, 7, 11, 13], 4: [3, 7, 11, 13], 5: [2, 3, 5, 7, 11, 13]}
    assert all([p for p, _ in dynatomic._sieve_tables(True, n)] == [2, 3, 5, 7, 11, 13] for n in range(1, 6))


# parameters of height <= 60, and ones whose denominator a sieve prime, or
# all of them (30030), divides, so that t is at infinity mod p
_PARAMS = st.one_of(
    rationals(60),
    st.builds(lambda a, d, p: F(a, d * p), st.integers(-60, 60).filter(lambda a: math.gcd(a, 30030) == 1),
              st.integers(1, 4), st.sampled_from((2, 3, 5, 7, 11, 13, 30030))))
_NONZERO = _PARAMS.filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.builds(QuadraticMap, _PARAMS), st.builds(KBMap, _NONZERO, _NONZERO)),
       st.integers(1, 6), st.sampled_from((None, 1, 3, 50)))
@example(QuadraticMap(F(-29, 16)), 3, None)
@example(KBMap(F(4, 3), F(-10, 3)), 4, 3)
@example(QuadraticMap(F(-3, 4)), 1, None)
@example(QuadraticMap(F(-3, 4)), 2, 3)
@example(KBMap(F(5, 3), F(-3, 2)), 1, None)
@example(KBMap(F(5, 3), F(-3, 2)), 2, 50)
@example(QuadraticMap(F(1, 30030)), 3, None)
@example(KBMap(F(-7, 30030), F(1)), 4, None)
def test_periodic_points_exact_equals_the_unsieved_route(m, n, bound):
    # the family sieve drops no point: the set is the dynatomic roots of
    # exact period n, built and rooted for every (m, n)
    want = {r for r in _intpoly.rational_roots_int(dynatomic_int(m, n), bound)
            if exact_period(m, r, max_steps=n) == n}
    assert periodic_points_exact(m, n, height_bound=bound) == want, (m, n, bound)


def test_a_sieved_map_is_neither_built_nor_rooted(monkeypatch):
    # Phi*_n is built, rooted and its roots walked only where the family
    # sieve leaves (m, n) open
    calls = []
    for name, module in (("dynatomic_int", dynatomic), ("exact_period", dynatomic), ("rational_roots_int", _intpoly)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
    for m, n in ((QuadraticMap(F(1)), 3), (KBMap(F(1), F(1)), 4), (QuadraticMap(F(-13)), 1)):
        assert _sieved(m, n) and periodic_points_exact(m, n) == frozenset() and calls == [], (m, n)
    for m, n in ((QuadraticMap(F(-29, 16)), 3), (KBMap(F(4, 3), F(-10, 3)), 4)):
        assert not _sieved(m, n) and periodic_points_exact(m, n), (m, n)
        assert calls[:2] == ["dynatomic_int", "rational_roots_int"] and "exact_period" in calls, (m, n)
        calls.clear()


def test_each_family_polynomial_is_built_once(monkeypatch):
    # a KB scan and 200 fresh maps at n <= 5 build each family polynomial
    # once and no map's tower; the maps keep no step record or tower
    built, grow = [], dynatomic._grow
    monkeypatch.setattr(dynatomic, "_grow", lambda n, quad, *s: built.append((quad, n)) or grow(n, quad, *s))
    dynatomic._family.cache_clear()
    scan_kb_periods(10, 10, 100, (1, 2, 4, 5))
    rng = random.Random(24)
    for i in range(200):
        m = QuadraticMap(*sample_rationals(rng, 1, 50)) if i % 2 else KBMap(*sample_rationals(rng, 2, 50, nonzero=True))
        periodic_points_exact(m, rng.randint(1, 5))
    assert len(built) == len(set(built)) == dynatomic._family.cache_info().currsize <= 10
    for n in range(1, 6):
        for m in (QuadraticMap(F(-29, 16)), KBMap(F(4, 3), F(-10, 3))):
            dynatomic_int(m, n)
            assert "_record" not in vars(m) and "_tower" not in vars(m), (m, n)
    m = QuadraticMap(F(-29, 16))
    dynatomic_int(m, 6)
    assert "_tower" not in vars(m)
