"""Period and dynatomic polynomials of the two map families.

Writing the n-th iterate of a degree-2 map in homogeneous form
[F_n(x,y) : G_n(x,y)] (both of degree 2^n), the n-period polynomial is
Phi_n = y*F_n - x*G_n and the n-th dynatomic polynomial is the Moebius
product  Phi*_n = prod_{d|n} Phi_d^{mu(n/d)},  computed here as one exact
division of the mu=+1 product by the mu=-1 product.  Every rational point of
exact period n is a root of Phi*_n; the converse needs an exact-period
filter because roots can have period strictly dividing n.

Univariate polynomials are the y=1 dehomogenizations.  There is one iterate
builder, on integer coefficient lists: with D = den(c) for z^2 + c and
D = den(k) den(b) for kz + b/z, its k-th pair (f_k, g_k) is exactly
D^(2^k - 1) times the dehomogenized k-th iterate.  The exact iterate and
period polynomials divide that power back out; the dynatomic polynomial
needs no division, since constant factors drop out of its canonical form:
primitive integer coefficients, positive leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple

from . import _intpoly
from .dynamics import DEFAULT_MAX_STEPS, Map, exact_period
from .errors import DomainError, parameter_excluded
from .polynomials import HomogeneousPoly, Poly

__all__ = [
    "moebius",
    "IteratePair",
    "iterate_pair",
    "period_polynomial",
    "dynatomic_polynomial",
    "period4_dynatomic_factors",
    "rational_roots",
    "periodic_points_exact",
]


def moebius(n: int) -> int:
    """Moebius function: 1, (-1)^l for squarefree n with l prime factors, else 0."""
    if n < 1:
        raise parameter_excluded("n", n)
    if n == 1:
        return 1
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class IteratePair:
    """Homogeneous n-th iterate [F : G], both of degree 2^n, coprime."""

    F: HomogeneousPoly
    G: HomogeneousPoly
    n: int


def _int_iterates(m: Map, n: int) -> Tuple[List[Tuple[List[int], List[int]]], int]:
    """Integer iterate components (f_k, g_k) for k = 1..n, and the factor D.

    Each (f_k, g_k) is exactly D^(2^k - 1) times the dehomogenized k-th
    iterate, with D = den(c) for z^2 + c and D = den(k) den(b) for kz + b/z.
    """
    if n < 1:
        raise parameter_excluded("n", n)
    # f_1 = A z^2 + B and f' = A f^2 + B g^2, where A/D and B/D are the
    # map's z^2 and constant coefficients (1, c or k, b); g' = D g^2 for
    # z^2 + c and D f g for kz + b/z: the integers of the map's orbit step
    quad, A, B, D, _, _ = m._record
    f, g = [B, 0, A], ([D] if quad else [0, D])
    pairs = [(f, g)]
    for _ in range(n - 1):
        gg = _intpoly.pmul(g, g)
        f, g = (
            _intpoly.padd(_intpoly.pscale(_intpoly.pmul(f, f), A), _intpoly.pscale(gg, B)),
            _intpoly.pscale(gg if quad else _intpoly.pmul(f, g), D),
        )
        pairs.append((f, g))
    return pairs, D


def _exact_iterate(m: Map, n: int) -> Tuple[Poly, Poly]:
    """The dehomogenized n-th iterate (f_n, g_n) with exact coefficients."""
    pairs, D = _int_iterates(m, n)
    scale = D ** (2**n - 1)
    return tuple(Poly([Fraction(c, scale) for c in v]) for v in pairs[-1])


def iterate_pair(m: Map, n: int) -> IteratePair:
    """Symbolic homogeneous n-th iterate of the map."""
    f, g = _exact_iterate(m, n)
    deg = 2**n
    return IteratePair(
        HomogeneousPoly.homogenize(f, deg), HomogeneousPoly.homogenize(g, deg), n
    )


def period_polynomial(m: Map, n: int) -> Poly:
    """Phi_n(z): the y=1 dehomogenization of y*F_n - x*G_n, exact coefficients."""
    f, g = _exact_iterate(m, n)
    return f - Poly([0, 1]) * g


def dynatomic_int(m: Map, n: int) -> List[int]:
    """Canonical integer coefficient vector of the n-th dynatomic polynomial."""
    phis = [_intpoly.psub(f, [0] + g) for f, g in _int_iterates(m, n)[0]]
    num = [1]
    den = [1]
    for d in _divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            num = _intpoly.pmul(num, phis[d - 1])
        elif mu == -1:
            den = _intpoly.pmul(den, phis[d - 1])
    num = _intpoly.pprimitive(num)
    den = _intpoly.pprimitive(den)
    return _intpoly.pprimitive(_intpoly.pdiv_exact(num, den))


def dynatomic_polynomial(m: Map, n: int) -> Poly:
    """Phi*_n in canonical form (primitive integer, positive leading coeff)."""
    return Poly(dynatomic_int(m, n))


def period4_dynatomic_factors(k: Fraction, b: Fraction) -> Tuple[Poly, Poly]:
    """The two factors of Phi*_4 for phi(z) = kz + b/z.

    The degree-4 factor carries every rational period-4 point; the degree-8
    cofactor has no rational roots.  Coefficients are evaluated exactly at
    (k, b).
    """
    k, b = Fraction(k), Fraction(b)
    if k == 0:
        raise parameter_excluded("k", 0)
    if b == 0:
        raise parameter_excluded("b", 0)
    quartic = Poly([b * b * k, 0, 2 * b + 2 * b * k**2, 0, k + k**3])
    cofactor = Poly(
        [
            b**4 * k**5,
            0,
            b**3 + b**3 * k**2 + 2 * b**3 * k**4 + 4 * b**3 * k**6,
            0,
            b**2 * k + 3 * b**2 * k**3 + 4 * b**2 * k**5 + 6 * b**2 * k**7,
            0,
            b * k**4 + 2 * b * k**6 + 4 * b * k**8,
            0,
            k**9,
        ]
    )
    return quartic, cofactor


def rational_roots(p: Poly, height_bound: Optional[int] = None) -> FrozenSet[Fraction]:
    """All rational roots of p (multiplicities discarded).

    Denominators are cleared, and the roots of the integer polynomial are
    found by p-adic lifting (``_intpoly.rational_roots_int``): the roots
    mod the smallest prime ``p`` not dividing ``a_lead`` at which they are
    all simple are Newton-lifted to ``p^k > 2 N D`` and rationally
    reconstructed, and each candidate is checked exactly.  A root ``u/v``
    has ``|u| <= N = |a0|`` and ``v <= D = |a_lead|``, and reduces to a
    simple root mod ``p``, whose unique lift gives back ``u/v``; so no root
    is missed.  ``height_bound = B`` restricts the result to roots of
    height <= B (``N``, ``D`` are capped at ``B``, so huge coefficients stay
    cheap when only bounded points matter); ``B < 1`` is a domain error.
    """
    if p.is_zero:
        raise DomainError("zero polynomial has all roots")
    ints = p.content_den_cleared()
    return frozenset(_intpoly.rational_roots_int(list(ints), height_bound))


def periodic_points_exact(
    m: Map,
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    height_bound: Optional[int] = None,
) -> FrozenSet[Fraction]:
    """Rational points of exact period n: dynatomic roots + period filter."""
    roots = _intpoly.rational_roots_int(dynatomic_int(m, n), height_bound)
    return frozenset(r for r in roots if exact_period(m, r, max_steps=max_steps) == n)
