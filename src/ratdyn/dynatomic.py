"""Period and dynatomic polynomials of the two map families.

Writing the n-th iterate of a degree-2 map in homogeneous form
[F_n(x,y) : G_n(x,y)] (both of degree 2^n), the n-period polynomial is
Phi_n = y*F_n - x*G_n and the n-th dynatomic polynomial is the Moebius
product  Phi*_n = prod_{d|n} Phi_d^{mu(n/d)},  computed here as one exact
division of the mu=+1 product by the mu=-1 product.  Every rational point of
exact period n is a root of Phi*_n; the converse needs an exact-period
filter because roots can have period strictly dividing n.

Univariate polynomials are the y=1 dehomogenizations.  They are built
from one integer iterate tower per map, kept in the map's ``__dict__``
next to its step record and extended on demand, so the n asked of one map
share Phi_1..Phi_max.  With D = den(c) for z^2 + c and D = den(k) den(b)
for kz + b/z, its k-th entry (F_k, G_k) is D^(2^k - 1) times the
dehomogenized k-th iterate (f_k, g_k).  A KB map is odd, so f_k is even
and g_k odd: its tower is kept in w = z^2, with f_k = F_k(w) and
g_k = z G_k(w), at half the degree, and spread back into z at the edge.
In both families Phi_k = F_k - x G_k, with x = z or w.  The exact iterate
and period polynomials divide D^(2^k - 1) back out; the dynatomic
polynomial needs no division, since constant factors drop out of its
canonical form: primitive integer coefficients, positive leading
coefficient.  ``_dynatomic_x`` returns it in x, before the spread into z:
for a KB map a polynomial in w whose roots are the squares of its z-roots,
which the KB scans root once per k for kz + 1/z (``search``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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


def _tower(m: Map, n: int) -> Tuple[Tuple[List[int], List[int]], ...]:
    """The first n entries (F_k, G_k) of m's integer iterate tower.

    f_1 = A z^2 + B and f' = A f^2 + B g^2, where A/D and B/D are the map's
    z^2 and constant coefficients (1, c or k, b); g' = D g^2 for z^2 + c and
    D f g for kz + b/z: the integers of the map's orbit step.  In w = z^2 a
    KB entry steps as F' = A F^2 + B w G^2, G' = D F G.  A longer tower
    replaces the stored one whole, so a reader never sees a partial one.
    """
    if n < 1:
        raise parameter_excluded("n", n)
    tower = m.__dict__.get("_tower", ())
    if len(tower) < n:
        quad, A, B, D, _, _ = m._record
        tower = list(tower) or [([B, 0, A] if quad else [B, A], [D])]
        while len(tower) < n:
            f, g = tower[-1]
            gg = _intpoly.pmul(g, g)
            tower.append((
                _intpoly.padd(_intpoly.pscale(_intpoly.pmul(f, f), A),
                              _intpoly.pscale(gg if quad else [0] + gg, B)),
                _intpoly.pscale(gg if quad else _intpoly.pmul(f, g), D),
            ))
        tower = m.__dict__["_tower"] = tuple(tower)
    return tower


def _phi(f: List[int], g: List[int]) -> List[int]:
    """Phi_k = F_k - x G_k, in x = z (quad) or w = z^2 (KB)."""
    return _intpoly.psub(f, [0] + g)


def _in_z(m: Map, v: List[int], shift: int = 0) -> List[int]:
    """A tower vector in z: unchanged for a quad map, z^shift v(z^2) for KB."""
    if m._record[0] or not v:
        return v
    out = [0] * (2 * len(v) - 1 + shift)
    out[shift::2] = v
    return out


def _exact(m: Map, n: int, v: List[int], shift: int = 0) -> Poly:
    """The exact polynomial of a level-n tower vector: D^(2^n - 1) divided out."""
    return Poly._of(_in_z(m, v, shift), m._record[3] ** (2**n - 1))


def iterate_pair(m: Map, n: int) -> IteratePair:
    """Symbolic homogeneous n-th iterate of the map."""
    f, g = _tower(m, n)[n - 1]
    deg = 2**n
    return IteratePair(
        HomogeneousPoly.homogenize(_exact(m, n, f), deg),
        HomogeneousPoly.homogenize(_exact(m, n, g, 1), deg),
        n,
    )


def period_polynomial(m: Map, n: int) -> Poly:
    """Phi_n(z): the y=1 dehomogenization of y*F_n - x*G_n, exact coefficients."""
    return _exact(m, n, _phi(*_tower(m, n)[n - 1]))


def _dynatomic_x(m: Map, n: int) -> List[int]:
    """Phi*_n as a canonical integer vector in the tower's variable x: z for
    a quad map, w = z^2 for a KB map (its roots are the squares of the
    z-roots).  Only the Phi_d with mu(n/d) != 0 are formed."""
    tower, factors = _tower(m, n), {1: [], -1: []}
    for d in _divisors(n):
        if mu := moebius(n // d):
            factors[mu].append(_phi(*tower[d - 1]))
    num, den = (_intpoly.pprimitive(reduce(_intpoly.pmul, factors[mu] or [[1]])) for mu in (1, -1))
    return _intpoly.pprimitive(_intpoly.pdiv_exact(num, den))


def dynatomic_int(m: Map, n: int) -> List[int]:
    """Canonical integer coefficient vector of the n-th dynatomic polynomial:
    ``_dynatomic_x`` spread back into z."""
    return _in_z(m, _dynatomic_x(m, n))


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

    The roots of p's primitive integer vector, by p-adic lifting
    (``_intpoly.rational_roots_int``, whose docstring shows that no root is
    missed).  ``height_bound = B`` keeps the roots of height <= B, so huge
    coefficients stay cheap when only bounded points matter; ``B < 1`` is a
    domain error.
    """
    if p.is_zero:
        raise DomainError("zero polynomial has all roots")
    return frozenset(_intpoly.rational_roots_int(p.content_den_cleared(), height_bound))


def periodic_points_exact(
    m: Map,
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    height_bound: Optional[int] = None,
) -> FrozenSet[Fraction]:
    """Rational points of exact period n: dynatomic roots + period filter."""
    roots = _intpoly.rational_roots_int(dynatomic_int(m, n), height_bound)
    return frozenset(r for r in roots if exact_period(m, r, max_steps=max_steps) == n)
