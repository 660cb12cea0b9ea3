"""Closed-form rational periodic points and their one-parameter families.

For f(z) = z^2 + c the rational cycles of length 1, 2, 3 are classified by
square conditions and a tau-parametrization; for phi(z) = kz + b/z the
lengths 1, 2, 4 are classified (length 3 never occurs over Q).  Each closed
form here has the dynatomic machinery as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple

from ._intpoly import rational_roots_int
from .dynamics import KBMap, QuadraticMap, cycle_from, exact_period
from .core import rational_sqrt
from .errors import DomainError, parameter_excluded
from .polynomials import Poly

__all__ = [
    "quad_periodic_points",
    "quad_period3_cycle",
    "Period3Family",
    "period3_family",
    "kb_periodic_points",
    "kb_period4_cycle",
    "KBPeriod4Family",
    "kb_period4_family",
    "kb_map_with_fixed_and_period2",
    "quad_witness",
    "kb_witness",
    "period3_tau_cubics",
]

_HALF = Fraction(1, 2)


def quad_periodic_points(c: Fraction, n: int) -> FrozenSet[Fraction]:
    """Rational points of exact period n (n in 1, 2, 3) of z^2 + c.

    Period 1: the roots of z^2 - z + c when 1 - 4c is a square (a single
    point when 1 - 4c = 0).  Period 2: the roots of z^2 + z + c + 1 when
    -4c - 3 is a nonzero square.  Period 3: the rational roots of
    Phi*_3 = z^6 + z^5 + (3c+1) z^4 + (2c+1) z^3 + (3c^2+3c+1) z^2
    + (c+1)^2 z + c^3 + 2c^2 + c + 1, here times d^3 for c = a/d.
    """
    c = Fraction(c)
    if n == 1:
        s = rational_sqrt(1 - 4 * c)
        if s is None:
            return frozenset()
        rho = s / 2
        return frozenset({_HALF + rho, _HALF - rho})
    if n == 2:
        s = rational_sqrt(-4 * c - 3)
        if s is None or s == 0:
            return frozenset()
        sigma = s / 2
        return frozenset({-_HALF + sigma, -_HALF - sigma})
    if n == 3:
        a, d = c.as_integer_ratio()
        return frozenset(rational_roots_int([
            a**3 + 2 * a * a * d + a * d * d + d**3, (a + d) ** 2 * d,
            (3 * a * a + 3 * a * d + d * d) * d, (2 * a + d) * d * d, (3 * a + d) * d * d, d**3, d**3,
        ]))
    raise parameter_excluded("n", n)


def quad_period3_cycle(c: Fraction) -> Optional[Tuple[Fraction, Fraction, Fraction]]:
    """The rational 3-cycle of z^2 + c in orbit order from its largest point."""
    pts = quad_periodic_points(c, 3)
    if not pts:
        return None
    return cycle_from(QuadraticMap(Fraction(c)), max(pts), 3)


@dataclass(frozen=True)
class Period3Family:
    """tau-parametrized 3-cycle of z^2 + c: f cyclically permutes x1, x2, x3."""

    tau: Fraction
    c: Fraction
    x1: Fraction
    x2: Fraction
    x3: Fraction

    @property
    def points(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.x1, self.x2, self.x3)


def period3_family(tau: Fraction) -> Period3Family:
    """The 3-cycle family of z^2 + c at parameter tau (tau not 0 or -1)."""
    tau = Fraction(tau)
    if tau == 0 or tau == -1:
        raise parameter_excluded("tau", tau)
    t = tau
    denom = 2 * t * (t + 1)
    c = -Fraction(
        t**6 + 2 * t**5 + 4 * t**4 + 8 * t**3 + 9 * t**2 + 4 * t + 1
    ) / (4 * t**2 * (t + 1) ** 2)
    x1 = (t**3 + 2 * t**2 + t + 1) / denom
    x2 = (t**3 - t - 1) / denom
    x3 = -(t**3 + 2 * t**2 + 3 * t + 1) / denom
    return Period3Family(tau, c, x1, x2, x3)


def kb_periodic_points(k: Fraction, b: Fraction, n: int) -> FrozenSet[Fraction]:
    """Rational points of exact period n (n in 1, 2, 4) of kz + b/z.

    Fixed points are +-m with b/(1-k) = m^2 (k != 1); period-2 points are
    +-m with b/(k+1) = -m^2 (k != -1).  Period-4 points are the rational
    roots of the quartic factor of Phi*_4 that survive the exact-period
    filter.  In w = z^2 that factor is (k+k^3)w^2 + 2b(1+k^2)w + b^2 k, of
    discriminant 4b^2(1+k^2); so with s^2 = 1+k^2 its roots are
    w = -b(s -+ 1)/(ks), and z = +-sqrt(w).
    """
    m = KBMap(Fraction(k), Fraction(b))
    if n == 1:
        if m.k == 1:
            return frozenset()
        s = rational_sqrt(m.b / (1 - m.k))
        if s is None or s == 0:
            return frozenset()
        return frozenset({s, -s})
    if n == 2:
        if m.k == -1:
            return frozenset()
        s = rational_sqrt(-m.b / (m.k + 1))
        if s is None or s == 0:
            return frozenset()
        return frozenset({s, -s})
    if n == 4:
        s = rational_sqrt(1 + m.k * m.k)
        if s is None:
            return frozenset()
        pts = set()
        for w in (-m.b * (s - 1) / (m.k * s), -m.b * (s + 1) / (m.k * s)):
            r = rational_sqrt(w)
            if r is not None:
                pts.update((r, -r))
        return frozenset(r for r in pts if exact_period(m, r) == 4)
    raise parameter_excluded("n", n)


def kb_period4_cycle(k: Fraction, b: Fraction) -> Optional[Tuple[Fraction, ...]]:
    """The rational 4-cycle of kz + b/z in orbit order from its largest point."""
    pts = kb_periodic_points(k, b, 4)
    if not pts:
        return None
    return cycle_from(KBMap(Fraction(k), Fraction(b)), max(pts), 4)


@dataclass(frozen=True)
class KBPeriod4Family:
    """m-parametrized 4-cycle of kz + b/z; points in orbit order."""

    m: Fraction
    k: Fraction
    b: Fraction
    points: Tuple[Fraction, Fraction, Fraction, Fraction]


def kb_period4_family(m: Fraction) -> KBPeriod4Family:
    """The 4-cycle family at parameter m (m not 0, 1, -1):
    k = 2m/(m^2-1), b = -m/(m^4-1), cycle 1/(m^2+1) -> -m/(m^2+1) -> ...
    """
    m = Fraction(m)
    if m == 0 or m == 1 or m == -1:
        raise parameter_excluded("m", m)
    k = 2 * m / (m**2 - 1)
    b = -m / (m**4 - 1)
    d = m**2 + 1
    pts = (Fraction(1) / d, -m / d, Fraction(-1) / d, m / d)
    return KBPeriod4Family(m, k, b, pts)


def kb_map_with_fixed_and_period2(q1: Fraction, q2: Fraction) -> KBMap:
    """The unique kz + b/z with fixed point q1 and exact-period-2 point q2.

    k = (-q2^2 - q1^2)/(q2^2 - q1^2), b = 2 q1^2 q2^2/(q2^2 - q1^2);
    requires q1, q2 nonzero with q1^2 != q2^2.
    """
    q1, q2 = Fraction(q1), Fraction(q2)
    if q1 == 0:
        raise parameter_excluded("q1", q1)
    if q2 == 0:
        raise parameter_excluded("q2", q2)
    if q1 * q1 == q2 * q2:
        raise DomainError("degenerate pair: q1^2=q2^2")
    denom = q2 * q2 - q1 * q1
    return KBMap((-q2 * q2 - q1 * q1) / denom, 2 * q1 * q1 * q2 * q2 / denom)


def quad_witness(c: Fraction, n: int) -> Optional[Fraction]:
    """A parameter witnessing the period-n classification of z^2 + c, read
    off ``quad_periodic_points``.

    n=1: rho = max - 1/2 of the points 1/2 +- rho, so c = 1/4 - rho^2;
    n=2: sigma = max + 1/2 of the points -1/2 +- sigma, so c = -3/4 - sigma^2;
    n=3: a tau of a point q with c = tau - q - q^2, x1(tau) = q: its family
    produces this cycle.  None when no rational period-n point exists.
    """
    c = Fraction(c)
    pts = quad_periodic_points(c, n)
    if not pts:
        return None
    if n == 3:
        return min((t for q in pts for t in period3_taus(q) if t - q - q * q == c), default=None)
    return max(pts) - _HALF if n == 1 else max(pts) + _HALF


def kb_witness(k: Fraction, b: Fraction, n: int) -> Optional[Fraction]:
    """A parameter witnessing the period-n classification of kz + b/z, read
    off ``kb_periodic_points`` (which refuses k = 0 or b = 0).

    n=1, n=2: the largest point m of the pair +-m of the square condition;
    n=4: the cycle ratio p/phi(p) from the largest cycle point p (it
    satisfies k = 2m/(m^2-1)).  None when no rational period-n point exists.
    """
    k, b = Fraction(k), Fraction(b)
    pts = kb_periodic_points(k, b, n)
    if not pts:
        return None
    p = max(pts)
    return p / (k * p + b / p) if n == 4 else p


def period3_taus(q: Fraction) -> List[Fraction]:
    """The sorted rational tau with x1(tau) = q; none is 0 or -1.

    The x1 cubic cleared of 2 tau (tau + 1) is, for q = qn/qd,
    qd tau^3 + (2qd - 2qn) tau^2 + (qd - 2qn) tau + qd; it is qd at both
    tau = 0 and tau = -1.  The x2 and x3 cubics add no c: sigma(tau) =
    -1/(tau + 1) keeps c, and x2(sigma t) = x1(t), x3(sigma^2 t) = x1(t),
    so a tau with x2(tau) = q or x3(tau) = q is sigma or sigma^2 of a root
    of this cubic.
    """
    qn, qd = Fraction(q).as_integer_ratio()
    return rational_roots_int([qd, qd - 2 * qn, 2 * qd - 2 * qn, qd])


def period3_tau_cubics(q: Fraction):
    """For each of x1, x2, x3: the cubic in tau with x_i(tau) = q.

    Built symbolically from the family formulas by clearing the common
    denominator 2 tau (tau + 1).
    """
    q = Fraction(q)
    denom = Poly([0, 2, 2])  # 2 tau (tau+1)
    numerators = (
        Poly([1, 1, 2, 1]),  # tau^3 + 2 tau^2 + tau + 1
        Poly([-1, -1, 0, 1]),  # tau^3 - tau - 1
        Poly([-1, -3, -2, -1]),  # -(tau^3 + 2 tau^2 + 3 tau + 1)
    )
    return [num - denom.scale(q) for num in numerators]
