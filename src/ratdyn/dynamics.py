"""The two degree-2 map families and exact orbit computation.

``QuadraticMap(c)`` is f(z) = z^2 + c with homogeneous form
[x^2 + c y^2 : y^2]; ``KBMap(k, b)`` is phi(z) = k z + b/z with homogeneous
form [k x^2 + b y^2 : x y].  Orbits are computed with exact projective
arithmetic and cycle detection by a visited-point set: over Q an orbit
either repeats or its heights blow up, and the step bound (plus an optional
height bound) handles wandering points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .core import ProjectivePoint, is_rational_square
from .errors import DomainError, parameter_excluded

__all__ = [
    "QuadraticMap",
    "KBMap",
    "Map",
    "OrbitReport",
    "aut_is_c2",
    "apply_map",
    "orbit",
    "exact_period",
    "normalize_quadratic",
    "kb_conjugate_equivalent",
]

DEFAULT_MAX_STEPS = 64

# Wandering orbits of both families square their heights every step, so a
# walk that passes this bound cannot be closing up on any cycle of a map
# with desk-scale coefficients; it reports bound-exceeded instead of
# computing astronomically large exact values.  Pass height_bound=None to
# disable the guard.
DEFAULT_HEIGHT_BOUND = 10**150


@dataclass(frozen=True)
class QuadraticMap:
    """f(z) = z^2 + c."""

    c: Fraction

    def describe(self) -> str:
        from .core import format_rational

        return f"quad:c={format_rational(self.c)}"


@dataclass(frozen=True)
class KBMap:
    """phi(z) = k z + b/z with k, b nonzero."""

    k: Fraction
    b: Fraction

    def __post_init__(self):
        if self.k == 0:
            raise parameter_excluded("k", 0)
        if self.b == 0:
            raise parameter_excluded("b", 0)

    def describe(self) -> str:
        from .core import format_rational

        return f"kb:k={format_rational(self.k)},b={format_rational(self.b)}"


Map = Union[QuadraticMap, KBMap]


def aut_is_c2(m: KBMap) -> bool:
    """Whether the automorphism group of phi_{k,b} is exactly C2 (k != -1/2)."""
    return m.k != Fraction(-1, 2)


def apply_map(m: Map, p: ProjectivePoint) -> ProjectivePoint:
    """Exact image of p in P^1(Q), canonicalized.

    Infinity is fixed by both families; a KB map sends 0 to infinity.
    """
    x, y = p.x, p.y
    if isinstance(m, QuadraticMap):
        cn, cd = m.c.numerator, m.c.denominator
        return ProjectivePoint(cd * x * x + cn * y * y, cd * y * y)
    kn, kd = m.k.numerator, m.k.denominator
    bn, bd = m.b.numerator, m.b.denominator
    return ProjectivePoint(kn * bd * x * x + bn * kd * y * y, kd * bd * x * y)


def cycle_from(m: Map, start: Fraction, length: int) -> Tuple[Fraction, ...]:
    """``start`` and its next ``length - 1`` images, for a finite cycle."""
    pt = ProjectivePoint.from_rational(start)
    out = []
    for _ in range(length):
        out.append(pt.to_rational())
        pt = apply_map(m, pt)
    return tuple(out)


@dataclass(frozen=True)
class OrbitReport:
    """Forward-orbit summary.

    status "periodic": ``cycle`` is the detected cycle in orbit order and
    ``tail`` the pre-periodic segment (empty when the start point is on the
    cycle).  status "bound-exceeded": no repeat was seen within the step
    bound (or the optional height bound); ``tail`` holds every distinct
    point visited, ``cycle`` is empty.
    """

    tail: Tuple[ProjectivePoint, ...]
    cycle: Tuple[ProjectivePoint, ...]
    status: str

    @property
    def is_periodic(self) -> bool:
        return self.status == "periodic"


def orbit(
    m: Map,
    start: ProjectivePoint,
    max_steps: int = DEFAULT_MAX_STEPS,
    height_bound: Optional[int] = DEFAULT_HEIGHT_BOUND,
) -> OrbitReport:
    """Iterate from ``start`` until a repeat or until max_steps points.

    At most ``max_steps`` distinct points are retained and at most
    ``max_steps`` images computed.  The walk also stops (bound-exceeded)
    once a point's height passes ``height_bound``; None disables that.
    """
    if max_steps < 1:
        raise parameter_excluded("max_steps", max_steps)
    seen = [start]
    index = {start: 0}
    while True:
        nxt = apply_map(m, seen[-1])
        hit = index.get(nxt)
        if hit is not None:
            return OrbitReport(tuple(seen[:hit]), tuple(seen[hit:]), "periodic")
        if len(seen) >= max_steps:
            return OrbitReport(tuple(seen), (), "bound-exceeded")
        if height_bound is not None and nxt.point_height() > height_bound:
            seen.append(nxt)
            return OrbitReport(tuple(seen), (), "bound-exceeded")
        index[nxt] = len(seen)
        seen.append(nxt)


def _as_point(p) -> ProjectivePoint:
    if isinstance(p, ProjectivePoint):
        return p
    return ProjectivePoint.from_rational(Fraction(p))


def exact_period(m: Map, p, max_steps: int = DEFAULT_MAX_STEPS) -> Optional[int]:
    """Least n <= max_steps with m^n(p) == p, or None.

    Returns None for points that are preperiodic with a nonempty tail and for
    points whose orbit did not close within the bound.  Accepts a
    ProjectivePoint or anything convertible to Fraction.
    """
    rep = orbit(m, _as_point(p), max_steps=max_steps)
    if rep.status == "periodic" and not rep.tail:
        return len(rep.cycle)
    return None


def normalize_quadratic(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """The c' with A z^2 + B z + C linearly conjugate to z^2 + c'.

    Conjugating by l(z) = A z + B/2 gives c' = AC + B/2 - B^2/4.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise DomainError("not quadratic")
    return a * c + b / 2 - b * b / 4


def kb_conjugate_equivalent(m1: KBMap, m2: KBMap) -> bool:
    """Linear conjugacy over Q: equal k and b1/b2 a rational square."""
    return m1.k == m2.k and is_rational_square(m1.b / m2.b)
