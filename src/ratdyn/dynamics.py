"""The two degree-2 map families and exact orbit computation.

``QuadraticMap(c)`` is f(z) = z^2 + c with homogeneous form
[x^2 + c y^2 : y^2]; ``KBMap(k, b)`` is phi(z) = k z + b/z with homogeneous
form [k x^2 + b y^2 : x y].  Every orbit walk is one loop, ``_walk``, on
coprime int pairs: it stops at a repeat, at the step bound, or at the first
finite point outside the map's local region, where no periodic point lies
(so a walk that leaves it never recurs): the Walde-Russo denominator and
escape radius of z^2 + c, and for kz + b/z the escape radius when |k| > 1
and the height bound K(m).  ``orbit``, ``exact_period`` and ``cycle_from``
read its result.  ``exact_period`` first runs the walk's own start test on
the same record and decides a start outside the region without a walk.  On
a KB map it then rejects, also without a walk, a start that fails a filter
on the valuations of s = z^2/b, which every periodic point passes but a
preperiodic one may fail, so ``orbit`` and ``cycle_from`` do not read it.
``orbit`` still reports a start outside the region as a one-point
``escapes`` tail, and a preperiodic start with its tail and cycle.  Every
walk takes one ``step`` on the map's integer record, built once per map on
first use and kept in its ``__dict__``, off the dataclass fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Tuple, Union

from .core import ProjectivePoint, format_rational, is_rational_square
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


def quad_window(n: int, d: int) -> Tuple[int, int]:
    """(e, top) for z^2 + c, c = n/d in lowest terms: every rational periodic
    point is u/e with |u| <= top; e = 0 when d is not a square, and none exists.
    Denominator (Walde-Russo, Amer. Math. Monthly 1994): at each prime p, with
    delta = v_p(c): if delta >= 0 and v_p(z) < 0, or delta < 0 and 2 v_p(z) !=
    delta, the iterates' valuations fall strictly, so z never recurs.  Hence
    delta is even and v_p(z) = min(0, delta / 2): d = e^2 and z = u/e.
    Numerator: |z|^2 > |z| + |c| gives |z| > 1 and |f(z)| >= |z|^2 - |c| >
    |z|, and t^2 - t grows for t > 1, so |z| grows and z never recurs.  So
    u^2 <= e |u| + |n|, that is |u| <= top = (e + isqrt(e^2 + 4|n|)) // 2."""
    e = isqrt(d)
    e = e if e * e == d else 0
    return e, (e + isqrt(e * e + 4 * abs(n))) // 2


class _StepRecord:
    """``m._record`` = (quad, a, b, c, q, (lo, hi, top, cx, cy), kb): built on
    first read into m's ``__dict__``, shadowing this descriptor: no dataclass
    field.

    ``step`` sends a canonical coprime pair (x, y) to (F, G) / gcd(F, G), with
    (F, G) = (a x^2 + b y^2, c y^2) for a quad map and (a x^2 + b y^2, c x y)
    for a KB map.  For coprime (x, y) the identities
      quad, c = n/d:  d^2 x^3 = (d x) F - (n x) G,  d^2 y^3 = (d y) G
      KB, A = kn bd, B = bn kd, C = kd bd:
          B (C x F - B y G) = ABC x^3,  A (C y F - A x G) = ABC y^3
    show gcd(F, G) | q = d^2 (resp. ABC), which the step uses.

    Every finite periodic point x/y lies in the region lo <= y <= hi,
    |x| <= top, cx x^2 <= cy y^2.  Each part is exact: past an escape radius
    |m(z)| > |z| and m(z) is past it too, so |z| grows and never recurs.
      quad: y = e and |x| <= top from ``quad_window`` (lo > hi if d is
          not a square), and cx = 0; this implies H <= K = d + |n|, so a
          quad map needs no K test.
      KB, |k| > 1 (|A| > C): (|k| - 1) |z|^2 > |b| gives |phi(z)| >= |k||z|
          - |b|/|z| > |z| (Call-Silverman, Compositio Math. 1993): cx =
          |A| - C, cy = |B|; else cx = 0.  The identities give H(m(P)) >=
          H(P)^2 / K, K = max(|B|(C+|B|), |A|(C+|A|)) (compare Silverman,
          The Arithmetic of Dynamical Systems, Prop. 2.13), so hi = top = K;
          lo = 1, as 0 maps to the fixed point infinity.

    kb is None for a quad map and (kn, kd, bn, bd) for a KB map, k = kn/kd
    and b = bn/bd in lowest terms: the start filter of ``exact_period``.  The
    substitution s = z^2/b sends k z + b/z to psi(s) = (k s + 1)^2 / s, free
    of b.  At a prime p, with v = v_p(s):
      p not dividing kn kd: v > 0 gives v_p(psi(s)) = -v < 0, and a negative
          valuation w stays w (v_p(k s + 1) = w), so s never recurs;
      p | kd, delta = v_p(kd) > 0: v < delta gives v_p(k s + 1) = v - delta
          and v_p(psi(s)) = v - 2 delta, still below delta, so it falls
          strictly; v > delta gives v_p(psi(s)) = -v < delta, so it then falls.
    s is a function of z, so a periodic z = x/y has v_p(s) <= 0 at every p
    not dividing kn kd and v_p(s) = v_p(kd) at every p | kd: |num(x^2 bd /
    (y^2 bn))| = kd r, every prime of r dividing kn (and z = 0 maps to
    infinity).  Nothing holds for preperiodic points: on kz + b/z with k = 4/3,
    b = -10/3, the start -5/4 fails the filter and maps to 1 on the 4-cycle
    1 -> -2 -> -1 -> 2, so ``_walk``, ``orbit`` and ``cycle_from`` never read it.
    """

    def __get__(self, m: Map, cls=None) -> tuple:
        if quad := isinstance(m, QuadraticMap):
            n, d = m.c.as_integer_ratio()
            e, top = quad_window(n, d)
            rec = quad, d, n, d, d * d, (e or 1, e, top, 0, 0), None
        else:
            (kn, kd), (bn, bd) = m.k.as_integer_ratio(), m.b.as_integer_ratio()
            a, b, c = kn * bd, bn * kd, kd * bd
            K = max(abs(b) * (c + abs(b)), abs(a) * (c + abs(a)))
            region = 1, K, K, max(abs(a) - c, 0), abs(b)
            rec = quad, a, b, c, a * b * c, region, (kn, kd, bn, bd)
        return m.__dict__.setdefault("_record", rec)


def step(rec: tuple, x: int, y: int) -> Tuple[int, int]:
    """The image of the canonical pair (x, y) under the map of ``rec``."""
    quad, a, b, c, q, _, _ = rec
    f, g = a * x * x + b * y * y, c * y * (y if quad else x)
    h = gcd(f, q, g) * (1 if (g or f) > 0 else -1)  # y > 0, or (1 : 0)
    return f // h, g // h


@dataclass(frozen=True)
class QuadraticMap:
    """f(z) = z^2 + c."""

    c: Fraction
    _record = _StepRecord()

    def describe(self) -> str:
        return f"quad:c={format_rational(self.c)}"


@dataclass(frozen=True)
class KBMap:
    """phi(z) = k z + b/z with k, b nonzero."""

    k: Fraction
    b: Fraction
    _record = _StepRecord()

    def __post_init__(self):
        if self.k == 0:
            raise parameter_excluded("k", 0)
        if self.b == 0:
            raise parameter_excluded("b", 0)

    def describe(self) -> str:
        return f"kb:k={format_rational(self.k)},b={format_rational(self.b)}"


Map = Union[QuadraticMap, KBMap]


def aut_is_c2(m: KBMap) -> bool:
    """Whether the automorphism group of phi_{k,b} is exactly C2 (k != -1/2)."""
    return m.k != Fraction(-1, 2)


def apply_map(m: Map, p: ProjectivePoint) -> ProjectivePoint:
    """Exact image of p in P^1(Q), canonicalized.

    Infinity is fixed by both families; a KB map sends 0 to infinity.
    """
    return ProjectivePoint._canonical(*step(m._record, p.x, p.y))


def _walk(rec: tuple, pair: Tuple[int, int], max_steps: int) -> Tuple[dict, Union[int, str]]:
    """The one orbit loop.  Returns the pairs visited from ``pair``, as a
    dict from pair to index in visit order, and how the walk ended: the
    index the last step returned to; "escapes", the last pair being the
    first finite one outside the map's region (``_StepRecord``); or
    "bound-exceeded" after ``max_steps`` pairs.  Infinity, fixed by both
    families, ends the walk as a repeat without a step."""
    if max_steps < 1:
        raise parameter_excluded("max_steps", max_steps)
    lo, hi, top, cx, cy = rec[5]
    seen = {}
    for i in range(max_steps):
        x, y = pair
        seen[pair] = i
        if not (lo <= y <= hi and abs(x) <= top and (not cx or cx * x * x <= cy * y * y)):
            return seen, "escapes" if y else i  # lo >= 1 keeps infinity out
        pair = step(rec, x, y)
        if pair in seen:
            return seen, seen[pair]
    return seen, "bound-exceeded"


def cycle_from(m: Map, start: Fraction, max_steps: int = DEFAULT_MAX_STEPS) -> Optional[Tuple[Fraction, ...]]:
    """The cycle through the finite ``start`` in orbit order, or None if the
    orbit does not return to ``start`` within ``max_steps`` steps."""
    seen, end = _walk(m._record, start.as_integer_ratio(), max_steps)
    return tuple(Fraction(x, y) for x, y in seen) if end == 0 else None


@dataclass(frozen=True)
class OrbitReport:
    """Forward-orbit summary.

    status "periodic": ``cycle`` is the detected cycle in orbit order and
    ``tail`` the pre-periodic segment (empty when the start point is on the
    cycle).  status "escapes": ``tail`` holds every point visited and ends
    with the first one outside the map's local region, so the start is not
    preperiodic; ``cycle`` is empty.  status "bound-exceeded": no repeat
    within the step bound, every point inside the region; ``tail`` holds
    them all, ``cycle`` is empty.
    """

    tail: Tuple[ProjectivePoint, ...]
    cycle: Tuple[ProjectivePoint, ...]
    status: str

    @property
    def is_periodic(self) -> bool:
        return self.status == "periodic"


def orbit(m: Map, start: ProjectivePoint, max_steps: int = DEFAULT_MAX_STEPS) -> OrbitReport:
    """Iterate from ``start`` until a repeat, until the first point outside
    the map's local region, or until ``max_steps`` points.

    At most ``max_steps`` points are retained and at most ``max_steps``
    images computed, so a cycle of length ``max_steps`` closes.
    """
    seen, end = _walk(m._record, (start.x, start.y), max_steps)
    points = tuple(ProjectivePoint._canonical(x, y) for x, y in seen)
    if isinstance(end, str):
        return OrbitReport(points, (), end)
    return OrbitReport(points[:end], points[end:], "periodic")


def exact_period(m: Map, p, max_steps: int = DEFAULT_MAX_STEPS) -> Optional[int]:
    """Least n <= max_steps with m^n(p) == p, or None.

    Returns None for points that are preperiodic with a nonempty tail and for
    points whose orbit did not close within the bound.  No periodic point
    lies outside the map's region (``_StepRecord``): after ``max_steps`` is
    checked, a start outside it is decided without a walk (None, or 1 for
    infinity), and a walk stops at the first image outside it.  On a KB map a
    start inside the region that fails the valuation filter on s = z^2/b
    (``_StepRecord``), which no periodic point fails, is None without a walk.
    Accepts a ProjectivePoint or anything convertible to Fraction.
    """
    if max_steps < 1:
        raise parameter_excluded("max_steps", max_steps)
    if type(p) is Fraction:  # the common case, tested first
        x, y = p.as_integer_ratio()
    elif isinstance(p, ProjectivePoint):
        x, y = p.x, p.y
    else:
        x, y = Fraction(p).as_integer_ratio()
    rec = m._record
    lo, hi, top, cx, cy = rec[5]
    if not (lo <= y <= hi and abs(x) <= top and (not cx or cx * x * x <= cy * y * y)):
        return None if y else 1  # _walk's first test, decided without a walk
    if kb := rec[6]:  # the KB start filter (``_StepRecord``): |num(s)| = kd r
        kn, kd, bn, bd = kb
        t = x * x * bd
        r, rem = divmod(t // gcd(t, y * y * bn), kd)
        if rem or not r:  # 0 maps to infinity
            return None
        while (g := gcd(r, kn)) > 1:
            r //= g
        if r != 1:  # a prime of r not in kn
            return None
    seen, end = _walk(rec, (x, y), max_steps)
    return len(seen) if end == 0 else None


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
