"""Exact rational scalars, projective points, and height-ordered enumeration.

Rational numbers are ``fractions.Fraction`` values throughout: the stdlib
type already keeps ``gcd(|num|, den) == 1``, ``den >= 1`` and represents zero
as ``0/1``, which is exactly the canonical form every routine here relies on.
This module adds the measure-and-search layer on top: the naive height, exact
square roots, duplicate-free enumeration of all rationals up to a height
bound, and the text grammar used by the CLI and the JSON reports.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .errors import DomainError

__all__ = [
    "Rational",
    "normalize_rational",
    "height",
    "rational_sqrt",
    "is_rational_square",
    "rational_pairs",
    "enumerate_rationals",
    "count_rationals",
    "parse_rational",
    "format_ratio",
    "format_rational",
    "ProjectivePoint",
    "INFINITY",
    "parse_point",
    "format_point",
]

Rational = Fraction

# CLI / JSON grammar: "n" or "n/d", one optional leading minus, no whitespace.
_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def normalize_rational(n: int, d: int) -> Fraction:
    """Return the canonical fraction n/d (sign on the numerator).

    Raises DomainError("division by zero") when d == 0.
    """
    if d == 0:
        raise DomainError("division by zero")
    return Fraction(n, d)


def height(r: Fraction) -> int:
    """Naive height max(|numerator|, denominator) of a reduced fraction."""
    return max(abs(r.numerator), r.denominator)


def rational_sqrt(r: Fraction) -> Optional[Fraction]:
    """The nonnegative s with s*s == r, or None when r is not a square.

    A reduced fraction is a square exactly when numerator and denominator
    are both perfect integer squares.
    """
    if r < 0:
        return None
    num, den = r.numerator, r.denominator
    sn = math.isqrt(num)
    if sn * sn != num:
        return None
    sd = math.isqrt(den)
    if sd * sd != den:
        return None
    return Fraction(sn, sd)


def is_rational_square(r: Fraction) -> bool:
    return rational_sqrt(r) is not None


def _height_slice(h: int):
    """All reduced (n, d) with max(|n|, d) == h, sorted by (n, d)."""
    if h == 1:
        return [(-1, 1), (0, 1), (1, 1)]
    out = []
    # |n| == h, 1 <= d < h
    for d in range(1, h):
        if math.gcd(h, d) == 1:
            out.append((-h, d))
            out.append((h, d))
    # d == h, 1 <= |n| < h
    for n in range(1, h):
        if math.gcd(n, h) == 1:
            out.append((-n, h))
            out.append((n, h))
    out.sort()
    return out


def rational_pairs(bound: int) -> Iterator[Tuple[int, int]]:
    """Yield (numerator, denominator) of each rational of height <= bound,
    in the order of ``enumerate_rationals``."""
    if bound < 1:
        raise DomainError(f"parameter excluded: bound={bound}")
    for h in range(1, bound + 1):
        yield from _height_slice(h)


def enumerate_rationals(bound: int) -> Iterator[Fraction]:
    """Yield every rational of height <= bound exactly once.

    Order: ascending height, then numerator, then denominator.  The order is
    part of the contract; scan reports rely on it being reproducible.
    """
    for n, d in rational_pairs(bound):
        yield Fraction(n, d)


def count_rationals(bound: int) -> int:
    """Number of rationals of height <= bound: 4 Phi(bound) - 1, Phi the
    totient sum, by Phi(n) = n (n + 1) / 2 - sum_{d >= 2} Phi(n // d) over
    the values n = bound // k, smallest first (no enumeration, no sieve)."""
    if bound < 1:
        raise DomainError(f"parameter excluded: bound={bound}")
    r, phi = math.isqrt(bound), {}
    for n in [*range(1, r + 1), *(bound // k for k in range(r, 0, -1))]:
        total, d = n * (n + 1) // 2, 2
        while d <= n:
            e = n // (n // d) + 1  # n // d is the same for d..e-1
            total -= (e - d) * phi[n // d]
            d = e
        phi[n] = total
    return 4 * phi[bound] - 1


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" (optional leading minus, no whitespace)."""
    if not _RATIONAL_RE.match(text):
        raise DomainError(f"invalid rational: {text!r}")
    n, _, d = text.partition("/")
    try:
        n, d = int(n), int(d or 1)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise DomainError(f"invalid rational: {text!r}") from None
    return normalize_rational(n, d)


def format_ratio(n: int, d: int) -> str:
    """The rational n/d, given in lowest terms with d > 0, as "n" or "n/d"."""
    return str(n) if d == 1 else f"{n}/{d}"


def format_rational(r: Fraction) -> str:
    return format_ratio(r.numerator, r.denominator)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^1(Q) as a coprime integer pair (x : y).

    Canonical form: gcd(|x|, |y|) == 1 and y > 0, or (y == 0 and x == 1),
    so the point at infinity is exactly (1 : 0).  Construction canonicalizes,
    hence (x, y) and (-x, -y) build the same object.
    """

    x: int
    y: int

    def __post_init__(self):
        x, y = self.x, self.y
        if x == 0 and y == 0:
            raise DomainError("parameter excluded: (x,y)=(0,0)")
        g = math.gcd(abs(x), abs(y))
        x //= g
        y //= g
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_rational(cls, r: Fraction) -> "ProjectivePoint":
        return cls(r.numerator, r.denominator)

    @classmethod
    def _canonical(cls, x: int, y: int) -> "ProjectivePoint":
        """Wrap a pair already in canonical form, skipping the gcd."""
        pt = object.__new__(cls)
        object.__setattr__(pt, "x", x)
        object.__setattr__(pt, "y", y)
        return pt

    @property
    def is_infinity(self) -> bool:
        return self.y == 0

    def to_rational(self) -> Optional[Fraction]:
        """The affine value x/y, or None for the point at infinity."""
        if self.y == 0:
            return None
        return Fraction(self.x, self.y)

    def __repr__(self):
        return f"ProjectivePoint({self.x}, {self.y})"


INFINITY = ProjectivePoint(1, 0)


def parse_point(text: str) -> ProjectivePoint:
    """Parse a point: the rational grammar, or "inf" for infinity."""
    if text == "inf":
        return INFINITY
    return ProjectivePoint.from_rational(parse_rational(text))


def format_point(p: ProjectivePoint) -> str:
    if p.is_infinity:
        return "inf"
    return format_rational(Fraction(p.x, p.y))
