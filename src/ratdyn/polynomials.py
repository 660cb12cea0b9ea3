"""Univariate and homogeneous bivariate polynomials over Q.

A ``Poly`` is an immutable coefficient tuple in ascending degree with no
trailing zeros (the zero polynomial is the empty tuple).  A
``HomogeneousPoly`` of degree d stores d+1 coefficients, entry i being the
coefficient of x^i * y^(d-i).  Everything is exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Tuple

from . import _intpoly
from .core import format_rational
from .errors import DomainError

__all__ = ["Poly", "HomogeneousPoly"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _strip(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(Fraction(c) for c in coeffs[:n])


class Poly:
    """Polynomial in one variable with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _strip(list(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def scale(self, r) -> "Poly":
        r = Fraction(r)
        return Poly([c * r for c in self.coeffs])

    def __call__(self, x: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        """Long division over Q: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise DomainError("division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [_ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top:
                q = top / lead
                quot[i] = q
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= q * c
        return Poly(quot), Poly(rem)

    def divide_exact(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise DomainError("dynatomic division failed")
        return q

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over Q (Euclid)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a.scale(1 / a.coeffs[-1])

    @property
    def is_even(self) -> bool:
        """True when only even powers carry nonzero coefficients."""
        return all(c == 0 for c in self.coeffs[1::2])

    def content_den_cleared(self) -> Tuple[int, ...]:
        """Integer coefficient vector: denominators cleared, content removed.

        Sign is normalized so the leading coefficient is positive.  The zero
        polynomial maps to the empty tuple.
        """
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return tuple(_intpoly.pprimitive([int(c * den) for c in self.coeffs]))

    def canonical(self) -> "Poly":
        """Primitive integer coefficients with positive leading coefficient."""
        return Poly(self.content_den_cleared())

    def to_string(self, var: str = "z") -> str:
        """Descending-degree rendering, e.g. ``2*z^4 + 4*z^2 + 1``."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if e == 0:
                term = mag
            else:
                v = var if e == 1 else f"{var}^{e}"
                term = v if abs(c) == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_string()})"


class HomogeneousPoly:
    """Homogeneous bivariate polynomial; coeffs[i] is the x^i y^(d-i) entry."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise DomainError(
                f"parameter excluded: need {degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("HomogeneousPoly is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPoly)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        acc = _ZERO
        xp = _ONE
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * xp * y ** (self.degree - i)
            xp *= x
        return acc

    def dehomogenize(self) -> Poly:
        """Set y = 1."""
        return Poly(self.coeffs)

    @classmethod
    def homogenize(cls, p: Poly, degree: int) -> "HomogeneousPoly":
        if p.degree > degree:
            raise DomainError("parameter excluded: degree too small to homogenize")
        coeffs = list(p.coeffs) + [_ZERO] * (degree - p.degree)
        return cls(degree, coeffs)

    def __repr__(self):
        return f"HomogeneousPoly(deg={self.degree}, {self.coeffs})"
