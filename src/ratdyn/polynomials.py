"""Univariate and homogeneous bivariate polynomials over Q.

A ``Poly`` stores one integer coefficient vector ``nums`` in ascending
degree over one positive denominator ``den``, reduced so that no trailing
coefficient is zero and gcd(content, den) = 1; the zero polynomial is
``((), 1)``.  That form is unique, so equality and hashing compare it, and
``+``, ``-`` and ``*`` are the integer vector operations of ``_intpoly``.
``coeffs`` gives the ``Fraction`` coefficients.  A ``HomogeneousPoly`` of
degree d stores d+1 ``Fraction`` coefficients, entry i being the
coefficient of x^i * y^(d-i).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Tuple

from . import _intpoly
from .core import format_rational
from .errors import DomainError

__all__ = ["Poly", "HomogeneousPoly"]

_ZERO = Fraction(0)


class Poly:
    """Polynomial in one variable with rational coefficients."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        self._reduce([c.numerator * (den // c.denominator) for c in coeffs], den)

    def _reduce(self, nums: Sequence[int], den: int) -> None:
        """Store nums / den (den > 0) in the reduced form."""
        nums = _intpoly.pstrip(nums)
        g = gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(v // g for v in nums) if g > 1 else tuple(nums))
        object.__setattr__(self, "den", den // g if nums else 1)

    @classmethod
    def _of(cls, nums: Sequence[int], den: int) -> "Poly":
        """The polynomial nums / den, for an integer vector and a den > 0."""
        p = object.__new__(cls)
        p._reduce(nums, den)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients in ascending degree, as ``Fraction``."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def _combine(self, other: "Poly", op) -> "Poly":
        """``op`` (padd or psub) on the two vectors over their least common denominator."""
        g = gcd(self.den, other.den)
        a, b = self.den // g, other.den // g
        return Poly._of(op(_intpoly.pscale(self.nums, b), _intpoly.pscale(other.nums, a)), a * other.den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, _intpoly.padd)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, _intpoly.psub)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._of(_intpoly.pmul(self.nums, other.nums), self.den * other.den)

    def scale(self, r) -> "Poly":
        r = Fraction(r)
        return Poly._of(_intpoly.pscale(self.nums, r.numerator), self.den * r.denominator)

    def content_den_cleared(self) -> Tuple[int, ...]:
        """Integer coefficient vector: denominators cleared, content removed.

        Sign is normalized so the leading coefficient is positive.  The zero
        polynomial maps to the empty tuple.
        """
        return tuple(_intpoly.pprimitive(self.nums))

    def canonical(self) -> "Poly":
        """Primitive integer coefficients with positive leading coefficient."""
        return Poly._of(_intpoly.pprimitive(self.nums), 1)

    def to_string(self, var: str = "z") -> str:
        """Descending-degree rendering, e.g. ``2*z^4 + 4*z^2 + 1``."""
        if not self.nums:
            return "0"
        parts = []
        coeffs = self.coeffs
        for e in range(self.degree, -1, -1):
            c = coeffs[e]
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

    @classmethod
    def homogenize(cls, p: Poly, degree: int) -> "HomogeneousPoly":
        if p.degree > degree:
            raise DomainError("parameter excluded: degree too small to homogenize")
        coeffs = list(p.coeffs) + [_ZERO] * (degree - p.degree)
        return cls(degree, coeffs)

    def __repr__(self):
        return f"HomogeneousPoly(deg={self.degree}, {self.coeffs})"
