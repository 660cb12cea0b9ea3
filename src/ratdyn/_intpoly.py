"""Integer polynomial helpers and rational-root extraction.

Coefficient vectors are plain ``list[int]`` in ascending degree.  The
dynatomic route runs entirely on these (no Fraction overhead); results are
converted at the boundary.

Rational roots are found p-adically (Loos, SIAM J. Comput. 1983; von zur
Gathen & Gerhard, *Modern Computer Algebra*, 5.10 and 15.4), with no
factoring of coefficients.  Linear and quadratic polynomials are solved
directly.  An even ``P(z) = Q(z^2)`` of degree > 2 is rooted in
``w = z^2`` at the height bound ``B^2``, and each ``w`` that is the
square of a rational ``a/b`` gives the roots ``+-a/b``; at ``p = 2`` every
root of an even ``P`` is double, so that prime would always fail in ``z``.
A root of ``Q`` mod ``p`` that is no square mod ``p`` is neither lifted
nor asked to be simple.
Every other ``P``:

1. Take the smallest prime ``p`` that does not divide ``a_lead`` and at
   which every root of ``P mod p`` is simple.  A root ``u/v`` in lowest
   terms has ``v | a_lead``, so ``p`` does not divide ``v`` and ``u/v``
   reduces to a root of ``P mod p``.  A square-free ``P`` has only finitely
   many primes where two roots meet, so such a ``p`` exists; a repeated
   rational root makes every prime fail, so after three failed primes
   ``P`` is replaced once by its square-free part ``P / gcd(P, P')``.
   When ``P mod p`` has no root, neither has ``P``.
2. Newton-lift every root ``r`` mod ``p`` on its own until
   ``p^k > 2 N D``, where ``N = min(|a0|, B)`` and
   ``D = min(|a_lead|, B)`` bound ``|u|`` and ``v`` (``B`` is the optional
   height bound).  A simple root lifts to exactly one root mod ``p^k``,
   which for a rational root is ``u/v``.  The lift carries
   ``1/P'(r)`` along, refined by its own Newton step, so only the first
   step inverts, mod ``p``.
3. Rational reconstruction (half extended Euclid) recovers ``u/v``: two
   fractions within the bounds that agree mod ``p^k > 2 N D`` are equal,
   so the reconstruction is unique.  Each candidate is kept only when the
   exact homogeneous value ``P(u, v)`` is 0.

Distinct simple roots mod ``p`` lift to distinct roots, so the roots come
out distinct and are sorted without a set.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, parameter_excluded

# failed primes before the square-free part replaces P
_FAILS_BEFORE_SQUAREFREE = 3
# a prime for the modular square-free test, 2^31 - 1
_M31 = (1 << 31) - 1


# ---------------------------------------------------------------------------
# integer polynomial arithmetic (ascending coefficient lists)

def pstrip(c: Sequence[int]) -> List[int]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def pmul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def padd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, cb in enumerate(b):
        out[i] += cb
    return pstrip(out)


def psub(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, cb in enumerate(b):
        out[i] -= cb
    return pstrip(out)


def pscale(a: Sequence[int], s: int) -> List[int]:
    return [v * s for v in a]


def pprimitive(c: Sequence[int]) -> List[int]:
    """Divide out the content; normalize the leading coefficient positive."""
    c = pstrip(c)
    if not c:
        return []
    g = 0
    for v in c:
        g = math.gcd(g, v)
    c = [v // g for v in c]
    if c[-1] < 0:
        c = [-v for v in c]
    return c


def pdiv_exact(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Quotient of primitive integer polynomials when the division is exact.

    Every long-division step must divide in the integers and the remainder
    must vanish; anything else raises.
    """
    a, b = pstrip(a), pstrip(b)
    if not b:
        raise DomainError("dynatomic division failed")
    if not a:
        return []
    if len(a) < len(b):
        raise DomainError("dynatomic division failed")
    rem = list(a)
    lead = b[-1]
    dq = len(a) - len(b)
    quot = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        top = rem[i + len(b) - 1]
        if top % lead:
            raise DomainError("dynatomic division failed")
        q = top // lead
        quot[i] = q
        if q:
            for j, cb in enumerate(b):
                rem[i + j] -= q * cb
    if any(rem):
        raise DomainError("dynatomic division failed")
    return pstrip(quot)


def phom_eval(c: Sequence[int], u: int, v: int) -> int:
    """Homogenized value sum_i c[i] u^i v^(deg-i), Horner in u."""
    deg = len(c) - 1
    acc = 0
    vp = 1
    for i in range(deg, -1, -1):
        acc = acc * u + c[i] * vp
        vp *= v
    return acc


def _pgcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive gcd of two primitive integer polynomials, by evaluation.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989): for
    xi > 2 min(|a|, |b|) + 2, the primitive part of the balanced base-xi
    digits of gcd(a(xi), b(xi)) is gcd(a, b) whenever it divides a and b.
    That integer is e g(xi), with e dividing the resultant of a/g and b/g,
    so once xi > 2 e |g| it always does; xi is squared after each miss.
    A try costs one big-integer gcd, where a PRS builds coefficients that
    grow with the degree.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        gamma, digits = math.gcd(phom_eval(a, xi, 1), phom_eval(b, xi, 1)), []
        while gamma:
            digits.append((gamma + xi // 2) % xi - xi // 2)
            gamma = (gamma - digits[-1]) // xi
        g = pprimitive(digits)
        try:
            pdiv_exact(a, g), pdiv_exact(b, g)
            return g
        except DomainError:
            xi *= xi


def _coprime_mod(a: Sequence[int], b: Sequence[int], q: int) -> bool:
    """Whether a and b have a constant gcd mod the prime q (Euclid in F_q[x])."""
    a, b = pstrip([x % q for x in a]), pstrip([x % q for x in b])
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % q, len(a) - len(b)
            for j, cb in enumerate(b):
                a[shift + j] = (a[shift + j] - f * cb) % q
            a = pstrip(a)
        a, b = b, a
    return len(a) == 1


def _squarefree(c: List[int]) -> List[int]:
    """c / gcd(c, c').

    When q = 2^31 - 1 does not divide a_lead, a common factor of c and c'
    over Z reduces to one mod q; so a constant gcd mod q, found in O(deg^2)
    word operations, shows c square-free without the integer gcd, whose
    evaluations have about deg * bits bits.
    """
    c, der = pprimitive(c), pprimitive([i * a for i, a in enumerate(c)][1:])
    if c[-1] % _M31 and _coprime_mod(c, der, _M31):
        return c
    return pdiv_exact(c, _pgcd(c, der))


def _simple_roots_mod(c: Sequence[int], p: int, squares: bool = False) -> Optional[List[int]]:
    """The roots of c mod p, or None when one of them is a repeated root;
    with ``squares``, only the roots that are squares mod p (0 included)."""
    desc = [a % p for a in reversed(c)]
    roots = []
    for x in range(p):
        val = 0
        for a in desc:
            val = (val * x + a) % p
        if val == 0 and (not squares or pow(x, p >> 1, p) < 2):
            roots.append(x)
    for x in roots:
        val = der = 0
        for a in desc:
            der, val = (der * x + val) % p, (val * x + a) % p
        if der == 0:
            return None
    return roots


def _lift(c: Sequence[int], roots: List[int], p: int, bound: int) -> Tuple[List[int], int]:
    """Newton-lift simple roots mod p to roots mod m = p^(2^j) > bound.

    Each root r mod q is lifted on its own, with inv = 1/P'(r) mod q: one
    ``pow`` mod p, then Newton's step inv (2 - P'(r) inv) at each new r,
    which doubles inv's precision as r - P(r) inv doubles r's (the old inv
    is right mod the old q, where the old and new r agree).  P(r) and
    P'(r) come from one exact-integer Horner pass over the coefficients
    mod m, reduced once per step.
    """
    m = p
    while m <= bound:
        m *= m
    desc = [a % m for a in reversed(c)]
    lifted = []
    for r in roots:
        q, inv = p, 0
        while q < m:
            val = der = 0
            for a in desc:
                der = der * r + val
                val = val * r + a
            inv = inv * (2 - der * inv) % q if inv else pow(der, -1, q)
            q *= q
            r = (r - val * inv) % q
        lifted.append(r)
    return lifted, m


def _reconstruct(r: int, m: int, n_max: int, d_max: int) -> Optional[Tuple[int, int]]:
    """The u/v with |u| <= n_max, 0 < v <= d_max and u = r v mod m, if any.

    Half extended Euclid on (m, r), stopped at the first remainder <= n_max;
    the answer is unique when m > 2 n_max d_max (Wang's reconstruction).
    """
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > n_max:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if t1 <= d_max else None


def rational_roots_int(coeffs: Sequence[int], height_bound: Optional[int] = None) -> List[Fraction]:
    """Sorted distinct rational roots of an integer polynomial.

    With ``height_bound = B`` only roots of height at most ``B`` are
    returned; ``B < 1`` is a domain error.  Linear and quadratic polynomials
    are solved directly, an even one ``Q(z^2)`` in ``w = z^2``, and the
    others by p-adic lifting (module docstring).  No root is missed: a root
    ``u/v`` reduces to a simple root mod ``p``, since ``p`` divides neither
    ``a_lead`` nor ``v``; that root has a unique lift mod ``p^k > 2 N D``;
    and only ``u/v`` reconstructs from it within ``|u| <= N``, ``v <= D``.
    Nothing else is returned: every candidate is checked by exact
    evaluation.  The roots are distinct by construction, so they are
    sorted without a set.
    """
    if height_bound is not None and height_bound < 1:
        raise parameter_excluded("height_bound", height_bound)
    c = pstrip(coeffs)
    if not c:
        raise DomainError("zero polynomial has all roots")
    roots: List[Fraction] = []
    while c[0] == 0:
        roots, c = [Fraction(0)], c[1:]
    roots += _nonzero_roots(c, height_bound)
    if height_bound is not None:
        roots = [r for r in roots if max(abs(r.numerator), r.denominator) <= height_bound]
    return sorted(roots)


def _nonzero_roots(c: List[int], height_bound: Optional[int], squares: bool = False) -> List[Fraction]:
    """The distinct rational roots of c, where c[0] != 0.  Roots past
    height_bound may be among them; with ``squares``, roots that are not
    squares may be left out (``_padic_roots``).

    An even c = Q(z^2) of degree > 2 is rooted in w = z^2 at the bound
    B^2: a/b in lowest terms has height <= B exactly when a^2/b^2 has
    height <= B^2.  Each w > 0 whose numerator and denominator are squares
    gives the two roots +-sqrt(w).  At p = 2 every root of an even c is
    double, as c'(z) = 2z Q'(z^2), so that prime always fails in z.
    """
    if len(c) < 3:
        return [Fraction(-c[0], c[1])] if len(c) == 2 else []
    if len(c) == 3:  # quadratic: exact discriminant test
        a0, a1, a2 = c
        disc = a1 * a1 - 4 * a2 * a0
        s = math.isqrt(max(disc, 0))
        if s * s != disc:
            return []
        return [Fraction(-a1 + s, 2 * a2), Fraction(-a1 - s, 2 * a2)] if s else [Fraction(-a1, 2 * a2)]
    if not any(c[1::2]):
        roots = []
        for w in _nonzero_roots(c[::2], None if height_bound is None else height_bound * height_bound, True):
            a, b = math.isqrt(max(w.numerator, 0)), math.isqrt(w.denominator)
            if a * a == w.numerator and b * b == w.denominator:
                roots += [Fraction(-a, b), Fraction(a, b)]
        return roots
    return _padic_roots(c, height_bound, squares)


def _padic_roots(c: List[int], height_bound: Optional[int], squares: bool) -> List[Fraction]:
    """The rational roots of height <= height_bound of c, where c[0] != 0.

    With ``squares``, a root mod p that is not a square mod p is neither
    lifted nor asked to be simple: a square a^2/b^2 with p not dividing
    b^2 | a_lead reduces to the square (a/b)^2 mod p.
    """
    fails = 0
    for p in itertools.count(2):  # primes not dividing a_lead, by trial division
        if c[-1] % p == 0 or not all(p % d for d in range(2, math.isqrt(p) + 1)):
            continue
        mod_roots = _simple_roots_mod(c, p, squares)
        if mod_roots is not None:
            break
        fails += 1
        if fails == _FAILS_BEFORE_SQUAREFREE:
            c = _squarefree(c)
    if not mod_roots:
        return []
    n_max, d_max = abs(c[0]), abs(c[-1])
    if height_bound is not None:
        n_max, d_max = min(n_max, height_bound), min(d_max, height_bound)
    lifted, m = _lift(c, mod_roots, p, 2 * n_max * d_max)
    uvs = [_reconstruct(r, m, n_max, d_max) for r in lifted]
    return [Fraction(*uv) for uv in uvs if uv is not None and phom_eval(c, *uv) == 0]
