"""Integer polynomial helpers and integer factoring for root extraction.

Coefficient vectors are plain ``list[int]`` in ascending degree.  The
dynatomic route runs entirely on these (no Fraction overhead); results are
converted at the boundary.  Factoring is trial division plus Brent's cycle method with a
Miller-Rabin primality test; dynatomic coefficients are highly smooth
(products of small map parameters), so this never stalls in practice.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import DomainError

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24 with these bases
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int, rng: random.Random) -> int:
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of |n| (n != 0)."""
    if n == 0:
        raise DomainError("parameter excluded: n=0")
    n = abs(n)
    out: Dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f < 100000:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += steps[i & 7]
            i += 1
    if n == 1:
        return out
    rng = random.Random(0xD1CE)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def all_divisors(n: int, power: int = 1) -> List[int]:
    """All positive d with d**power dividing |n|, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e // power + 1)]
    divs.sort()
    return divs


def divisors_up_to(n: int, bound: int, power: int = 1) -> List[int]:
    """Positive d <= bound with d**power dividing |n|, by direct trial."""
    n = abs(n)
    return [d for d in range(1, bound + 1) if n % d**power == 0]


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


def rational_roots_int(coeffs: Sequence[int], height_bound: Optional[int] = None) -> List[Fraction]:
    """Rational roots of an integer polynomial via divisor pairs.

    Candidates u/v come from u | a0, v | a_lead (rational root theorem);
    when P(z) = Q(z^2) is even, w = u^2/v^2 is a root of Q, so u^2 | a0 and
    v^2 | a_lead.  With ``height_bound`` the candidates are enumerated only
    up to the bound by direct trial, which keeps huge dynatomic coefficients
    cheap; without it they are built from a prime factorization.  The classical
    (u - v) | P(1) and (u + v) | P(-1) filters and a single-word modular
    check reject almost every candidate before any big evaluation.
    """
    c = pstrip(coeffs)
    if not c:
        raise DomainError("zero polynomial has all roots")
    roots: List[Fraction] = []
    shift = 0
    while c and c[0] == 0:
        shift += 1
        c = c[1:]
    if shift:
        roots.append(Fraction(0))
    if len(c) <= 1:
        return sorted(roots)
    if len(c) == 2:
        r = Fraction(-c[0], c[1])
        if height_bound is None or max(abs(r.numerator), r.denominator) <= height_bound:
            roots.append(r)
        return sorted(roots)
    if len(c) == 3:
        # quadratic: exact discriminant test beats divisor enumeration
        a0, a1, a2 = c
        disc = a1 * a1 - 4 * a2 * a0
        if disc >= 0:
            s = math.isqrt(disc)
            if s * s == disc:
                for num in (-a1 + s, -a1 - s):
                    r = Fraction(num, 2 * a2)
                    if height_bound is None or max(abs(r.numerator), r.denominator) <= height_bound:
                        roots.append(r)
        return sorted(set(roots))

    a0, alead = c[0], c[-1]
    # P(z) = Q(z^2) (a0 != 0 here): a root u/v has u^2 | a0 and v^2 | a_lead
    power = 1 if any(c[1::2]) else 2
    if height_bound is None:
        us, vs = all_divisors(a0, power), all_divisors(alead, power)
    else:
        us = divisors_up_to(a0, height_bound, power)
        vs = divisors_up_to(alead, height_bound, power)

    # integer Cauchy windows: every root u/v has |u| <= ub*v and v <= lb*|u|
    ub = max(abs(x) for x in c[:-1]) // abs(alead) + 2
    lb = max(abs(x) for x in c[1:]) // abs(a0) + 2

    p_at_1 = sum(c)
    p_at_m1 = sum(v if i % 2 == 0 else -v for i, v in enumerate(c))
    mod = (1 << 61) - 1
    cmod = [v % mod for v in c]

    for v in vs:
        lo = bisect.bisect_left(us, -(-v // lb))
        hi = bisect.bisect_right(us, ub * v)
        for au in us[lo:hi]:
            if math.gcd(au, v) != 1:
                continue
            for u in (au, -au):
                d1 = u - v
                if (p_at_1 % d1 if d1 else p_at_1) != 0:
                    continue
                d2 = u + v
                if (p_at_m1 % d2 if d2 else p_at_m1) != 0:
                    continue
                acc = 0
                vp = 1
                um = u % mod
                for i in range(len(c) - 1, -1, -1):
                    acc = (acc * um + cmod[i] * vp) % mod
                    vp = vp * v % mod
                if acc:
                    continue
                if phom_eval(c, u, v) == 0:
                    roots.append(Fraction(u, v))
    return sorted(set(roots))
