"""Period and dynatomic polynomials of the two map families.

Writing the n-th iterate of a degree-2 map in homogeneous form
[F_n(x,y) : G_n(x,y)] (both of degree 2^n), the n-period polynomial is
Phi_n = y*F_n - x*G_n and the n-th dynatomic polynomial is the Moebius
product  Phi*_n = prod_{d|n} Phi_d^{mu(n/d)},  computed here as one exact
division of the mu=+1 product by the mu=-1 product.  Every rational point of
exact period n is a root of Phi*_n; the converse needs an exact-period
filter because roots can have period strictly dividing n.

Univariate polynomials are the y=1 dehomogenizations.  A map's integer
iterate tower is built from its step record for each n asked.  With
D = den(c) for z^2 + c and D = den(k) den(b) for kz + b/z, its k-th entry
(F_k, G_k) is D^(2^k - 1) times the dehomogenized k-th iterate
(f_k, g_k).  A KB map is odd, so f_k is even and g_k odd: its tower is
kept in w = z^2, with f_k = F_k(w) and g_k = z G_k(w), at half the degree,
and spread back into z at the edge.  In both families Phi_k = F_k - x G_k,
with x = z or w.  The exact iterate and period polynomials divide
D^(2^k - 1) back out; the dynatomic polynomial needs no division, since
constant factors drop out of its canonical form: primitive integer
coefficients, positive leading coefficient.  ``_dynatomic_x`` returns it in
x, before the spread into z: for a KB map a polynomial in w whose roots are
the squares of its z-roots, which the KB scans root once per k for
kz + 1/z (``search``).

Up to n = 5 no map builds a tower for Phi*_n: each family has one over
Z[t] (Morton, Acta Arith. 1998; Silverman, The Arithmetic of Dynamical
Systems, 4.1), of z^2 + t in z and of tz + 1/z in w, built once per
process (``_family``) and evaluated homogeneously at t = c or k; as
kz + b/z is conjugate to b = 1 by w = b s, KB coefficient i is then
multiplied by bn^(deg - i) bd^i.  The bytes are the tower's: a map's tower
entries are constant multiples of the family's at t = c (or k, after
w = b s), and evaluation is a ring map, sending num = Phi*_n den over Z[t]
to the map's own identity with den(t0) != 0 (monic in z for z^2 + t, and
in w its constant term is a power of t).  The two quotients differ by a
constant, which the canonical form drops, as it strips a degree drop such
as k = +-1's.  The cutoff is measured, not derived: a family build at n = 6
(56 / 91 ms, quad / KB) costs what about 290 maps save, and
``ratdyn scan --kind kb`` at its default height-k 10 (127 k) is faster on
the towers, from height-k 20 on the family (CHANGES.md has the timings).
Reduced mod a small prime p, the family is also kept as a table over t in
P^1(F_p) (``_family_mod``): where Phi*_n mod p keeps its degree and has no
root in F_p, Phi*_n has no rational root (``_family_rootless``, which
asks only the primes whose table has such a t, ``_sieve_tables``).  A KB scan
skips each such k, and ``periodic_points_exact`` returns the empty set for
each such (m, n) of either family, n <= 5, without building Phi*_n.  The
closed forms (``classification``) never read this sieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from operator import mul
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple

from . import _intpoly
from .dynamics import Map, QuadraticMap, exact_period
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


_FAMILY_MAX_N = 5  # the last n specialised from the family (module docstring)
# Of the 126 k of height <= 10, these primes show 125 of the Phi*_3 of
# kz + 1/z, 114 of the Phi*_4 and all of the Phi*_5 to have no rational
# root; 4 of the other 12 Phi*_4 have one.  Of the 127 c of height <= 10
# they settle 118 of the Phi*_1 and Phi*_2 of z^2 + c and all of the
# Phi*_3, Phi*_4 and Phi*_5 (``_family_rootless``)
_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13)


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


@dataclass(frozen=True)
class IteratePair:
    """Homogeneous n-th iterate [F : G], both of degree 2^n, coprime."""

    F: HomogeneousPoly
    G: HomogeneousPoly
    n: int


def _grow(n: int, quad: bool, A: List[int], B: List[int], D: List[int]) -> tuple:
    """The first n entries (F_k, G_k) of a tower.

    f_1 = A z^2 + B and f' = A f^2 + B g^2, where A/D and B/D are the map's
    z^2 and constant coefficients (1, c or k, b); g' = D g^2 for z^2 + c and
    D f g for kz + b/z: the integers of the map's orbit step.  In w = z^2 a
    KB entry steps as F' = A F^2 + B w G^2, G' = D F G.  The scalars are
    vectors: constants for one map, powers of u for a family (``_family``).
    """
    tower = [(_intpoly.padd(B, [0] * (1 + quad) + A), D)]
    while len(tower) < n:
        f, g = tower[-1]
        gg = _intpoly.pmul(g, g)
        tower.append((
            _intpoly.padd(_intpoly.pmul(A, _intpoly.pmul(f, f)), _intpoly.pmul(B, gg if quad else [0] + gg)),
            _intpoly.pmul(D, gg if quad else _intpoly.pmul(f, g)),
        ))
    return tuple(tower)


def _tower(m: Map, n: int) -> Tuple[Tuple[List[int], List[int]], ...]:
    """The first n entries of m's integer iterate tower (``_grow``)."""
    if n < 1:
        raise parameter_excluded("n", n)
    quad, A, B, D, _, _, _ = m._record
    return _grow(n, quad, [A], [B], [D])


def _phi(f: List[int], g: List[int]) -> List[int]:
    """Phi_k = F_k - x G_k, in x = z (quad) or w = z^2 (KB)."""
    return _intpoly.psub(f, [0] + g)


def _in_z(m: Map, v: List[int], shift: int = 0) -> List[int]:
    """A tower vector in z: unchanged for a quad map, z^shift v(z^2) for KB."""
    if isinstance(m, QuadraticMap) or not v:
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


def _quotient(tower: tuple, n: int) -> List[int]:
    """Phi*_n of a tower, canonical: the product of its Phi_d with mu(n/d) = 1
    over the product of those with mu(n/d) = -1, by one exact division."""
    factors = {1: [], -1: []}
    for d in range(1, n + 1):
        if n % d == 0 and (mu := moebius(n // d)):
            factors[mu].append(_phi(*tower[d - 1]))
    num, den = (_intpoly.pprimitive(reduce(_intpoly.pmul, factors[mu] or [[1]])) for mu in (1, -1))
    return _intpoly.pprimitive(_intpoly.pdiv_exact(num, den))


@cache
def _family(quad: bool, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Phi*_n over Z[t] of z^2 + t in x = z, or of tz + 1/z in x = w: row i
    is the t-vector of x^i.  Kronecker's substitution x = u, t = u^S is a
    ring map, so ``_grow`` and ``_quotient`` build it in Z[u]; S exceeds the
    x-degree of Phi_n (2^n, or 2^(n-1) in w), so u^(i + S j) is x^i t^j."""
    S = 2 ** (n - 1 + quad) + 1
    t = [0] * S + [1]
    v = _quotient(_grow(n, quad, *(([1], t, [1]) if quad else (t, [1], [1]))), n)
    rows = [tuple(_intpoly.pstrip(v[i::S])) for i in range(S)]
    while not rows[-1]:
        rows.pop()
    return tuple(rows)


def _family_mod(quad: bool, n: int, p: int) -> Tuple[bool, ...]:
    """Entry t, t = 0..p-1 and t = p for infinity: whether the family's
    Phi*_n at t, reduced mod p, keeps its top coefficient and has no root
    in F_p.  At infinity, row i reduces to its t^e coefficient."""
    rows = _family(quad, n)
    e = max(map(len, rows)) - 1
    table = []
    for t in range(p + 1):
        powers = [pow(t, j, p) for j in range(e + 1)] if t < p else [0] * e + [1]
        coeffs = [sum(map(mul, row, powers)) % p for row in rows]
        table.append(coeffs[-1] != 0 and _intpoly._simple_roots_mod(coeffs, p) == [])
    return tuple(table)


@cache
def _sieve_tables(quad: bool, n: int) -> Tuple[Tuple[int, Tuple[bool, ...]], ...]:
    """(p, ``_family_mod`` table) for the primes p of ``_SIEVE_PRIMES``
    whose table has a True entry, built once per process: no other prime
    can settle anything (KB n = 1, 2 have none)."""
    return tuple((p, table) for p in _SIEVE_PRIMES if any(table := _family_mod(quad, n, p)))


def _family_rootless(quad: bool, n: int, tn: int, td: int) -> bool:
    """Whether ``_dynatomic_x`` of the family's map at t = tn / td (lowest
    terms, td > 0) is shown to have no rational root by a prime p of
    ``_SIEVE_PRIMES``, without building it.  Its coefficient i is
    sum_j row_i[j] tn^j td^(e-j): a unit times row i at t mod p, or at
    infinity when p divides td.  If ``_family_mod`` says that this keeps
    its top coefficient and has no root in F_p, then p divides no
    denominator v of a root u / v, which would reduce to a root in F_p.
    False decides nothing, as for every n past ``_FAMILY_MAX_N``."""
    if not 1 <= n <= _FAMILY_MAX_N:
        return False
    return any(table[p if td % p == 0 else tn * pow(td, -1, p) % p] for p, table in _sieve_tables(quad, n))


def _dynatomic_x(m: Map, n: int) -> List[int]:
    """Phi*_n as a canonical integer vector in x: z for a quad map, w = z^2
    for a KB map (its roots are the squares of the z-roots).  Up to
    ``_FAMILY_MAX_N`` the family's (module docstring), past it the tower's."""
    if not 1 <= n <= _FAMILY_MAX_N:
        return _quotient(_tower(m, n), n)
    quad = isinstance(m, QuadraticMap)
    rows = _family(quad, n)
    tn, td = (m.c if quad else m.k).as_integer_ratio()
    e = max(map(len, rows)) - 1
    w = [tn**j * td ** (e - j) for j in range(e + 1)]
    v = [sum(map(mul, row, w)) for row in rows]
    if not quad:
        bn, bd = m.b.as_integer_ratio()
        v = [c * bn ** (len(v) - 1 - i) * bd**i for i, c in enumerate(v)]
    return _intpoly.pprimitive(v)


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
    m: Map, n: int, *, height_bound: Optional[int] = None
) -> FrozenSet[Fraction]:
    """Rational points of exact period n: dynatomic roots + period filter.
    Every root of Phi*_n closes within n steps, so the filter walks n.

    Past the argument checks, an n <= ``_FAMILY_MAX_N`` at which the
    family sieve shows Phi*_n rootless (``_family_rootless``, at t = c, or
    at t = k in s = z^2 / b, free of b) gives the empty set without
    building or rooting Phi*_n: a rational z would give a rational root."""
    if n < 1:
        raise parameter_excluded("n", n)
    if height_bound is not None and height_bound < 1:
        raise parameter_excluded("height_bound", height_bound)
    quad = isinstance(m, QuadraticMap)
    if _family_rootless(quad, n, *(m.c if quad else m.k).as_integer_ratio()):
        return frozenset()
    roots = _intpoly.rational_roots_int(dynatomic_int(m, n), height_bound)
    return frozenset(r for r in roots if exact_period(m, r, max_steps=n) == n)
