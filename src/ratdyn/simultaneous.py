"""Pairs of degree-2 maps sharing a rational periodic point.

Three layers:

* quad/KB triples (k, b, c): one-parameter families making a given p
  periodic for z^2 + c (period 1, 2 or via the 3-cycle parametrization) and
  simultaneously periodic of period 1, 2 or 4 for kz + b/z;
* KB/KB quadruples (k1, b1, k2, b2) with a common periodic point, the
  two-point-intersection subfamilies, and the finite/infinite dichotomy for
  a pair of prescribed periodic values (infinite families exist exactly when
  a^2 = b^2);
* the at-most-three quadratic polynomials z^2 + c_i sharing one periodic
  rational point.

Every side is a row of the two tables of ``classification``: a KB side of
``_ROWS`` (periods 1, 2, 4), read by ``_kb_row``, and a quad side of
``_QUAD_ROWS`` (periods 1, 2, 3), read by ``_quad_row``; the family
descriptors are built from ``_ROWS``.  The claimed periods are cheap to
re-verify by exact orbit iteration, and the heavier generators do so before
returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

from .classification import (
    _QUAD_ROWS,
    _ROWS,
    _kb_row,
    _quad_row,
    kb_map_with_fixed_and_period2,
    period3_family,
    period3_taus,
)
from .dynamics import KBMap, Map, QuadraticMap, cycle_from, exact_period
from .errors import DomainError, parameter_excluded

__all__ = [
    "MixedFamilyTriple",
    "triples_fixed_point",
    "triples_period2",
    "triples_period3",
    "orbit_intersection",
    "two_point_intersection_mixed",
    "two_point_intersection_period3",
    "KBPairQuadruple",
    "kb_pair_family",
    "two_point_intersection_kb",
    "KBFamilyDescriptor",
    "SimultaneousMapEntry",
    "SimultaneousPointResult",
    "maps_with_both_periodic",
    "SharedMapEntry",
    "quadratics_with_periodic_point",
]


@dataclass(frozen=True)
class MixedFamilyTriple:
    """A (k, b, c) with shared_point periodic for both z^2+c and kz+b/z."""

    k: Fraction
    b: Fraction
    c: Fraction
    f_period: int
    phi_period: int
    shared_point: Fraction
    parameters: Dict[str, Fraction] = field(default_factory=dict)

    def quadratic(self) -> QuadraticMap:
        return QuadraticMap(self.c)

    def kb(self) -> KBMap:
        return KBMap(self.k, self.b)


def _triple(c: Fraction, f_period: int, x: Fraction, n: int, param: Fraction, s: Fraction,
            parameters: Dict[str, Fraction]) -> MixedFamilyTriple:
    """z^2 + c with x of period f_period, and the KB row n at (x, s); the
    row's parameter is given as param, named q, or m for n = 4."""
    if n not in _ROWS:
        raise parameter_excluded("n", n)
    name = "m" if n == 4 else "q"
    k, b = _kb_row(n, x, s, name, param)
    return MixedFamilyTriple(k, b, c, f_period, n, x, {**parameters, name: param})


def _quad_triple(f_period: int, p: Fraction, n: int, param: Fraction) -> MixedFamilyTriple:
    """p of period f_period (1 or 2) for quad row f_period, and of period n
    for kz + b/z: KB row n at s = -q/p (n = 1), s = q/p (n = 2) or s = m
    (n = 4)."""
    p, param = Fraction(p), Fraction(param)
    if p == 0 or p in _QUAD_ROWS[f_period][1]:
        raise parameter_excluded("p", p)
    s = {1: -param / p, 2: param / p}.get(n, param)
    return _triple(_quad_row(f_period, p), f_period, p, n, param, s, {"p": p})


def triples_fixed_point(p: Fraction, n: int, param: Fraction) -> MixedFamilyTriple:
    """p a rational fixed point of z^2 + c and of period n for kz + b/z.

    c = p - p^2 (quad row 1); the KB side is the row at s = -q/p (n = 1),
    s = q/p (n = 2) or s = m (n = 4).
    """
    return _quad_triple(1, p, n, param)


def triples_period2(p: Fraction, n: int, param: Fraction) -> MixedFamilyTriple:
    """p of exact period 2 for z^2 + c and of period n for kz + b/z.

    c = -(p^2 + p + 1) (quad row 2); p not in {0, -1/2} (the 2-cycle is
    p, -p-1).  The KB side is as in ``triples_fixed_point``.
    """
    return _quad_triple(2, p, n, param)


def triples_period3(
    tau: Fraction, i: int, n: int, param: Fraction
) -> MixedFamilyTriple:
    """x_i(tau), a period-3 point of z^2 + c_tau, also periodic for kz + b/z.

    n=1: (k, b) = (1 - q, q x_i^2); n=2: (q - 1, -q x_i^2) with q not in
    {0, 1}; n=4: the m-parametrized 4-cycle row at p = x_i.
    """
    tau, param = Fraction(tau), Fraction(param)
    if i not in (1, 2, 3):
        raise parameter_excluded("i", i)
    fam = period3_family(tau)  # validates tau
    return _triple(fam.c, 3, fam.points[i - 1], n, param, param, {"tau": tau, "i": Fraction(i)})


# ---------------------------------------------------------------------------
# orbit intersections

def orbit_intersection(m1: Map, m2: Map, p: Fraction) -> FrozenSet[Fraction]:
    """Exact intersection of the two orbit sets of a common periodic point."""
    p = Fraction(p)
    cycles = [cycle_from(m, p) for m in (m1, m2)]
    if None in cycles:
        raise DomainError("not a common periodic point")
    return frozenset(cycles[0]).intersection(cycles[1])


def two_point_intersection_mixed(p: Fraction, sign: int) -> MixedFamilyTriple:
    """The quad/KB pair whose orbits through p meet in exactly {p, -p-1}.

    (k, b, c) = (+-2p(p+1)/(2p+1), -+p(p+1)(p^2+(p+1)^2)/(2p+1),
    -(p^2+p+1)); p not in {0, -1/2, -1}.  The quadratic 2-cycle is
    (p, -p-1); the KB 4-cycle is (p, -p-1, -p, p+1) for the + branch.
    """
    p = Fraction(p)
    if sign not in (1, -1):
        raise parameter_excluded("sign", sign)
    if p in (0, Fraction(-1, 2), -1):
        raise parameter_excluded("p", p)
    k, b = _kb_row(4, p, -sign * p / (p + 1), "p", p)  # p -> -sign (p + 1)
    return MixedFamilyTriple(k, b, _quad_row(2, p), 2, 4, p, {"p": p, "sign": Fraction(sign)})


def two_point_intersection_period3(
    tau: Fraction, i: int, j: int, sign: int
) -> MixedFamilyTriple:
    """The quad/KB pair whose orbits through x_i meet in exactly {x_i, x_j}.

    m = +-x_i/x_j must avoid {0, 1, -1}; the KB cycle is
    (x_i, x_i/m, -x_i, -x_i/m) and the quadratic side is the 3-cycle at tau.
    """
    tau = Fraction(tau)
    if sign not in (1, -1):
        raise parameter_excluded("sign", sign)
    if not (1 <= i < j <= 3):
        raise parameter_excluded("(i,j)", f"({i},{j})")
    fam = period3_family(tau)
    xi, xj = fam.points[i - 1], fam.points[j - 1]
    m = Fraction(sign) * xi / xj
    k, b = _kb_row(4, xi, m, "m_tau")
    parameters = {"tau": tau, "i": Fraction(i), "j": Fraction(j), "sign": Fraction(sign)}
    return MixedFamilyTriple(k, b, fam.c, 3, 4, xi, parameters)


# ---------------------------------------------------------------------------
# KB/KB pairs

_ROW_PERIODS = {
    1: (1, 1),
    2: (2, 2),
    3: (4, 4),
    4: (1, 2),
    5: (1, 4),
    6: (2, 4),
}


@dataclass(frozen=True)
class KBPairQuadruple:
    """Two KB maps sharing the periodic point shared_point."""

    k1: Fraction
    b1: Fraction
    k2: Fraction
    b2: Fraction
    periods: Tuple[int, int]
    shared_point: Fraction
    parameters: Dict[str, Fraction] = field(default_factory=dict)

    def first(self) -> KBMap:
        return KBMap(self.k1, self.b1)

    def second(self) -> KBMap:
        return KBMap(self.k2, self.b2)


def kb_pair_family(row: int, p: Fraction, s1: Fraction, s2: Fraction) -> KBPairQuadruple:
    """Row of the six-row table of KB pairs sharing the periodic point p.

    Rows pair period lengths (1,1), (2,2), (4,4), (1,2), (1,4), (2,4) in
    that order; each side is s-parametrized with s not in {0, 1} for
    lengths 1 and 2 and s not in {0, 1, -1} for length 4.
    """
    p, s1, s2 = Fraction(p), Fraction(s1), Fraction(s2)
    if row not in _ROW_PERIODS:
        raise parameter_excluded("row", row)
    if p == 0:
        raise parameter_excluded("p", p)
    n1, n2 = _ROW_PERIODS[row]
    k1, b1 = _kb_row(n1, p, s1, "s1")
    k2, b2 = _kb_row(n2, p, s2, "s2")
    return KBPairQuadruple(
        k1, b1, k2, b2, (n1, n2), p, {"p": p, "s1": s1, "s2": s2}
    )


def two_point_intersection_kb(
    case: int, p: Fraction, s1: Fraction, s2: Fraction
) -> KBPairQuadruple:
    """KB pairs whose orbits through p intersect in exactly {p, -p}.

    case 1: both sides period 2; case 2: period 2 and period 4; case 3:
    both period 4 with s1 != +-s2 (equality makes the maps coincide up to
    sign and the whole 4-cycles merge).
    """
    p, s1, s2 = Fraction(p), Fraction(s1), Fraction(s2)
    if p == 0:
        raise parameter_excluded("p", p)
    row = {1: 2, 2: 6, 3: 3}.get(case)
    if row is None:
        raise parameter_excluded("case", case)
    if case == 3 and (s1 == s2 or s1 == -s2):
        raise DomainError("maps coincide up to sign")
    return kb_pair_family(row, p, s1, s2)


# ---------------------------------------------------------------------------
# prescribed pair of periodic values (finite/infinite dichotomy)

@dataclass(frozen=True)
class KBFamilyDescriptor:
    """One-parameter family of KB maps keeping p periodic of fixed period."""

    kind: str  # "fixed" | "period2" | "period4"
    p: Fraction
    period: int
    k_formula: str
    b_formula: str
    excluded: Tuple[Fraction, ...]

    def map_at(self, s: Fraction) -> KBMap:
        return KBMap(*_kb_row(self.period, self.p, Fraction(s), "s"))


def _family_descriptors(p: Fraction) -> Tuple[KBFamilyDescriptor, ...]:
    return tuple(KBFamilyDescriptor(kind, p, n, k_text, b_text, tuple(map(Fraction, excluded)))
                 for n, (kind, _, k_text, b_text, excluded) in _ROWS.items())


@dataclass(frozen=True)
class SimultaneousMapEntry:
    map: KBMap
    period_a: int
    period_b: int


@dataclass(frozen=True)
class SimultaneousPointResult:
    """Outcome for a pair of prescribed periodic values (a, b).

    ``infinite`` is True exactly when a^2 = b^2; then ``families`` holds the
    three one-parameter family descriptors.  Otherwise ``maps`` is the
    complete finite list, each member re-verified by orbit iteration.
    """

    a: Fraction
    b: Fraction
    infinite: bool
    families: Tuple[KBFamilyDescriptor, ...] = ()
    maps: Tuple[SimultaneousMapEntry, ...] = ()


def maps_with_both_periodic(a: Fraction, b: Fraction) -> SimultaneousPointResult:
    """All KB maps with both a and b rational periodic points.

    Infinitely many exist iff a^2 = b^2 (three one-parameter families).
    Otherwise the list is finite: the two maps with {fixed point, period-2
    point} = {a, b} in either role, and the two 4-cycle maps through both
    (cycle ratio s = +-a/b).  Every returned map is verified by iteration.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise parameter_excluded("a", a)
    if b == 0:
        raise parameter_excluded("b", b)
    if a * a == b * b:
        return SimultaneousPointResult(a, b, True, families=_family_descriptors(a))

    entries: List[SimultaneousMapEntry] = []
    m1 = kb_map_with_fixed_and_period2(a, b)
    entries.append(SimultaneousMapEntry(m1, 1, 2))
    m2 = kb_map_with_fixed_and_period2(b, a)
    entries.append(SimultaneousMapEntry(m2, 2, 1))
    for s in (a / b, -a / b):
        entries.append(SimultaneousMapEntry(KBMap(*_kb_row(4, a, s, "s")), 4, 4))

    for e in entries:
        if exact_period(e.map, a) != e.period_a or exact_period(e.map, b) != e.period_b:
            raise DomainError("verification failed: claimed periods do not hold")
    entries.sort(key=lambda e: (e.map.k, e.map.b))
    return SimultaneousPointResult(a, b, False, maps=tuple(entries))


# ---------------------------------------------------------------------------
# quadratic polynomials sharing one periodic point

@dataclass(frozen=True)
class SharedMapEntry:
    """z^2 + c with the queried point on a cycle of the stated length."""

    c: Fraction
    period: int
    cycle: Tuple[Fraction, ...]


def quadratics_with_periodic_point(q: Fraction) -> List[SharedMapEntry]:
    """Every c with q periodic for z^2 + c (periods up to 3; at most three).

    Period 1 and period 2 each force one c, read from quad rows 1 and 2.  A
    period-3 orbit exists only when the tau-cubic x1(tau) = q has a rational
    root (``period3_taus``), and quad row 3 at (q, tau) gives its c.
    Entries are verified by direct iteration and deduplicated by c.
    """
    q = Fraction(q)
    candidates: List[Tuple[Fraction, int]] = [(_quad_row(n, q), n) for n in (1, 2)] + [
        (_quad_row(3, q, tau), 3) for tau in period3_taus(q)]

    entries: List[SharedMapEntry] = []
    seen = set()
    for c, period in candidates:
        if c in seen:
            continue
        cycle = cycle_from(QuadraticMap(c), q, period)
        if cycle is None or len(cycle) != period:
            continue
        seen.add(c)
        entries.append(SharedMapEntry(c, period, cycle))
    return entries
