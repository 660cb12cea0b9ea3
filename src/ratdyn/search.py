"""Height-bounded scans and the quartic point search.

Scans enumerate exact rationals in the documented order (ascending height,
then numerator, then denominator) and find each map's points of exact
period n and height <= B by one of two exact routes; neither reduces mod
any prime.

A quad map z^2 + c, c = num / den, walks its window.  Every periodic point
is u/e in lowest terms with den = e^2 and |u| <= top
(``dynamics.quad_window``), and there the map is integer arithmetic:
u -> (u^2 + num) / e.  numpy walks the window points with |u| <= min(B,
top), none unless e <= B, for max(periods) steps.  A point leaves the walk
when e does not divide u^2 + num or the image passes top, since the image
then lies outside the window and is not periodic; the first step that
brings it back to u is its exact period.

A KB map kz + b/z is conjugate to sqrt(b) (kt + 1/t) by z = sqrt(b) t, so
a rational point z of exact period n gives the nonzero rational root
s = z^2 / b of Phi*_n of kz + 1/z in w = z^2 (``dynatomic._dynatomic_x``),
a polynomial in k alone.  Its roots are taken once per k and n, up to
height B^2 max H(b): for z = u/v in lowest terms with |u|, v <= B,
num(s) divides u^2 den(b) and den(s) divides v^2 num(b).  Each b then
keeps z = +-sqrt(b s) of height <= B, and ``exact_period`` confirms it, as
on the dynatomic route: a root of Phi*_n of exact period d < n lies on a
d-cycle whose multiplier is a primitive (n/d)-th root of unity.

A scan thus finds exactly the points of height <= B and exact period n:
the set that ``dynatomic.periodic_points_exact`` returns with
``height_bound=B``.  Workers partition the list of maps into contiguous
chunks and merge in chunk order, so any worker count yields byte-identical
canonical output; ``elapsed`` is carried on the report object but never
serialized.

The quartic search, an exact residue sieve over the curve's binary quartic,
is described at ``quartic_rational_points``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ._intpoly import rational_roots_int
from .core import (
    count_rationals,
    enumerate_rationals,
    format_rational,
    height,
    is_rational_square,
)
from .dynamics import KBMap, QuadraticMap, cycle_from, exact_period, quad_window
from .dynatomic import _dynatomic_x
from .errors import DomainError, parameter_excluded

__all__ = [
    "ScanReport",
    "scan_quadratic_periods",
    "scan_kb_periods",
    "scan_intersection_bound",
    "QuarticCurve",
    "QuarticReport",
    "quartic_rational_points",
    "DEFAULT_BOUNDS",
]

DEFAULT_BOUNDS = {
    "height_c": 20,
    "height_k": 10,
    "height_b": 10,
    "height_point": 100,
    "height_quartic": 10000,
}

_ALLOWED_PERIODS = frozenset(range(1, 9))


def _rat_key(r: Fraction):
    return (height(r), r.numerator, r.denominator)


@dataclass(frozen=True)
class ScanReport:
    """Deterministic scan outcome.

    ``hits`` are canonical dicts in enumeration order.  ``elapsed`` is
    wall-clock seconds and deliberately excluded from ``canonical_dict`` so
    repeated runs (any worker count) serialize identically.
    """

    scan_kind: str
    parameter_box: Dict[str, int]
    periods: Tuple[int, ...]
    hits: Tuple[dict, ...]
    scanned_count: int
    elapsed: float

    def canonical_dict(self) -> dict:
        out = {
            "scan_kind": self.scan_kind,
            "parameter_box": dict(self.parameter_box),
            "hits": [dict(h) for h in self.hits],
            "scanned_count": self.scanned_count,
        }
        if self.periods:
            out["periods"] = list(self.periods)
        return out


def _check_periods(periods) -> Tuple[int, ...]:
    ps = tuple(sorted(set(int(n) for n in periods)))
    if not ps:
        raise parameter_excluded("periods", "empty")
    for n in ps:
        if n not in _ALLOWED_PERIODS:
            raise parameter_excluded("period", n)
    return ps


# --- the two exact routes --------------------------------------------------

_CELLS = 2**16  # cap on the quad window points walked in one array


def _window(cs, periods, bound: int):
    """(row, u, e, n) for each window point u/e of the ``row``-th quad map,
    c = cs[row] = (num, den), whose exact period n is in ``periods``: the
    integer walk of the module docstring, ``_CELLS`` points at a time."""
    import numpy as np

    # exact in int64 while top^2 + |num| < 2**63: |num| <= height_c, and a
    # scan holds all 2 height_c + 1 numerators of its box in memory
    num = np.array([n for n, _ in cs], dtype=np.int64)
    e, top = (np.array(a, dtype=np.int64) for a in zip(*(quad_window(n, d) for n, d in cs)))
    w = np.minimum(top, bound)
    size = np.where((0 < e) & (e <= bound), 2 * w + 1, 0)
    for rows in np.split(np.arange(len(w)), np.flatnonzero(np.diff(np.cumsum(size) // _CELLS)) + 1):
        row = np.repeat(rows, size[rows])
        u = np.arange(row.size) - np.repeat(np.cumsum(size[rows]) - size[rows] + w[rows], size[rows])
        keep = np.gcd(u, e[row]) == 1
        row, u = row[keep], u[keep]
        c, v, t, z = num[row], e[row], top[row], u
        for n in range(1, periods[-1] + 1):
            z, r = np.divmod(z * z + c, v)
            live = (r == 0) & (np.abs(z) <= t)
            back = live & (z == u)
            if n in periods:
                yield from zip(row[back].tolist(), u[back].tolist(), v[back].tolist(), itertools.repeat(n))
            live &= ~back
            row, u, c, v, t, z = (a[live] for a in (row, u, c, v, t, z))


def _sieve(maps, periods_of, bound: int) -> List[Dict[int, List[Fraction]]]:
    """Per map m, its points of exact period n with height <= ``bound`` for
    each n in ``periods_of[type(m)]``, in ``_rat_key`` order, by the routes
    of the module docstring: ``_window`` for the quad maps; for the KB maps
    the roots s of each k's Phi*_n in w, z = +-sqrt(b s), and one
    ``exact_period`` call per z.  Only maps with a point sort anything; maps
    with no point share one read-only dict per family."""
    found: Dict[int, Dict[int, List[Fraction]]] = {}

    def add(i, n, z):
        found.setdefault(i, {k: [] for k in periods_of[type(maps[i])]})[n].append(z)

    quads = [i for i, m in enumerate(maps) if type(m) is QuadraticMap]
    if quads:
        for row, u, e, n in _window([maps[i].c.as_integer_ratio() for i in quads], periods_of[QuadraticMap], bound):
            add(quads[row], n, Fraction(u, e))
    by_k: Dict[Fraction, List[int]] = {}
    for i, m in enumerate(maps):
        if type(m) is KBMap:
            by_k.setdefault(m.k, []).append(i)
    for k, rows in by_k.items():
        unit, hs = KBMap(k, Fraction(1)), bound * bound * max(height(maps[i].b) for i in rows)
        for n in periods_of[KBMap]:
            roots = [s.as_integer_ratio() for s in rational_roots_int(_dynatomic_x(unit, n), hs) if s]
            for i, (sn, sd) in itertools.product(rows, roots):
                m = maps[i]
                bn, bd = m.b.as_integer_ratio()
                t = bn * bd * sn * sd  # b s = t / (bd sd)^2
                if t <= 0 or (r := math.isqrt(t)) * r != t or height(z := Fraction(r, bd * sd)) > bound:
                    continue
                for z in (-z, z):
                    try:
                        p = exact_period(m, z)
                    except DomainError as exc:
                        raise DomainError(f"{m.describe()}, n={n}: {exc}") from None
                    if p == n:
                        add(i, n, z)
    empty = {cls: {n: [] for n in periods} for cls, periods in periods_of.items()}
    return [{n: sorted(pts, key=_rat_key) for n, pts in found[i].items()} if i in found
            else empty[type(m)] for i, m in enumerate(maps)]


# --- workers (top level so they pickle) -----------------------------------

def _periods_chunk(args) -> List[dict]:
    maps, periods, point_bound = args
    found = _sieve(maps, {QuadraticMap: periods, KBMap: periods}, point_bound)
    return [
        {"map": m.describe(), "point": format_rational(p), "period": n}
        for m, pts in zip(maps, found)
        for n in periods
        for p in pts[n]
    ]


_CYCLE_LENGTHS = {QuadraticMap: (1, 2, 3), KBMap: (1, 2, 4)}


def _cycles_chunk(args) -> List[List[Tuple[Fraction, ...]]]:
    """Per map: its rational cycles, each a tuple in orbit order."""
    maps, point_bound = args
    out = []
    for m, found in zip(maps, _sieve(maps, _CYCLE_LENGTHS, point_bound)):
        cycles = []
        for n in _CYCLE_LENGTHS[type(m)]:
            pts = set(found[n])
            while pts:
                cyc = cycle_from(m, min(pts, key=_rat_key), n)
                pts.difference_update(cyc)
                cycles.append(cyc)
        out.append(cycles)
    return out


def _run_chunks(worker, chunks, workers: int):
    if workers <= 1 or len(chunks) <= 1:
        return [worker(ch) for ch in chunks]
    try:
        with get_context("fork").Pool(min(workers, len(chunks))) as pool:
            return pool.map(worker, chunks)
    except (OSError, ImportError) as exc:
        raise DomainError(f"worker pool failed: {exc}") from None


def _split(seq: Sequence, parts: int) -> List[Sequence]:
    """``seq`` in at most ``parts`` contiguous nonempty pieces."""
    ends = [len(seq) * i // parts for i in range(parts + 1)]
    return [seq[a:b] for a, b in zip(ends, ends[1:]) if a < b]


def _map_over(worker, maps: list, workers: int, *args) -> list:
    """``worker`` over contiguous chunks of ``maps``, merged in chunk order."""
    chunks = [(chunk,) + args for chunk in _split(maps, workers * 8 if workers > 1 else 1)]
    out: list = []
    for part in _run_chunks(worker, chunks, workers):
        out.extend(part)
    return out


def _check_scan(height_point: int, workers: int) -> None:
    if not 1 <= height_point <= 10**6:  # a quad window walk holds ~2 * height_point points per map
        raise parameter_excluded("height_point", height_point)
    if workers < 1:
        raise parameter_excluded("workers", workers)


def _scan_periods(kind, box, periods, make_maps, workers) -> ScanReport:
    """The period scans: validate, build the maps, fan out, report.
    ``make_maps`` returns the maps to search and the size of the box."""
    periods = _check_periods(periods)
    _check_scan(box["height_point"], workers)
    t0 = time.perf_counter()
    maps, scanned = make_maps()
    hits = _map_over(_periods_chunk, maps, workers, periods, box["height_point"])
    return ScanReport(kind, box, periods, tuple(hits), scanned, time.perf_counter() - t0)


def scan_quadratic_periods(
    height_c: int,
    height_point: int,
    periods,
    workers: int = 1,
) -> ScanReport:
    """Search z^2 + c, height(c) <= height_c, for rational points of the
    given exact periods with height <= height_point."""

    def make_maps():
        scanned = count_rationals(height_c)  # first: it rejects height_c < 1
        # by ``quad_window``, only c = n / e^2 with e <= height_point can have hits
        es = range(1, min(height_point, math.isqrt(height_c)) + 1)
        cs = [Fraction(n, e * e) for e in es for n in range(-height_c, height_c + 1) if math.gcd(n, e) == 1]
        return [QuadraticMap(c) for c in sorted(cs, key=_rat_key)], scanned

    return _scan_periods(
        "quad",
        {"height_c": height_c, "height_point": height_point},
        periods,
        make_maps,
        workers,
    )


def scan_kb_periods(
    height_k: int,
    height_b: int,
    height_point: int,
    periods,
    workers: int = 1,
) -> ScanReport:
    """Search kz + b/z over the (k, b) height box for rational points of the
    given exact periods with height <= height_point."""

    def make_maps():
        ks = [k for k in enumerate_rationals(height_k) if k != 0]
        bs = [b for b in enumerate_rationals(height_b) if b != 0]
        maps = [KBMap(k, b) for k in ks for b in bs]
        return maps, len(maps)

    return _scan_periods(
        "kb",
        {"height_k": height_k, "height_b": height_b, "height_point": height_point},
        periods,
        make_maps,
        workers,
    )


def scan_intersection_bound(
    bound: int,
    height_point: int,
    workers: int = 1,
) -> ScanReport:
    """Examine every pair of in-box maps sharing a rational periodic point
    and record the pairs whose orbit intersection through a shared point has
    size >= 3.

    Quadratic maps contribute cycles of length 1-3, KB maps of length 1, 2,
    4.  A hit carries both map descriptors, the shared point, and the
    intersection; identical-map pairs are skipped.
    """
    _check_scan(height_point, workers)
    t0 = time.perf_counter()
    maps: list = [QuadraticMap(c) for c in enumerate_rationals(bound)]
    nonzero = [r for r in enumerate_rationals(bound) if r != 0]
    maps += [KBMap(k, b) for k in nonzero for b in nonzero]

    point_index: Dict[Fraction, List[Tuple[int, FrozenSet[Fraction]]]] = {}
    for i, cycles in enumerate(_map_over(_cycles_chunk, maps, workers, height_point)):
        for cyc in cycles:
            cyc_set = frozenset(cyc)
            for p in cyc:
                point_index.setdefault(p, []).append((i, cyc_set))

    hits: List[dict] = []
    pairs_seen = set()
    reported = set()
    for p in sorted(point_index, key=_rat_key):
        entries = point_index[p]
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                i, set_i = entries[a]
                j, set_j = entries[b]
                pairs_seen.add((i, j))
                common = set_i & set_j
                if len(common) >= 3 and (i, j, common) not in reported:
                    reported.add((i, j, common))
                    hits.append(
                        {
                            "map1": maps[i].describe(),
                            "map2": maps[j].describe(),
                            "point": format_rational(p),
                            "size": len(common),
                            "common": sorted(format_rational(x) for x in common),
                        }
                    )
    return ScanReport(
        "intersection",
        {"height": bound, "height_point": height_point},
        (),
        tuple(hits),
        len(pairs_seen),
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# quartic curves y^2 = a4 t^4 + ... + a0

@dataclass(frozen=True)
class QuarticCurve:
    a4: Fraction
    a3: Fraction
    a2: Fraction
    a1: Fraction
    a0: Fraction

    def __post_init__(self):
        if self.a4 == 0:
            raise parameter_excluded("a4", 0)

    def coefficients(self) -> Tuple[Fraction, ...]:
        return (self.a4, self.a3, self.a2, self.a1, self.a0)

    def integer_form(self) -> Tuple[int, Tuple[int, int, int, int, int]]:
        """(L, A) with A = (A4..A0) integers: the curve value at u/v equals
        (A4 u^4 + A3 u^3 v + ... + A0 v^4) / (L v^4)."""
        L = 1
        for a in self.coefficients():
            L = L * a.denominator // math.gcd(L, a.denominator)
        return L, tuple(int(a * L) for a in self.coefficients())


@dataclass(frozen=True)
class QuarticReport:
    curve: QuarticCurve
    bound: int
    affine: Tuple[Tuple[Fraction, Fraction], ...]
    infinite_points: bool
    scanned_count: int
    elapsed: float

    def canonical_dict(self) -> dict:
        return {
            "curve": [format_rational(a) for a in self.curve.coefficients()],
            "bound": self.bound,
            "affine": [
                [format_rational(t), format_rational(y)] for t, y in self.affine
            ],
            "infinite_points": self.infinite_points,
            "scanned_count": self.scanned_count,
        }


# moduli of the residue square test, most selective first: 64, 63, 65, 11
# (Cohen, Alg. 1.7.3), then the primes 17..53
_SQUARE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _square_masks(bound: int, L: int, A) -> List[Tuple[int, List[int]]]:
    """(m, masks) per modulus m: bit i of masks[v % m] is set when
    L * F(i - bound, v) is a square mod m, F the curve's binary quartic."""
    import numpy as np

    out, width = [], 2 * bound + 1
    full = (1 << width) - 1
    for m in _SQUARE_MODULI:
        u, v = (np.arange(m) - bound) % m, np.arange(m)[:, None]  # bit i: u = i - bound
        squares = np.zeros(m, dtype=bool)
        squares[np.arange(m) ** 2 % m] = True
        a4, a3, a2, a1, a0 = (a % m for a in A)  # every term stays below 65**5
        F = a4 * u**4 + a3 * u**3 * v + a2 * u**2 * v**2 + a1 * u * v**3 + a0 * v**4
        period = np.packbits(squares[L % m * F % m], axis=1, bitorder="little")
        # each row's m bits, repeated along the width: the copies never overlap
        repeat = ((1 << m * (width // m + 1)) - 1) // ((1 << m) - 1)
        out.append((m, [int.from_bytes(row.tobytes(), "little") * repeat & full for row in period]))
    return out


def _quartic_chunk(args) -> List[Tuple[int, int, int]]:
    """(u, v, r) for each coprime u, v with |u| <= bound, v in ``vs`` and
    L * F(u, v) == r**2: the masks' AND, then an exact isqrt."""
    vs, bound, L, A, masks = args
    A4, A3, A2, A1, A0 = A
    found = []
    for v in vs:
        bits = -1
        for m, mask in masks:
            bits &= mask[v % m]
        while bits:
            low = bits & -bits
            bits ^= low
            u = low.bit_length() - 1 - bound
            if math.gcd(u, v) == 1:
                N = L * ((((A4 * u + A3 * v) * u + A2 * v * v) * u + A1 * v**3) * u + A0 * v**4)
                if N >= 0 and (r := math.isqrt(N)) * r == N:
                    found.append((u, v, r))
    return found


def quartic_rational_points(
    curve: QuarticCurve, bound: int, workers: int = 1
) -> QuarticReport:
    """All affine rational points (t, y) with height(t) <= bound, plus the
    infinity flag (two rational points at infinity iff a4 is a square).

    For t = u/v the curve value is F(u, v) / (L v^4), with L the lcm of the
    coefficients' denominators and F the integer binary quartic, so t is a
    point iff L F(u, v) is a perfect square.  For each modulus m in
    ``_SQUARE_MODULI`` (64, 63, 65, 11, 17, ..., 53) a table says whether
    L F(u, v) is a square mod m; coefficients are reduced mod m first, so
    nothing overflows at any coefficient size.  Each table becomes m Python
    ints, one per v mod m, whose bit i says whether u = i - B passes: sum(m)
    (2B + 1) bits, about 1.36 MB at B = 10^4, built once per call and passed
    to every chunk.  For each v <= B the kernel ANDs its masks, walks the set
    bits, drops u with gcd(u, v) != 1 (they repeat a t of smaller v), and
    confirms each survivor with an exact isqrt.  A perfect square is a
    square mod every m, so no point is missed; isqrt decides exactly, so no
    false point is reported.  Survivors are coprime with |u|, v <= B, so
    each t appears once, has height <= B, and y = isqrt(L F(u, v)) / (L v^2).
    """
    if not 1 <= bound <= 10**6:  # the masks take sum(m) (2 bound + 1) bits
        raise parameter_excluded("bound", bound)
    if workers < 1:
        raise parameter_excluded("workers", workers)
    L, A = curve.integer_form()
    t0 = time.perf_counter()
    masks = _square_masks(bound, L, A)
    chunks = [(vs, bound, L, A, masks) for vs in _split(range(1, bound + 1), workers)]
    pts = {}
    for part in _run_chunks(_quartic_chunk, chunks, workers):
        pts.update((Fraction(u, v), Fraction(r, L * v * v)) for u, v, r in part)
    affine: List[Tuple[Fraction, Fraction]] = []
    for t in sorted(pts, key=_rat_key):
        affine.extend((t, y) for y in sorted({-pts[t], pts[t]}))
    return QuarticReport(
        curve,
        bound,
        tuple(affine),
        is_rational_square(curve.a4),
        count_rationals(bound),
        time.perf_counter() - t0,
    )
