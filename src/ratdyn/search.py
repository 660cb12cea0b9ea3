"""Height-bounded scans and the quartic point search.

Scans report their box in the documented order (ascending height, then
numerator, then denominator) and carry a map as reduced int parameters:
(num, den) of a quad c, ((kn, kd), (bn, bd)) of a KB (k, b).  They find
each map's points of exact period n and height <= B by one exact route per
family; neither reduces mod any prime, and only the KB route builds map
objects, one per k and one per root.  Both routes give (parameter, n, z)
rows in scan order, one per hit.

A quad map z^2 + c, c = num / den, has every periodic point u/e in lowest
terms with den = e^2 and |u| <= top (``dynamics.quad_window``), and there
the map is integer arithmetic: u -> v = (u^2 + num) / e.  So a quad scan
lists the window's edges, not the maps: for each e <= min(B, isqrt(H(c)))
it takes u coprime to e with |u| <= B and v up to the window bound at
|num| = H(c), and sets num = v e - u^2.  It keeps an edge when |num| <=
H(c) and u, v and v's own image lie in the window of c = num / e^2, as
they do when u is periodic; a map with no edge is never touched.  numpy
then walks the kept u for max(periods) steps.  A point leaves the walk
when e does not divide z^2 + num or the image passes top, since the image
then lies outside the window and is not periodic; the first step that
brings it back to u is its exact period.

A KB map kz + b/z is conjugate to kz + (b/t^2)/z by z = t u for any
t != 0, so a point z of (k, b) depends only on k and s = z^2 / b.  With
t = +-z, the point +-z has the exact period of the point 1 of kz + (1/s)/z;
with t = sqrt(b), s is a nonzero root of Phi*_n of kz + 1/z in w = z^2, a
polynomial in k alone (``dynatomic._dynatomic_x``: up to n = 5 the one
polynomial of tz + 1/z over Z[t], built once per process and evaluated at
t = k).  Its roots are taken once per k and n, with no height bound, and
``exact_period`` decides each nonzero root once, on that point 1, as on the
dynatomic route: a root of Phi*_n of exact period d < n lies on a d-cycle
whose multiplier is a primitive (n/d)-th root of unity.  Each b then keeps
z = +-sqrt(b s) of height <= B by integer tests, so the exact_period calls
do not depend on the b box.

A scan thus finds exactly the points of height <= B and exact period n:
the set that ``dynatomic.periodic_points_exact`` returns with
``height_bound=B``.  Workers take contiguous chunks of the KB k, each k
rooted in one chunk, merged in chunk order, or of the quad e, whose rows
are then sorted into scan order, so any worker count yields byte-identical
canonical output; ``elapsed`` is carried on the report but never serialized.

The quartic search, an exact residue sieve over the curve's binary quartic,
is described at ``quartic_rational_points``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ._intpoly import rational_roots_int
from .core import count_rationals, format_rational, height, is_rational_square, rational_pairs
from .dynamics import KBMap, QuadraticMap, cycle_from, exact_period
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

def _quad_points(args) -> List[Tuple[Tuple[int, int], int, Fraction]]:
    """(c, n, z) for each c = (num, e^2) with e in ``es`` and |num| <=
    ``height_c``, and each point z = u/e of c's window with |u| <= ``bound``
    and exact period n in ``periods``, unsorted: the edge walk of the module
    docstring."""
    import numpy as np

    es, height_c, bound, periods = args
    # |z| <= top(num, e) iff |z| (|z| - e) <= |num|: the window test, no isqrt
    inside = lambda z, e, num: abs(z) * (abs(z) - e) <= abs(num)
    # exact in int64: e <= isqrt(height_c) <= 1000 gives T <= 1618, so every
    # value stays below about 4 * 10**6, and an image past top squared below 2 * 10**13
    edges = []
    for e in es:
        T = (e + math.isqrt(e * e + 4 * height_c)) // 2  # top at |num| = height_c
        u = np.arange(-min(bound, T), min(bound, T) + 1, dtype=np.int64)
        u = u[np.gcd(u, e) == 1][:, None]  # then gcd(num, e) = gcd(u^2, e) = 1
        v = np.arange(-T, T + 1, dtype=np.int64)
        num = v * e - u * u
        iu, iv = np.nonzero((abs(num) <= height_c) & inside(u, e, num) & inside(v, e, num))
        u, v, num = u[iu, 0], v[iv], num[iu, iv]
        # u's second image lies in the window too if u is periodic
        w, r = np.divmod(v * v + num, e)
        keep = (r == 0) & inside(w, e, num)
        edges.append((np.full(np.count_nonzero(keep), e, dtype=np.int64), num[keep], u[keep]))
    e, num, u = (np.concatenate(a) for a in zip(*edges))
    rows, z = [], u
    for n in range(1, periods[-1] + 1):
        z, r = np.divmod(z * z + num, e)
        live = (r == 0) & inside(z, e, num)
        back = live & (z == u)
        if n in periods:
            rows += [((c, d * d), n, Fraction(x, d))
                     for c, d, x in zip(num[back].tolist(), e[back].tolist(), u[back].tolist())]
        live &= ~back
        e, num, u, z = e[live], num[live], u[live], z[live]
    return rows


def _kb_points(args) -> List[Tuple[tuple, int, Fraction]]:
    """(p, n, z) for each KB parameter p = (k, b), k in ``ks`` and b in
    ``bs`` as (num, den), and each point z of p's map with exact period n in
    ``periods`` and height <= ``bound``, in scan order: each root s of k's
    Phi*_n in w decided once, then z = +-sqrt(b s) for each b."""
    ks, bs, periods, bound = args
    found = []
    for k in ks:
        unit, hits = KBMap(Fraction(*k), Fraction(1)), []
        for n in periods:
            for sn, sd in (s.as_integer_ratio() for s in rational_roots_int(_dynatomic_x(unit, n)) if s):
                m = KBMap(unit.k, Fraction(sd, sn))  # z -> z t takes (k, b) at z = t to (k, 1/s) at 1
                try:
                    if exact_period(m, 1, n) != n:
                        continue
                except DomainError as exc:
                    raise DomainError(f"{m.describe()}, n={n}: {exc}") from None
                for i, (bn, bd) in enumerate(bs):
                    t = bn * bd * sn * sd  # b s = t / (bd sd)^2
                    if t > 0 and (r := math.isqrt(t)) * r == t and height(z := Fraction(r, bd * sd)) <= bound:
                        hits += [(i, n, -z), (i, n, z)]
        hits.sort(key=lambda row: (row[0], row[1], _rat_key(row[2])))
        found += [((k, bs[i]), n, z) for i, n, z in hits]
    return found


def _is_kb(p) -> bool:
    """Whether p is a KB parameter ((kn, kd), (bn, bd)), not a quad (num, den)."""
    return type(p[0]) is tuple


def _describe(p) -> str:
    """``describe()`` of the map of parameter p, formatted from its ints."""
    r = [str(n) if d == 1 else f"{n}/{d}" for n, d in (p if _is_kb(p) else (p,))]
    return "kb:k={},b={}".format(*r) if _is_kb(p) else f"quad:c={r[0]}"


def _run_chunks(worker, chunks, workers: int):
    if workers <= 1 or len(chunks) <= 1:
        return [worker(ch) for ch in chunks]
    import multiprocessing  # here, not at the top: most runs start no pool
    try:
        # no more processes than CPUs: the bytes do not depend on the pool
        with multiprocessing.get_context("fork").Pool(min(_parts(workers), len(chunks))) as pool:
            return pool.map(worker, chunks)
    except (OSError, ImportError) as exc:
        raise DomainError(f"worker pool failed: {exc}") from None


def _split(seq: Sequence, parts: int) -> List[Sequence]:
    """``seq`` in at most ``parts`` contiguous nonempty pieces."""
    parts = min(parts, len(seq))  # the same pieces, without listing every empty one
    ends = [len(seq) * i // parts for i in range(parts + 1)]
    return [seq[a:b] for a, b in zip(ends, ends[1:]) if a < b]


def _parts(workers: int) -> int:
    """How many processes ``workers`` can use: no more than the CPUs, so a
    large ``workers`` does not split the work into chunks no process runs."""
    return min(workers, os.cpu_count() or 1)


def _map_over(worker, params: Sequence, workers: int, *args) -> list:
    """``worker`` over contiguous chunks of ``params``, merged in chunk order."""
    parts = _parts(workers)
    chunks = [(chunk,) + args for chunk in _split(params, parts * 8 if parts > 1 else 1)]
    return [x for part in _run_chunks(worker, chunks, workers) for x in part]


def _quad_es(height_c: int, bound: int) -> range:
    """The e with e^2 <= height_c and e <= bound: only a c = num / e^2 with
    such an e has window points of height <= bound."""
    return range(1, min(bound, math.isqrt(max(height_c, 0))) + 1)


def _quad_rows(height_c: int, bound: int, periods, workers: int) -> list:
    """The rows of ``_quad_points`` over the box H(c) <= height_c, chunked
    by e, in scan order."""
    rows = _map_over(_quad_points, _quad_es(height_c, bound), workers, height_c, bound, periods)
    return sorted(rows, key=lambda row: (max(abs(row[0][0]), row[0][1]), *row[0], row[1], _rat_key(row[2])))


def _check_scan(box: Dict[str, int], workers: int, size) -> None:
    """Refuse a scan before it counts or lists anything.  Each height and
    the point bound must be in [1, 10**6], so that ``count_rationals(h)``,
    in O(h^(3/4)) steps, stays ~0.03 s, and a quad scan's numbers stay small
    (``_quad_points``).  Then ``size()`` must be <= 10**7: the (k, b) pairs
    a KB or intersection scan tests, which lists only the k and the b, and
    for quad, which lists no c, the (2 height_c + 1) len(es) c = num / e^2
    that can have a window point.  Every quad box with H(c) <= 10**4
    passes at any point bound: (2 H(c) + 1) isqrt(H(c)) is about 2 * 10**6."""
    if not 1 <= box["height_point"] <= 10**6:
        raise parameter_excluded("height_point", box["height_point"])
    if workers < 1:
        raise parameter_excluded("workers", workers)
    for name, h in box.items():
        if not 1 <= h <= 10**6:
            raise parameter_excluded(name, h)
    if (n := size()) > 10**7:
        raise parameter_excluded("box", n)


def _scan_periods(kind, box, periods, size, find, workers) -> ScanReport:
    """The period scans: validate, find, report one hit per row.
    ``find(periods)`` returns the (parameter, n, z) rows in scan order and
    the size of the box."""
    periods = _check_periods(periods)
    _check_scan(box, workers, size)
    t0 = time.perf_counter()
    rows, scanned = find(periods)
    hits = tuple({"map": _describe(p), "point": format_rational(z), "period": n} for p, n, z in rows)
    return ScanReport(kind, box, periods, hits, scanned, time.perf_counter() - t0)


def scan_quadratic_periods(
    height_c: int,
    height_point: int,
    periods,
    workers: int = 1,
) -> ScanReport:
    """Search z^2 + c, height(c) <= height_c, for rational points of the
    given exact periods with height <= height_point."""

    def find(periods):
        scanned = count_rationals(height_c)
        return _quad_rows(height_c, height_point, periods, workers), scanned

    box = {"height_c": height_c, "height_point": height_point}
    size = lambda: (2 * height_c + 1) * len(_quad_es(height_c, height_point))  # the c that can have a point
    return _scan_periods("quad", box, periods, size, find, workers)


def scan_kb_periods(
    height_k: int,
    height_b: int,
    height_point: int,
    periods,
    workers: int = 1,
) -> ScanReport:
    """Search kz + b/z over the (k, b) height box for rational points of the
    given exact periods with height <= height_point."""

    def find(periods):
        ks, bs = ([r for r in rational_pairs(h) if r[0]] for h in (height_k, height_b))
        return _map_over(_kb_points, ks, workers, bs, periods, height_point), len(ks) * len(bs)

    box = {"height_k": height_k, "height_b": height_b, "height_point": height_point}
    return _scan_periods("kb", box, periods, lambda: (count_rationals(height_k) - 1)
                         * (count_rationals(height_b) - 1), find, workers)


def scan_intersection_bound(
    bound: int,
    height_point: int,
    workers: int = 1,
) -> ScanReport:
    """Examine every pair of in-box maps sharing a rational periodic point
    and record the pairs whose orbit intersection through a shared point has
    size >= 3.

    Quadratic maps contribute cycles of length 1-3, KB maps of length 1, 2,
    4: the two routes' rows, grouped per map, each cycle walked from its
    least point.  One point index lists the (map, cycle set) entries
    through each point, in scan order; ``scanned_count`` counts the map
    pairs sharing a point.  Only cycles of 3 or more points are
    intersected.  A hit carries both map descriptors, the least common
    point, and the intersection.
    """
    box = {"height": bound, "height_point": height_point}
    _check_scan(box, workers, lambda: (n := count_rationals(bound)) + (n - 1) ** 2)
    t0 = time.perf_counter()
    ks = [r for r in rational_pairs(bound) if r[0]]
    rows = _quad_rows(bound, height_point, (1, 2, 3), workers) + _map_over(
        _kb_points, ks, workers, ks, (1, 2, 4), height_point)

    index: Dict[Fraction, List[Tuple[tuple, FrozenSet[Fraction]]]] = {}
    for p, group in itertools.groupby(rows, key=lambda row: row[0]):
        m = KBMap(Fraction(*p[0]), Fraction(*p[1])) if _is_kb(p) else QuadraticMap(Fraction(*p))
        done = set()
        for _, n, z in group:  # by n, then from the least point of each cycle
            if z not in done:
                done |= (cyc := frozenset(cycle_from(m, z, n)))
                for x in cyc:
                    index.setdefault(x, []).append((p, cyc))

    pairs, least = set(), {}  # least: (p, q, common) -> least common point
    for x in sorted(index, key=_rat_key):
        pairs.update((p, q) for (p, _), (q, _) in itertools.combinations(index[x], 2))
        # a common set of 3 needs two cycles of 3 or more points
        for (p, a), (q, b) in itertools.combinations([e for e in index[x] if len(e[1]) >= 3], 2):
            if len(common := a & b) >= 3:
                least.setdefault((p, q, common), x)
    hits = tuple({"map1": _describe(p), "map2": _describe(q), "point": format_rational(x),
                  "size": len(common), "common": sorted(format_rational(y) for y in common)}
                 for (p, q, common), x in least.items())
    return ScanReport("intersection", box, (), hits, len(pairs), time.perf_counter() - t0)


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
_WORDS = 2**17  # cap on the mask words ANDed in one block of v
_SPAN = 2**12  # cap on the nonzero words whose bits are read at once


@functools.cache
def _residue_tables() -> list:
    """(m, mono, square) per modulus m, curve-free and built once per
    process: mono[i, v m + u] = u^(4-i) v^i mod m as int16, and square[x] says
    whether x is a square mod m for 0 <= x <= 5 (m-1)^2 < 2^15."""
    import numpy as np

    pw = {m: (np.arange(m) ** np.arange(5)[:, None] % m).astype(np.int16) for m in _SQUARE_MODULI}
    return [(m, (p[:, :, None] * p[::-1, None, :] % m).reshape(5, m * m),
             np.tile(np.bincount(p[2], minlength=m) > 0, 5 * m)) for m, p in pw.items()]


def _square_masks(bound: int, L: int, A) -> list:
    """(m, masks) per modulus m: an (m, ceil((2 bound + 1) / 64)) uint64
    array whose row v % m has bit i set when L * F(i - bound, v) is a square
    mod m, F the curve's binary quartic; the bits past 2 bound + 1 are clear."""
    import numpy as np

    out, width = [], 2 * bound + 1
    words = -(-width // 64)
    for m, mono, square in _residue_tables():
        c = np.array([L * a % m for a in A], dtype=np.int16)  # Python ints: any size
        s = np.take(square, np.einsum("i,ij->j", c, mono)).reshape(m, m)  # s[v, u]
        # bit i depends on i % m alone, u = i - bound: m words per period, repeated
        r = -bound % m
        period = np.tile(np.packbits(np.tile(s, 9)[:, r : r + 8 * m], axis=1, bitorder="little"), 8)
        masks = np.take(period.view("<u8"), np.arange(words) % m, axis=1)
        masks[:, -1] &= np.uint64(2 ** (width - 64 * words + 64) - 1)
        out.append((m, masks))
    return out


def _quartic_chunk(args) -> List[Tuple[int, int, int]]:
    """(u, v, r) for each coprime u, v with |u| <= bound, v in ``vs`` and
    L * F(u, v) == r**2: its own masks ANDed ``_WORDS`` words of v at a
    time, the set bits' coprime (u, v), then an exact isqrt."""
    import numpy as np

    vs, bound, L, A = args
    A4, A3, A2, A1, A0 = A
    masks = _square_masks(bound, L, A)
    words = masks[0][1].shape[1]
    found, step = [], max(1, _WORDS // words)
    for v0 in range(vs.start, vs.stop, step):
        bits = np.full((n := min(step, vs.stop - v0), words), 2**64 - 1, dtype=np.uint64)
        for m, mask in masks:  # row k of bits is v = v0 + k
            h = min(-v0 % m, n)  # from row h on, v runs through whole periods 0..m-1
            q = h + (n - h) // m * m
            bits[:h] &= mask[v0 % m :][:h]
            bits[h:q].reshape(-1, m, words)[...] &= mask
            bits[q:] &= mask[: n - q]
        nonzero = np.flatnonzero(bits)
        for f in np.split(nonzero, range(_SPAN, len(nonzero), _SPAN)):
            w, g = bits.ravel()[f], [f[:0]]
            while len(w):  # g: the set bits' positions in the block, each word's lowest first
                low = w & -w
                g.append(f * 64 + np.frexp(low.astype(float))[1] - 1)
                f, w = f[w != low], (w ^ low)[w != low]
            v, u = np.divmod(np.sort(np.concatenate(g)), 64 * words)
            u, v = u - bound, v + v0
            keep = np.gcd(u, v) == 1  # (g u, g v) repeats t = u/v
            for u, v in zip(u[keep].tolist(), v[keep].tolist()):
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
    L F(u, v) is a square mod m: the coefficients reduced mod m (so nothing
    overflows at any size) against curve-free tables that the process
    builds once, before any fork, so pool workers inherit them.  Each chunk
    expands it into an (m, W) uint64 mask, W = ceil((2B + 1) / 64), whose
    row v mod m has bit i set when u = i - B passes: sum(m) (2B + 1) bits,
    about 1.36 MB at B = 10^4, so nothing large is pickled.  The kernel
    ANDs the rows into a block of consecutive v, reads the set bits, drops
    u with gcd(u, v) != 1 (they repeat a t of smaller v), and confirms each
    survivor with an exact isqrt in Python ints.  A perfect square is a
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
    _residue_tables()  # before the fork, so every worker inherits the tables
    chunks = [(vs, bound, L, A) for vs in _split(range(1, bound + 1), _parts(workers))]
    pts = {}
    for part in _run_chunks(_quartic_chunk, chunks, workers):
        pts.update((Fraction(u, v), Fraction(r, L * v * v)) for u, v, r in part)
    affine: List[Tuple[Fraction, Fraction]] = []
    for t in sorted(pts, key=_rat_key):
        affine.extend((t, y) for y in sorted({-pts[t], pts[t]}))
    return QuarticReport(curve, bound, tuple(affine), is_rational_square(curve.a4), count_rationals(bound),
                         time.perf_counter() - t0)
