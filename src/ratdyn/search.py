"""Height-bounded scans and the quartic point search.

Scans report their box in the documented order (ascending height, then
numerator, then denominator) and carry a map as reduced int parameters:
(num, den) of a quad c, ((kn, kd), (bn, bd)) of a KB (k, b).  They find
each map's points of exact period n and height <= B by one exact route per
family; neither reduces mod any prime, and only the KB route builds map
objects, one per k and one per root.  Both routes give one row shape,
(parameter, n, zn, zd) in ints with z = zn / zd reduced and zd > 0, in scan
order, one per hit, and ``_scan_periods`` formats each map once and every
hit from the ints.

A quad map z^2 + c, c = num / den, has every periodic point u/e in lowest
terms with den = e^2 and |u| <= top (``dynamics.quad_window``), and there
the map is integer arithmetic: u -> v = (u^2 + num) / e.  So a quad scan
lists the window's edges, not the maps.  The e <= min(B, isqrt(H(c))) are
cut into blocks of consecutive e (``_quad_blocks``), and numpy lists each
block's edges in one pass over a 2-D grid: a column per v up to the
window bound T at |num| = H(c) of the block's last e, and a row per coprime
(e, u) with |u| <= min(B, T), with num = v e - u^2.  It keeps an edge when |num| <=
H(c), u and v lie in the window of c = num / e^2, and e divides v^2 + num,
as they do when u is periodic; a map with no edge is never touched.  numpy
then walks the kept u for up to max(periods) steps.  A point leaves the
walk when e does not divide z^2 + num or the image passes top, since the
image then lies outside the window and is not periodic, and when the image
is the point it was at on the last power-of-two step (Brent's cycle test),
since its orbit then runs into a cycle without u; the first step that
brings it back to u is its exact period.

A KB map kz + b/z is conjugate to kz + (b/t^2)/z by z = t u for any
t != 0, so a point z of (k, b) depends only on k and s = z^2 / b.  With
t = +-z, the point +-z has the exact period of the point 1 of kz + (1/s)/z;
with t = sqrt(b), s is a nonzero root of Phi*_n of kz + 1/z in w = z^2, a
polynomial in k alone (``dynatomic._dynatomic_x``: up to n = 5 the one
polynomial of tz + 1/z over Z[t], built once per process and evaluated at
t = k).  ``_kb_classes`` takes it once per k and n.  Most such k have no
rational root at n = 3, 4, 5: a prime p <= 13 for which Phi*_n mod p keeps
its degree and has no root in F_p shows it, read from a table of the
family mod p (``dynatomic._family_rootless``), and the k is done without
building Phi*_n.  Else Phi*_n is rooted with no height bound, and
``exact_period`` decides each nonzero root once, on that point 1, as on
the dynatomic route: a root of Phi*_n of exact period d < n lies on a
d-cycle whose multiplier is a primitive (n/d)-th root of unity.  The scan
lists each root's square class, the b with b s a square, not the b box:
|sn| sd = kappa t^2 with kappa squarefree, by trial division up to H(b),
unless a prime past H(b) has an odd exponent.  Each split kappa = alpha beta
gives b = +-alpha u^2 / (beta v^2), signed as s, gcd(alpha u, beta v) = 1,
with z = +-alpha u t / (v sd): with t / sd = t' / d reduced, H(z) <= B needs
alpha u <= B d and v <= B t'.  Each class is listed once per call and cut,
and a k's hits are sorted by b in ``rational_pairs`` order, then n and z.

A scan thus finds exactly the points of height <= B and exact period n:
the set that ``dynatomic.periodic_points_exact`` returns with
``height_bound=B``.  One ``_fan_out`` serves every engine: it cuts the KB
k, each k rooted in one chunk, the quad e, or the quartic v into contiguous
chunks, eight per pool process, sends a pool only their (start, stop)
spans, since its processes inherit the rest at the fork, and returns the
results in chunk order.  The KB rows are merged in that order, and the quad
columns put in scan order by one ``np.lexsort``, so any worker count or
block size yields byte-identical canonical output; ``elapsed`` is carried
on the report but never serialized.

The quartic search, an exact residue sieve over the curve's binary quartic,
is described at ``quartic_rational_points``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ._intpoly import rational_roots_int
from .core import count_rationals, format_ratio, format_rational, height, is_rational_square, rational_pairs
from .dynamics import KBMap, QuadraticMap, cycle_from, exact_period
from .dynatomic import _dynatomic_x, _family_rootless
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
_BLOCK_CELLS = 2**16  # cap on the (u, v) cells of one quad edge pass, unless one e alone has more


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

def _quad_blocks(es: range, height_c: int, bound: int) -> List[Tuple[range, int]]:
    """``es`` cut into runs of consecutive e, each with T, the top of its last
    e at |num| = height_c.  A run grows while its cells, 2 min(bound, T) + 1
    values of u by 2T + 1 of v for each e, stay within ``_BLOCK_CELLS``; an
    e whose cells alone pass the cap makes a run of its own."""
    top = lambda e: (e + math.isqrt(e * e + 4 * height_c)) // 2  # rises with e
    cells = lambda e: (2 * min(bound, top(e)) + 1) * (2 * top(e) + 1)
    blocks, i = [], 0
    while i < len(es):
        j = i + 1
        while j < len(es) and (j + 1 - i) * cells(es[j]) <= _BLOCK_CELLS:
            j += 1
        blocks.append((es[i:j], top(es[j - 1])))
        i = j
    return blocks


def _quad_points(es: range, height_c: int, bound: int, periods):
    """The rows (num, e, n, u) as the columns of a (4, k) int64 array: one
    per c = num / e^2 with e in ``es`` and |num| <= ``height_c``, and per
    point u/e of c's window with |u| <= ``bound`` and exact period n in
    ``periods``, unsorted: the edge walk of the module docstring."""
    import numpy as np

    # |z| <= top(num, e) iff reach(z, e) = |z| (|z| - e) <= |num|: the window
    # test, no isqrt.  With e <= isqrt(height_c) <= 1000 and T <= 1618 every
    # value of the edge grid stays below about 4.2 * 10**6, so int32 is exact
    # there; the walk squares images past top, below 2 * 10**13, in int64
    reach = lambda z, e: abs(z) * (abs(z) - e)
    rows = [np.zeros((4, 0), dtype=np.int64)]
    for block, T in _quad_blocks(es, height_c, bound):
        # one row per coprime (e, u) with |u| <= min(bound, T) and one column
        # per |v| <= T: a u or v past a smaller e's own top fails the window test
        u, e = np.arange(-min(bound, T), min(bound, T) + 1, dtype=np.int32), np.array(block, dtype=np.int32)
        ie, iu = np.nonzero(np.gcd(u, e[:, None]) == 1)  # then gcd(num, e) = gcd(u^2, e) = 1
        e, u, v = e[ie], u[iu], np.arange(-T, T + 1, dtype=np.int32)
        col, uu = (e[:, None] if len(block) > 1 else e[0]), (u * u)[:, None]  # one e keeps |v| e one-dimensional
        num = v * col - uu
        a = abs(num)
        # u -> v is an edge of c = num / e^2 inside its window, and v has an
        # image: e divides v^2 + num, which is v^2 - u^2 mod e
        iu, iv = np.nonzero((a <= height_c) & (np.maximum(reach(u, e)[:, None], reach(v, col)) <= a)
                            & ((v * v - uu) % col == 0))
        u, v, e = (x.astype(np.int64)[ix] for x, ix in ((u, iu), (v, iv), (e, iu)))
        num = v * e - u * u
        rows += _quad_walk(np.array((num, e, e, u, abs(num), u)), periods)
    return np.concatenate(rows, axis=1)


def _quad_walk(walk, periods) -> list:
    """The walk of the module docstring on the edges of one block, the
    columns of ``walk``, whose rows are num, e, a row for n, u, |num|, and
    a copy of u: (4, k) pieces of rows (num, e, n, u), one per n in
    ``periods`` that the walk reaches.  The last row holds the point each
    edge's walk was at on the last power-of-two step."""
    import numpy as np

    rows, z = [], walk[3]
    for n in range(1, periods[-1] + 1):
        num, e, _, u, a, seen = walk
        z, r = np.divmod(z * z + num, e)
        whole, az = r == 0, abs(z)
        if n in periods:
            walk[2] = n
            rows.append(walk[:4, whole & (z == u)])
        # a point walks on while its image is whole, in the window and new:
        # back at u it has its exact period, and back at an earlier point its
        # orbit runs into a cycle that misses u
        live = whole & (az * (az - e) <= a) & (z != u) & (z != seen)
        walk, z = walk[:, live], z[live]
        if not z.size:
            break
        if n & (n - 1) == 0:
            walk[5] = z
    return rows


def _kb_classes(k: Tuple[int, int], n: int) -> Tuple[Tuple[int, int], ...]:
    """(sn, sd) of each nonzero root s = sn / sd of Phi*_n of kz + 1/z in w,
    k = (kn, kd), whose point 1 of kz + (1/s)/z has exact period n: none
    when a small prime shows that Phi*_n has no rational root, else rooted
    with no height bound and each root decided."""
    if _family_rootless(False, n, *k):
        return ()
    unit, kept = KBMap(Fraction(*k), Fraction(1)), []
    for sn, sd in (s.as_integer_ratio() for s in rational_roots_int(_dynatomic_x(unit, n)) if s):
        m = KBMap(unit.k, Fraction(sd, sn))  # z -> z t takes (k, b) at z = t to (k, 1/s) at 1
        try:
            if exact_period(m, 1, n) == n:
                kept.append((sn, sd))
        except DomainError as exc:
            raise DomainError(f"{m.describe()}, n={n}: {exc}") from None
    return tuple(kept)


def _odd_primes(x: int, top: int) -> Optional[List[int]]:
    """The primes of odd exponent in x >= 1, or None if one is past ``top``."""
    odd = []
    for p in range(2, top + 1):
        if p * p > x:  # x is 1 or a prime
            break
        e = 0
        while x % p == 0:
            x, e = x // p, e + 1
        if e % 2:
            odd.append(p)
    return odd + [x] if 1 < x <= top else odd if math.isqrt(x) ** 2 == x else None


def _kb_points(ks: Sequence, height_b: int, periods, bound: int) -> List[Tuple[tuple, int, int, int]]:
    """(p, n, zn, zd) for each KB parameter p = (k, b), k in ``ks`` and
    H(b) <= ``height_b``, and each point z = zn / zd of p's map with exact
    period n in ``periods`` and height <= ``bound``, in scan order: the square
    classes of the roots of ``_kb_classes``, listed as in the module docstring."""
    table = [[(n, s) for n in periods for s in _kb_classes(k, n)] for k in ks]  # all k rooted first: faster
    members, found, h = functools.cache(_kb_members), [], height_b  # a class listed once per call and cut
    for k, roots in zip(ks, table):
        hits = []
        for n, (sn, sd) in roots:
            if (ps := _odd_primes(x := abs(sn) * sd, h)) is None:  # a prime past H(b) has an odd exponent: no b
                continue
            t = math.isqrt(x // (kappa := math.prod(ps)))
            t, d = t // (g := math.gcd(t, sd)), sd // g  # z = +-alpha u t / (v d)
            cuts = (min(bound * d, h), min(bound * t, math.isqrt(h)))
            for au, v, b, rank in members(1 if sn > 0 else -1, kappa, *cuts, tuple(ps), h):
                g = math.gcd(au * t, v * d)
                if (z := max(zn := au * t // g, zd := v * d // g)) <= bound:
                    hits += [(rank, n, z, -zn, zd, (p := (k, b))), (rank, n, z, zn, zd, p)]
        hits.sort()  # by b, n, then z by height, numerator, denominator
        found += [(p, n, zn, zd) for _, n, _, zn, zd, p in hits]
    return found


def _kb_members(sign: int, kappa: int, top_au: int, top_v: int, ps, h: int) -> list:
    """(alpha u, v, b, rank of b in ``rational_pairs``) for each b = sign alpha
    u^2 / (beta v^2) of height <= h with alpha beta = kappa = prod(ps),
    gcd(alpha u, beta v) = 1, alpha u <= top_au and v <= top_v."""
    alphas = [math.prod(split) for split in itertools.product(*((1, p) for p in ps))]
    return [(au, v, (bn, bd), (max(abs(bn), bd) * (2 * h + 1) + bn + h) * (h + 1) + bd)
            for alpha in alphas for beta in (kappa // alpha,)
            for u in range(1, min(math.isqrt(h // alpha), top_au // alpha) + 1) if math.gcd(beta, u) == 1
            for au in (alpha * u,) for v in range(1, min(math.isqrt(h // beta), top_v) + 1) if math.gcd(au, v) == 1
            for bn, bd in ((sign * au * u, beta * v * v),)]


def _kb_rows(ks: Sequence, height_b: int, periods, bound: int, workers: int) -> list:
    """The rows of ``_kb_points`` over chunks of whole k, merged in chunk order."""
    return [row for part in _fan_out(_kb_points, ks, workers, height_b, periods, bound) for row in part]


def _is_kb(p) -> bool:
    """Whether p is a KB parameter ((kn, kd), (bn, bd)), not a quad (num, den)."""
    return type(p[0]) is tuple


def _describe(p) -> str:
    """``describe()`` of the map of parameter p, formatted from its ints."""
    return "kb:k={},b={}".format(*(format_ratio(*r) for r in p)) if _is_kb(p) else "quad:c=" + format_ratio(*p)


_job = None  # (worker, items, args): set in each pool process at its fork


def _inherit(*job) -> None:
    global _job
    _job = job


def _run_span(span: Tuple[int, int]):
    """``worker(items[start:stop], *args)`` of this pool process's job."""
    worker, items, args = _job
    return worker(items[slice(*span)], *args)


def _fan_out(worker, items: Sequence, workers: int, *args) -> list:
    """``worker(chunk, *args)`` for each contiguous chunk of ``items``, in
    chunk order: one chunk in this process at one worker, else eight per
    process in a fork pool of at most one process per CPU, so a ``workers``
    past the CPUs adds no chunk.  The pool's processes inherit the worker,
    ``items`` and ``args`` (KB ints, quartic masks) at the fork (``_inherit``,
    never pickled) and are sent (start, stop) spans; the merged results do
    not depend on the cut."""
    procs = min(workers, os.cpu_count() or 1) if workers > 1 else 1
    count = min(8 * procs if procs > 1 else 1, len(items)) or 1
    ends = [len(items) * i // count for i in range(count + 1)]
    spans = [(a, b) for a, b in zip(ends, ends[1:]) if a < b]
    if len(spans) <= 1:
        return [worker(items[a:b], *args) for a, b in spans]
    import multiprocessing  # here, not at the top: most runs start no pool
    try:
        with multiprocessing.get_context("fork").Pool(min(procs, len(spans)), _inherit, (worker, items, args)) as pool:
            return pool.map(_run_span, spans)
    except (OSError, ImportError) as exc:
        raise DomainError(f"worker pool failed: {exc}") from None


def _quad_es(height_c: int, bound: int) -> range:
    """The e with e^2 <= height_c and e <= bound: only a c = num / e^2 with
    such an e has window points of height <= bound."""
    return range(1, min(bound, math.isqrt(max(height_c, 0))) + 1)


def _quad_rows(height_c: int, bound: int, periods, workers: int) -> list:
    """The rows (c, n, u, e) of the points z = u / e of ``_quad_points``
    over the box H(c) <= height_c, chunked by e, c = (num, e^2), in scan
    order: by c, then n, then z, each by height, numerator, denominator."""
    import numpy as np

    rows = np.concatenate(_fan_out(_quad_points, _quad_es(height_c, bound), workers, height_c, bound, periods), 1)
    num, e, n, u = rows
    # all points of c share the denominator e, so z = u / e orders by max(|u|, e), then u
    order = np.lexsort((u, np.maximum(abs(u), e), n, e, num, np.maximum(abs(num), e * e)))
    return [((num, e * e), n, u, e) for num, e, n, u in zip(*rows[:, order].tolist())]


def _check_scan(box: Dict[str, int], workers: int, size) -> None:
    """Refuse a scan before it counts or lists anything.  Each height and
    the point bound must be in [1, 10**6], so that ``count_rationals(h)``,
    in O(h^(3/4)) steps, stays ~0.03 s, and a quad scan's numbers stay small
    (``_quad_points``).  Then ``size()`` must be <= 10**7: the (k, b) pairs
    of a KB or intersection scan, which lists the k and the roots' classes, and
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
    """The period scans: validate, find, report.  ``find(periods)`` returns
    the rows (p, n, zn, zd) in scan order and the size of the box."""
    periods = _check_periods(periods)
    _check_scan(box, workers, size)
    t0 = time.perf_counter()
    rows, scanned = find(periods)
    hits = tuple({"map": name, "point": format_ratio(zn, zd), "period": n}
                 for p, group in itertools.groupby(rows, key=lambda row: row[0])
                 for name in (_describe(p),) for _, n, zn, zd in group)  # each map formatted once
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
        return _quad_rows(height_c, height_point, periods, workers), count_rationals(height_c)

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
        return _kb_rows([r for r in rational_pairs(height_k) if r[0]], height_b, periods, height_point, workers), size()

    box = {"height_k": height_k, "height_b": height_b, "height_point": height_point}
    size = lambda: (count_rationals(height_k) - 1) * (count_rationals(height_b) - 1)  # the (k, b) pairs
    return _scan_periods("kb", box, periods, size, find, workers)


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
    least point.  ``scanned_count``, the map pairs sharing a point, is
    counted by inclusion-exclusion over each map's own points.  Only two
    cycles of 3 or more points can share 3, so only those enter the point
    index of (map, cycle set) entries through each point, in scan order.  A
    hit carries both map descriptors, the least common point, and the
    intersection.
    """
    box = {"height": bound, "height_point": height_point}
    _check_scan(box, workers, lambda: (n := count_rationals(bound)) + (n - 1) ** 2)
    t0 = time.perf_counter()
    ks = [r for r in rational_pairs(bound) if r[0]]
    rows = _quad_rows(bound, height_point, (1, 2, 3), workers) + _kb_rows(ks, bound, (1, 2, 4), height_point, workers)

    index: Dict[Fraction, List[Tuple[tuple, FrozenSet[Fraction]]]] = {}
    sharing = Counter()  # X -> N_X, the number of maps whose points contain X
    for p, group in itertools.groupby(rows, key=lambda row: row[0]):
        m = KBMap(Fraction(*p[0]), Fraction(*p[1])) if _is_kb(p) else QuadraticMap(Fraction(*p))
        points = set()  # the map's cycle points P_A, as (num, den)
        for _, n, zn, zd in group:  # by n, then from the least point of each cycle
            if (zn, zd) not in points:
                cyc = frozenset(cycle_from(m, Fraction(zn, zd), n))
                points.update(x.as_integer_ratio() for x in cyc)
                if len(cyc) >= 3:
                    for x in cyc:
                        index.setdefault(x, []).append((p, cyc))
        sharing.update(frozenset(X) for j in range(1, len(points) + 1) for X in itertools.combinations(points, j))
    # a pair sharing t >= 1 points counts sum_j (-1)^(j+1) C(t, j) = 1 - (1 - 1)^t = 1 time
    count = sum((-1) ** (len(X) + 1) * math.comb(N, 2) for X, N in sharing.items())

    least = {}  # (p, q, common) -> least common point
    for x in sorted(index, key=_rat_key):
        for (p, a), (q, b) in itertools.combinations(index[x], 2):
            if len(common := a & b) >= 3:
                least.setdefault((p, q, common), x)
    hits = tuple({"map1": _describe(p), "map2": _describe(q), "point": format_rational(x),
                  "size": len(common), "common": sorted(format_rational(y) for y in common)}
                 for (p, q, common), x in least.items())
    return ScanReport("intersection", box, (), hits, count, time.perf_counter() - t0)


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


def _quartic_chunk(vs: range, bound: int, L: int, A, masks) -> List[Tuple[int, int, int]]:
    """(u, v, r) for each coprime u, v with |u| <= bound, v in ``vs`` and
    L * F(u, v) == r**2: the ``_square_masks`` ANDed ``_WORDS`` words of v
    at a time, the set bits' coprime (u, v), then an exact isqrt."""
    import numpy as np

    A4, A3, A2, A1, A0 = A
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
    builds once.  Each call expands it once into an (m, W) uint64 mask,
    W = ceil((2B + 1) / 64), whose row v mod m has bit i set when u = i - B
    passes: sum(m) (2B + 1) bits, about 1.36 MB at B = 10^4, which a pool's
    processes inherit at the fork.  The kernel, one call per chunk of v,
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
    pts, masks = {}, _square_masks(bound, L, A)
    for part in _fan_out(_quartic_chunk, range(1, bound + 1), workers, bound, L, A, masks):
        pts.update((Fraction(u, v), Fraction(r, L * v * v)) for u, v, r in part)
    affine: List[Tuple[Fraction, Fraction]] = []
    for t in sorted(pts, key=_rat_key):
        affine.extend((t, y) for y in sorted({-pts[t], pts[t]}))
    return QuarticReport(curve, bound, tuple(affine), is_rational_square(curve.a4), count_rationals(bound),
                         time.perf_counter() - t0)
