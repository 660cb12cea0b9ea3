"""Height-bounded scans and the quartic point search.

Scans enumerate exact rationals in the documented order (ascending height,
then numerator, then denominator) and find each map's points of exact
period n and height <= B with a good-reduction sieve.  Every sieve prime p
exceeds 2B and every numerator and denominator of the maps' parameters, so
each map has good reduction at p and reduction commutes with iteration: a
rational point of exact period n reduces to a residue z with f^n(z) == z in
P^1(F_p), and a point u/v with v <= B reduces to an affine residue.  A quad
map z^2 + c walks no F_p: its candidates are the u/e in lowest terms with
|u| <= min(B, top) when den(c) = e^2, e <= B (its window: every periodic
point lies in it, by ``dynamics.quad_window``), and each prime steps only
their residues.  Step tables are for KB maps only: the first prime iterates
each KB map over all of F_p, and each periodic residue r and v <= B leave at
most one candidate u in [-B, B] with u = r v mod p; each later prime q
iterates only the candidates' residues u / v mod q, or, when they outnumber
its table's cells, every residue once.  Candidates that a prime does not
mark are dropped; ``exact_period`` confirms each survivor in one call.
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

import numpy as np

from .core import (
    count_rationals,
    enumerate_rationals,
    format_rational,
    height,
    is_rational_square,
)
from .dynamics import KBMap, QuadraticMap, cycle_from, exact_period, quad_window
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


# --- the good-reduction sieve ----------------------------------------------

_PRIMES = 3  # sieve primes per chunk
_BLOCK = 64  # KB maps per step-table block
_CELLS = 2**16  # cap on maps * p, residues * bound or window cells in one array


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p for each 0 <= x < p: its inverse mod p, and 0 at 0."""
    out, e = 1, p - 2
    while e:  # square and multiply
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


def _steps(coef: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
    """KB step tables mod p, laid end to end: entry i (p + 1) + z is i (p + 1)
    + phi_i(z), for (k, b) = coef[i] mod p and ``inv`` the inverses of 0..p.
    Residue p is infinity, fixed by phi; phi sends 0 there."""
    step = coef[:, :1] * np.arange(p + 1) + coef[:, 1:] * inv
    step %= p
    step[:, [0, p]] = p
    step += np.arange(len(coef))[:, None] * (p + 1)
    return step.ravel()


def _walk(step, start: np.ndarray, periods) -> np.ndarray:
    """bits[j] has bit n - 1 set when ``start[j]`` comes back after n
    applications of ``step``, for n in ``periods``."""
    bits, z = np.zeros(start.shape, dtype=np.uint8), start
    for n in range(1, periods[-1] + 1):
        z = step(z)
        if n in periods:
            bits |= (z == start).astype(np.uint8) << (n - 1)
    return bits


def _window(num, den, periods, bound: int, primes):
    """(row, u, e, bits) for each u/e in the window of the ``row``-th quad map,
    c = num / den: gcd(u, e) = 1 and |u| <= min(bound, top) (``quad_window``),
    empty unless e <= bound.  Each prime q steps only these residues u e^-1,
    as z -> z^2 + c mod q, and drops those that do not recur."""
    e, top = (a.astype(np.int64) for a in np.frompyfunc(quad_window, 2, 2)(num[:, 0], den[:, 0]))
    w = np.minimum(top, bound)
    size = np.where((0 < e) & (e <= bound), 2 * w + 1, 0)
    for rows in np.split(np.arange(len(w)), np.flatnonzero(np.diff(np.cumsum(size) // _CELLS)) + 1):
        row = np.repeat(rows, size[rows])
        u = np.arange(row.size) - np.repeat(np.cumsum(size[rows]) - size[rows] + w[rows], size[rows])
        keep = np.gcd(u, e[row]) == 1
        row, u, v = row[keep], u[keep], e[row[keep]]
        flag = np.full(row.shape, 0xFF, np.uint8)
        for q in primes:  # q > e, so each e is a unit mod q
            ie = _inverse(v % q, q)
            c = num[row, 0] % q * ie % q * ie % q
            flag &= _walk(lambda z: (z * z + c) % q, u % q * ie % q, periods)
            live = flag != 0
            row, u, v, flag = row[live], u[live], v[live], flag[live]
        yield from zip(*(a.tolist() for a in (row, u, v, flag)))


def _candidates(num, den, periods, bound: int, primes):
    """(row, u, v, bits) for each u/v in lowest terms with |u|, v <= bound
    that is periodic mod every prime under the ``row``-th KB map, (k, b) =
    num / den.  The first prime walks every residue of its step tables, built
    for ``_BLOCK`` maps at a time; each later prime walks only the candidates
    still standing, or every residue once when they outnumber its cells."""
    inverses = [_inverse(np.arange(p + 1) % p, p) for p in primes]
    p1, per, rows = primes[0], max(1, _CELLS // bound), max(1, min(_BLOCK, _CELLS // primes[-1]))
    for at in range(0, len(num), rows):
        tables = [_steps(num[at : at + rows] % p * inv[den[at : at + rows]] % p, p, inv)
                  for p, inv in zip(primes, inverses)]
        bits = _walk(tables[0].take, np.arange(tables[0].size), periods).reshape(-1, p1 + 1)[:, :p1]
        # a periodic residue r mod p1 and a v <= bound leave one u = r v mod p1
        # in a window of length p1 > 2 * bound; it is a candidate if |u| <= bound
        block_rows, rs = np.nonzero(bits)
        for lo in range(0, len(rs), per):
            row, r = block_rows[lo : lo + per, None], rs[lo : lo + per, None]
            v = np.arange(1, bound + 1, dtype=np.int64)
            u = r * v
            u %= p1
            u[u > bound] -= p1
            flag = bits[row, r] * (u >= -bound)
            for q, inv, table in zip(primes[1:], inverses[1:], tables[1:]):
                at_q = row * (q + 1) + u * inv[v] % q
                full = at_q.size >= table.size
                walked = _walk(table.take, np.arange(table.size) if full else at_q, periods)
                flag &= walked[at_q] if full else walked
                live = flag != 0
                row, u, v, flag = (np.broadcast_to(a, live.shape)[live] for a in (row, u, v, flag))
            keep = np.gcd(u, v) == 1
            yield from zip(*(a[keep].tolist() for a in (at + row, u, v, flag)))


def _sieve(maps, periods_of, bound: int) -> List[Dict[int, List[Fraction]]]:
    """Per map m, its points of exact period n with height <= ``bound`` for
    each n in ``periods_of[type(m)]``, in ``_rat_key`` order (see the module
    docstring): candidates from ``_window`` (quad) or ``_candidates`` (KB),
    each confirmed by one ``exact_period`` call.  Only maps with a point sort
    anything; maps with no point share one read-only dict per family."""
    # per family, its maps' parameter integers, read once into an int64 array
    # (a Python list per map would hold ~0.2 KB each)
    ints = {cls: np.fromiter((x for m in maps if type(m) is cls for f in m.__dataclass_fields__
                              for x in getattr(m, f).as_integer_ratio()), np.int64)
            .reshape(-1, len(cls.__dataclass_fields__), 2) for cls in periods_of}
    top = max([2 * bound] + [int(abs(a).max()) for a in ints.values() if a.size])
    ps = (p for p in itertools.count(top + 1) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    primes = list(itertools.islice(ps, _PRIMES))
    found: Dict[int, Dict[int, List[Fraction]]] = {}
    for cls, periods in periods_of.items():
        idx = np.flatnonzero([type(m) is cls for m in maps])
        sieve = _window if cls is QuadraticMap else _candidates
        for row, u, v, f in sieve(ints[cls][..., 0], ints[cls][..., 1], periods, bound, primes) if len(idx) else ():
            i = int(idx[row])
            m, z = maps[i], Fraction(u, v)
            try:
                n = exact_period(m, z)
            except DomainError as exc:  # named by the least n in its bits
                raise DomainError(f"{m.describe()}, n={(f & -f).bit_length()}: {exc}") from None
            if n and f >> (n - 1) & 1:
                found.setdefault(i, {k: [] for k in periods})[n].append(z)
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
    if not 1 <= height_point <= 10**6:  # the sieve holds arrays of ~2 * height_point
        raise parameter_excluded("height_point", height_point)
    if workers < 1:
        raise parameter_excluded("workers", workers)


def _scan_periods(kind, box, periods, make_maps, workers) -> ScanReport:
    """The period scans: validate, build the maps, fan out, report.
    ``make_maps`` returns the maps to sieve and the size of the box."""
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
