"""The four benchmark workloads.

Each workload turns (seed, size) into a fixed list of calls: one public
ratdyn call each, made one after another by a single client (closed loop).
The harness in ``run.py`` times every call, repeats the list in passes and
checks every output.  A workload also knows its after-run checks and how to
replay its work with spans around each layer for the traced run.

Why four: each is the only place where one layer does most of the work.
``scan`` is dominated by the iterate / period-polynomial build and the
Moebius division (its quad calls) and by bounded rational-root extraction
(its KB calls), ``oracle`` by unbounded root extraction (factoring),
``orbit_census`` by the orbit core, and ``quartic`` by the square-test
kernels.  The inputs are fixed by definition, because their size sets the
amount of work; the seed sets the order of the oracle queries and census
maps and which scan or quartic call is repeated at nproc workers.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from ratdyn import _intpoly, cli
from ratdyn.classification import (
    kb_period4_family,
    kb_periodic_points,
    period3_family,
    quad_periodic_points,
)
from ratdyn.core import ProjectivePoint, enumerate_rationals, format_rational, height
from ratdyn.dynamics import KBMap, QuadraticMap, exact_period, orbit
from ratdyn.dynatomic import dynatomic_int, periodic_points_exact, rational_roots
from ratdyn.polynomials import Poly
from ratdyn.search import QuarticCurve, quartic_rational_points, scan_kb_periods, scan_quadratic_periods
from ratdyn.simultaneous import quadratics_with_periodic_point

from spans import Tracer

Call = Tuple[Callable, tuple]
Check = Tuple[str, bool]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def enumerate_traced(tracer: Tracer, bound: int, stats: "Layers") -> List[Fraction]:
    with tracer.span("core.enumerate"):
        out = list(enumerate_rationals(bound))
    stats.enumerated += len(out)
    return out


class Layers:
    """Counters gathered at the layer boundaries during the traced replay."""

    def __init__(self) -> None:
        self.enumerated = 0
        self.orbit_points = 0
        self.orbit_periodic = 0
        self.orbit_bound_exceeded = 0
        self.final_height_bits: List[int] = []
        self.degrees: List[int] = []
        self.coeff_bits: List[int] = []
        self.roots = 0
        self.accepted = 0
        self.serial_s = 0.0
        self.parallel_s = 0.0
        self.output_bytes = 0
        self.quartic = {"small": [0.0, 0], "large": [0.0, 0]}
        self.scan = False
        self.traced_s = 0.0


def traced_exact_period(tracer: Tracer, stats: Layers, m, r: Fraction):
    """``dynamics.exact_period`` as it is built: one ``orbit`` call, then the
    test that the start point lies on the cycle."""
    with tracer.span("dynamics.exact_period"):
        with tracer.span("dynamics.orbit"):
            rep = orbit(m, ProjectivePoint.from_rational(r))
        seen = rep.tail + rep.cycle
        stats.orbit_points += len(seen)
        last = seen[-1]
        stats.final_height_bits.append(max(abs(last.x), abs(last.y)).bit_length())
        if rep.is_periodic:
            stats.orbit_periodic += 1
            return len(rep.cycle) if not rep.tail else None
        stats.orbit_bound_exceeded += 1
        return None


def traced_dynatomic_points(tracer, stats, m, n: int, point_bound) -> List[Fraction]:
    """The dynatomic route the scans and ``periodic_points_exact`` take:
    integer build, rational roots, exact-period filter."""
    with tracer.span("dynatomic.build"):
        poly = dynatomic_int(m, n)
    stats.degrees.append(len(poly) - 1)
    stats.coeff_bits.append(max(abs(c).bit_length() for c in poly))
    with tracer.span("intpoly.roots"):
        roots = _intpoly.rational_roots_int(poly, point_bound)
    stats.roots += len(roots)
    out = []
    for r in roots:
        if isinstance(m, KBMap) and r == 0:
            continue
        if traced_exact_period(tracer, stats, m, r) == n:
            out.append(r)
    stats.accepted += len(out)
    return out


def rat_key(r: Fraction):
    return (height(r), r.numerator, r.denominator)


def payload(out):
    """The JSON document a successful ``cli.run`` printed, else None."""
    if isinstance(out, tuple) and out[0] == 0:
        return json.loads(out[1])
    return None


# --------------------------------------------------------------------------
# the CLI-driven workloads: scans and quartic


class CliWorkload:
    """Calls ``ratdyn.cli.run`` with fixed argument lists at ``--workers 1``.

    The timed calls run in the benchmark's one process: on a host with few
    shared cores a fork fan-out times the scheduler more than the program.
    The fan-out is measured in the traced run instead, at ``fanout`` = nproc
    workers.  A subclass gives ``SIZES`` (its call specs per size), ``argv``,
    ``items``, ``setup``, ``facts`` and ``traced``.  Every output must match
    the reference digest recorded when the benchmark was defined; one call
    per run (chosen by the seed) is repeated at ``--workers nproc`` and must
    give the same bytes.
    """

    name = ""

    def __init__(self, seed: int, size: str, nproc: int, reference: Dict[str, List[str]]):
        self.seed = seed
        self.size = size
        self.fanout = nproc
        self.reference = reference.get(self.name, {}).get(size, [])
        self.specs = self.SIZES[size]

    def calls(self) -> List[Call]:
        return [(cli.run, (self.argv(s, 1),)) for s in self.specs]

    def check_call(self, i: int, out) -> bool:
        code, text = out
        return code == 0 and i < len(self.reference) and digest(text) == self.reference[i]

    def final_checks(self, outputs) -> List[Check]:
        i = self.seed % len(self.specs)
        code, text = cli.run(self.argv(self.specs[i], self.fanout))
        checks = [(f"workers={self.fanout} bytes equal workers=1 bytes (call {i})",
                   code == 0 and outputs[i] == (0, text))]
        return checks + self.facts([payload(out) for out in outputs])


class Scan(CliWorkload):
    """``ratdyn scan`` over fixed boxes of quadratic and KB maps.

    The quad calls are dominated by the iterate / period-polynomial build and
    the Moebius division; periods 1-3 exercise the exact-period filter and
    7-8 build degree-240 dynatomic polynomials with ~500-bit coefficients.
    The KB calls are dominated by bounded rational-root extraction (the even
    ``w = z^2`` branch); the period-3 KB box must be empty.  After the timed
    passes, one untimed scan of a KB box that holds the period-4 control
    kb:k=4/3,b=-10/3 must find it: a timed box that holds it costs more than
    all the other calls together.
    """

    name = "scan"
    # ("quad", height_c, height_point, periods) or
    # ("kb", height_k, height_b, height_point, periods).  Every call takes
    # 30-80 ms on the 2-vCPU VM: a short call's fastest pass is far steadier
    # there than a long call's, which needs the host fast for longer.
    SIZES = {
        "full": [("quad", 20, 100, (1, 2, 3)), ("quad", 20, 100, (4,)), ("quad", 20, 100, (5,)),
                 ("quad", 12, 100, (6,)), ("quad", 5, 100, (7,)), ("quad", 3, 100, (8,)),
                 ("kb", 2, 4, 50, (3,)), ("kb", 2, 4, 50, (4,)), ("kb", 2, 4, 50, (5,))],
        "tiny": [("quad", 6, 30, (1, 2, 3)), ("quad", 3, 30, (4, 5)),
                 ("kb", 2, 3, 20, (3,)), ("kb", 2, 3, 20, (4,))],
    }
    CONTROL = ("kb:k=4/3,b=-10/3", {"2", "1", "-2", "-1"}, ("kb", 4, 10, 2, (4,)))

    def argv(self, spec, workers):
        if spec[0] == "quad":
            _, hc, hp, periods = spec
            box = ["--kind", "quad", "--height-c", str(hc)]
        else:
            _, hk, hb, hp, periods = spec
            box = ["--kind", "kb", "--height-k", str(hk), "--height-b", str(hb)]
        return ["scan", *box, "--height-point", str(hp),
                "--periods", ",".join(map(str, periods)), "--workers", str(workers)]

    def items(self) -> List[int]:
        return [len(box) * len(spec[-1]) for box, spec in zip(self.boxes, self.specs)]

    def setup(self) -> None:
        self.boxes = [self._box(enumerate_rationals, s) for s in self.specs]

    @staticmethod
    def _box(enum, spec):
        if spec[0] == "quad":
            return [QuadraticMap(c) for c in enum(spec[1])]
        bs = [b for b in enum(spec[2]) if b != 0]
        return [KBMap(k, b) for k in enum(spec[1]) if k != 0 for b in bs]

    def final_checks(self, outputs) -> List[Check]:
        name, points, spec = self.CONTROL
        doc = payload(cli.run(self.argv(spec, 1)))
        got = doc and {h["point"] for h in doc["hits"] if h["map"] == name and h["period"] == 4}
        return super().final_checks(outputs) + [(f"period-4 control {name} present", got == points)]

    def facts(self, payloads):
        out = []
        for spec, doc in zip(self.specs, payloads):
            periods = spec[-1]
            if doc is None:
                out.append((f"scan {spec} ran", False))
            elif spec[0] == "quad" and periods == (1, 2, 3):
                out.append(("quad periods 1-3 box has hits, all of period <= 3",
                            len(doc["hits"]) > 0 and all(h["period"] <= 3 for h in doc["hits"])))
            elif spec[0] == "kb" and 3 in periods:
                out.append(("kb period-3 box is empty",
                            not any(h["period"] == 3 for h in doc["hits"])))
        return out

    def maps(self, tracer, stats, spec):
        return self._box(lambda h: enumerate_traced(tracer, h, stats), spec)

    def library(self, spec, workers):
        if spec[0] == "quad":
            _, hc, hp, periods = spec
            return scan_quadratic_periods(hc, hp, periods, workers=workers)
        _, hk, hb, hp, periods = spec
        return scan_kb_periods(hk, hb, hp, periods, workers=workers)

    def traced(self, tracer: Tracer, stats: Layers, first_outputs) -> List[Check]:
        """Per call: the CLI and the library at workers=1, the library at
        ``fanout``, and a serial replay of the same maps through the layers
        ``search`` calls.  The replay must reproduce the scan's hits
        exactly."""
        checks: List[Check] = []
        for spec in self.specs:
            point_bound, periods = spec[-2], spec[-1]
            with tracer.span("cli.run"):
                code, text = cli.run(self.argv(spec, 1))
            stats.output_bytes += len(text.encode())
            with tracer.span("search.scan.parallel") as sp:
                parallel = self.library(spec, self.fanout)
            stats.parallel_s += sp.seconds
            with tracer.span("search.scan.serial") as sp:
                self.library(spec, 1)
            stats.serial_s += sp.seconds
            maps = self.maps(tracer, stats, spec)
            hits = []
            with tracer.span("search.replay") as sp:
                for m in maps:
                    for n in periods:
                        pts = traced_dynatomic_points(tracer, stats, m, n, point_bound)
                        for p in sorted(pts, key=rat_key):
                            hits.append({"map": m.describe(), "point": format_rational(p), "period": n})
            stats.traced_s += sp.seconds
            doc = payload((code, text))
            checks.append((f"replayed hits equal scan hits {spec}",
                           doc is not None and doc["hits"] == hits))
            checks.append((f"workers={self.fanout} report equals workers=1 output {spec}",
                           doc == parallel.canonical_dict()))
        stats.scan = True
        return checks


class Quartic(CliWorkload):
    name = "quartic"
    # The three built-in curves take the int64 numpy kernel; the last curve's
    # integer form passes 2**62 at this bound, so it takes the pure-Python
    # kernel.  (coeffs, bound, kernel); each call takes 60-100 ms on the
    # 2-vCPU VM, short for the reason given at ``Scan.SIZES``.
    BUILTIN = ["1,6,7,2,1", "1,-2,-5,-2,1", "1,2,7,6,1"]
    LARGE = "1,6,7,2,1000000000000"
    SIZES = {
        "full": [(c, 1200, "small") for c in BUILTIN] + [(LARGE, 200, "large")],
        "tiny": [(c, 200, "small") for c in BUILTIN] + [(LARGE, 50, "large")],
    }

    def argv(self, spec, workers):
        coeffs, bound, _ = spec
        return ["quartic", "--coeffs", coeffs, "--height", str(bound), "--workers", str(workers)]

    def items(self) -> List[int]:
        return [(2 * b + 1) * b for _, b, _ in self.specs]

    def setup(self) -> None:
        self.curves = [QuarticCurve(*map(Fraction, s[0].split(","))) for s in self.specs]

    def facts(self, payloads):
        four = sorted([["0", "1"], ["0", "-1"], ["-1", "1"], ["-1", "-1"]])
        out = []
        for (coeffs, _, kind), doc in zip(self.specs, payloads):
            if kind == "small":
                out.append((f"curve {coeffs} has exactly the four affine points",
                            doc is not None and sorted(doc["affine"]) == four
                            and doc["infinite_points"] is True))
            else:
                out.append((f"curve {coeffs} has (0, +-10^6)",
                            doc is not None and ["0", "1000000"] in doc["affine"]
                            and ["0", "-1000000"] in doc["affine"]))
        return out

    def traced(self, tracer: Tracer, stats: Layers, first_outputs) -> List[Check]:
        checks: List[Check] = []
        for spec, curve in zip(self.specs, self.curves):
            bound, kind = spec[1], spec[2]
            with tracer.span("cli.run") as sp:
                code, text = cli.run(self.argv(spec, 1))
            stats.traced_s += sp.seconds
            stats.output_bytes += len(text.encode())
            with tracer.span("search.quartic.parallel") as sp:
                parallel = quartic_rational_points(curve, bound, workers=self.fanout)
            stats.parallel_s += sp.seconds
            with tracer.span(f"search.quartic.{kind}") as sp:
                quartic_rational_points(curve, bound, workers=1)
            stats.serial_s += sp.seconds
            stats.quartic[kind][0] += sp.seconds
            stats.quartic[kind][1] += (2 * bound + 1) * bound
            checks.append((f"workers={self.fanout} report equals workers=1 output {spec[0]}",
                           payload((code, text)) == {"command": "quartic", **parallel.canonical_dict()}))
        return checks


# --------------------------------------------------------------------------
# the library-driven workloads: oracle and orbit census


QUAD_PERIODS = (1, 2, 3)
KB_PERIODS = (1, 2, 4)


def query_quad(c: Fraction):
    m = QuadraticMap(c)
    return ([periodic_points_exact(m, n) for n in QUAD_PERIODS],
            [quad_periodic_points(c, n) for n in QUAD_PERIODS])


def query_kb(k: Fraction, b: Fraction):
    m = KBMap(k, b)
    return ([periodic_points_exact(m, n) for n in KB_PERIODS],
            [kb_periodic_points(k, b, n) for n in KB_PERIODS])


def iterate_roots(q: Fraction) -> Dict[Fraction, int]:
    """Every c with q periodic of period <= 3 for z^2 + c, from the rational
    roots in c of f_c^n(q) - q, independent of the closed forms."""
    c_var = Poly([0, 1])
    out = {}
    iterate = Poly([q])
    for n in (1, 2, 3):
        iterate = iterate * iterate + c_var
        for c in rational_roots(iterate - Poly([q])):
            if exact_period(QuadraticMap(c), q) == n:
                out[c] = n
    return out


def query_shared(q: Fraction):
    entries = quadratics_with_periodic_point(q)
    return {e.c: e.period for e in entries}, iterate_roots(q)


class Oracle:
    """Fixed maps, serial.  A query classifies one map twice, through the
    dynatomic route with unbounded roots and through the closed forms, at
    every period its family classifies; or finds every z^2 + c with one
    periodic point q twice, through ``quadratics_with_periodic_point`` and
    through iterate roots.  A whole map per query keeps the median off the
    gap between the cheap periods 1-2 and the costly ones.

    The queries are every quad c and every shared point q up to a height,
    and every ``stride``-th KB pair (k, b) up to a height; the seed sets
    their order.  A fixed set keeps the amount of work, and the heavy tail
    of the unbounded root extraction, the same from seed to seed."""

    name = "oracle"
    # (height of c and q, height of k and b, KB stride)
    SIZES = {"full": (20, 8, 16), "tiny": (3, 2, 4)}

    def __init__(self, seed, size, nproc, reference):
        self.seed = seed
        self.height, self.height_kb, self.stride = self.SIZES[size]

    def setup(self) -> None:
        rats = list(enumerate_rationals(self.height))
        kb = [r for r in enumerate_rationals(self.height_kb) if r != 0]
        pairs = [(k, b) for k in kb for b in kb][::self.stride]
        queries = ([("quad", c) for c in rats] + [("kb", k, b) for k, b in pairs]
                   + [("shared", q) for q in rats])
        random.Random(self.seed).shuffle(queries)
        self.queries = queries

    def calls(self) -> List[Call]:
        fns = {"quad": query_quad, "kb": query_kb, "shared": query_shared}
        return [(fns[q[0]], q[1:]) for q in self.queries]

    def items(self) -> List[int]:
        return [1] * len(self.queries)

    def check_call(self, i: int, out) -> bool:
        return out[0] == out[1]

    def final_checks(self, outputs) -> List[Check]:
        return []

    def traced(self, tracer: Tracer, stats: Layers, first_outputs) -> List[Check]:
        bad = 0
        with tracer.span("oracle.pass") as sp:
            for q in self.queries:
                with tracer.span("oracle.query"):
                    if q[0] == "shared":
                        with tracer.span("simultaneous.shared"):
                            entries = quadratics_with_periodic_point(q[1])
                        with tracer.span("polynomials.iterate_roots"):
                            ok = {e.c: e.period for e in entries} == iterate_roots(q[1])
                    elif q[0] == "quad":
                        ok = self._classify(tracer, stats, QuadraticMap(q[1]), QUAD_PERIODS,
                                            lambda n: quad_periodic_points(q[1], n))
                    else:
                        ok = self._classify(tracer, stats, KBMap(q[1], q[2]), KB_PERIODS,
                                            lambda n: kb_periodic_points(q[1], q[2], n))
                bad += not ok
        stats.traced_s = sp.seconds
        return [("traced oracle pass: closed form == dynatomic for every query", bad == 0)]

    @staticmethod
    def _classify(tracer, stats, m, periods, closed_form) -> bool:
        ok = True
        for n in periods:
            got = frozenset(traced_dynatomic_points(tracer, stats, m, n, None))
            with tracer.span("classification.closed_form"):
                ok &= got == closed_form(n)
        return ok


class OrbitCensus:
    """``exact_period`` for every start up to a height bound on every map of
    the tau 3-cycle and m 4-cycle families with a parameter up to a height,
    plus the worked examples.  The seed sets the order of the maps."""

    name = "orbit_census"
    # (family parameter height bound, start height bound)
    SIZES = {"full": (3, 30), "tiny": (2, 6)}
    EXAMPLES = [QuadraticMap(Fraction(-29, 16)), QuadraticMap(Fraction(-3, 4)),
                QuadraticMap(Fraction(-13)), KBMap(Fraction(4, 3), Fraction(-10, 3)),
                KBMap(Fraction(5, 3), Fraction(-3, 2))]

    def __init__(self, seed, size, nproc, reference):
        self.seed = seed
        self.family_height, self.bound = self.SIZES[size]

    def maps(self) -> List:
        params = list(enumerate_rationals(self.family_height))
        out = [QuadraticMap(period3_family(tau).c) for tau in params if tau not in (0, -1)]
        for m in params:
            if m not in (0, 1, -1):
                fam = kb_period4_family(m)
                out.append(KBMap(fam.k, fam.b))
        out += self.EXAMPLES
        random.Random(self.seed).shuffle(out)
        return out

    def setup(self) -> None:
        self.census_maps = self.maps()
        self.starts = list(enumerate_rationals(self.bound))

    def calls(self) -> List[Call]:
        return [(exact_period, (m, p)) for m in self.census_maps for p in self.starts]

    def items(self) -> List[int]:
        return [1] * (len(self.census_maps) * len(self.starts))

    def check_call(self, i: int, out) -> bool:
        return out is None or out >= 1

    def final_checks(self, outputs) -> List[Check]:
        """Census sets equal ``periodic_points_exact`` truncated to the bound."""
        checks = []
        per_map = len(self.starts)
        for j, m in enumerate(self.census_maps):
            census: Dict[int, set] = {}
            for p, n in zip(self.starts, outputs[j * per_map:(j + 1) * per_map]):
                if isinstance(n, int):
                    census.setdefault(n, set()).add(p)
            family = (1, 2, 3) if isinstance(m, QuadraticMap) else (1, 2, 4)
            ok = all(
                census.get(n, set()) == set(periodic_points_exact(m, n, height_bound=self.bound))
                for n in sorted(set(family) | set(census))
            )
            checks.append((f"census of {m.describe()} equals periodic_points_exact", ok))
        return checks

    def traced(self, tracer: Tracer, stats: Layers, first_outputs) -> List[Check]:
        starts = enumerate_traced(tracer, self.bound, stats)
        bad = 0
        i = 0
        with tracer.span("census.pass") as sp:
            for m in self.census_maps:
                for p in starts:
                    bad += traced_exact_period(tracer, stats, m, p) != first_outputs[i]
                    i += 1
        stats.traced_s = sp.seconds
        return [("traced census equals untraced census", bad == 0)]


WORKLOADS = {w.name: w for w in (Scan, Quartic, Oracle, OrbitCensus)}
