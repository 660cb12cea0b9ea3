"""Command-line front end.

Subcommands: orbit, period, dynatomic, classify, family, intersect, shared,
simul, scan, quartic.  All numbers in and out use the exact rational grammar
("n" or "n/d", "inf" for infinity); maps use "quad:c=<rat>" or
"kb:k=<rat>,b=<rat>".  Exit codes: 0 success, 1 domain error (the message
names the violated precondition), 2 usage error.  JSON output is canonical
(sorted keys, compact separators) and round-trips byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Tuple

from .classification import (
    kb_period4_cycle,
    kb_periodic_points,
    kb_witness,
    quad_period3_cycle,
    quad_periodic_points,
    quad_witness,
)
from .core import format_point, format_rational, parse_point, parse_rational
from .dynamics import KBMap, QuadraticMap, exact_period, orbit
from .dynatomic import dynatomic_polynomial, period4_dynatomic_factors, period_polynomial
from .errors import DomainError
from .search import (
    DEFAULT_BOUNDS,
    QuarticCurve,
    quartic_rational_points,
    scan_intersection_bound,
    scan_kb_periods,
    scan_quadratic_periods,
)
from .simultaneous import (
    kb_pair_family,
    maps_with_both_periodic,
    orbit_intersection,
    quadratics_with_periodic_point,
    triples_fixed_point,
    triples_period2,
    triples_period3,
    two_point_intersection_kb,
    two_point_intersection_mixed,
    two_point_intersection_period3,
)

PROG = "ratdyn"


def parse_map(text: str):
    if text.startswith("quad:c="):
        return QuadraticMap(parse_rational(text[len("quad:c="):]))
    if text.startswith("kb:k="):
        body = text[len("kb:"):]
        parts = body.split(",")
        if len(parts) == 2 and parts[0].startswith("k=") and parts[1].startswith("b="):
            return KBMap(parse_rational(parts[0][2:]), parse_rational(parts[1][2:]))
    raise DomainError(f"invalid map descriptor: {text!r}")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rat_list(values) -> list:
    return [format_rational(v) for v in values]


_CONFIG_KEYS = frozenset(DEFAULT_BOUNDS) | {"height"}


def _read_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read config file {path!r}: {reason}") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"invalid config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DomainError(
                f"unknown config key in {path!r} line {lineno}: {key!r}"
            )
        try:
            out[key] = int(val)
        except ValueError:
            raise DomainError(
                f"invalid config value in {path!r} line {lineno}: {line!r}"
            ) from None
    return out


def _bound(args, config, flag: str, key: str) -> int:
    val = getattr(args, flag, None)
    if val is not None:
        return val
    return config.get(key, DEFAULT_BOUNDS[key])


def _table(rows) -> str:
    if not rows:
        return ""
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog=PROG,
        description="Exact rational periodic points of z^2+c and kz+b/z.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "table", "csv"], default="json")

    p = sub.add_parser("orbit", help="forward orbit with cycle detection")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--max-steps", type=int, default=64)
    p.add_argument("--height-bound", type=int, default=None)
    add_format(p)

    p = sub.add_parser("period", help="exact period of a point, if periodic")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--max-steps", type=int, default=64)
    add_format(p)

    p = sub.add_parser("dynatomic", help="period/dynatomic polynomials")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--which",
        choices=["dynatomic", "period", "factor4", "cofactor4"],
        default="dynatomic",
    )
    add_format(p)

    p = sub.add_parser("classify", help="closed-form periodic points per period")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=None)
    add_format(p)

    p = sub.add_parser("family", help="simultaneous-periodic-point generators")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "fixed",
            "period2",
            "period3",
            "kbpair",
            "intersect-mixed",
            "intersect-period3",
            "intersect-kbkb",
        ],
    )
    p.add_argument("--p")
    p.add_argument("--n", type=int)
    p.add_argument("--q")
    p.add_argument("--m")
    p.add_argument("--tau")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--sign", type=int, choices=[1, -1])
    p.add_argument("--row", type=int)
    p.add_argument("--case", type=int)
    p.add_argument("--s1")
    p.add_argument("--s2")
    add_format(p)

    p = sub.add_parser("intersect", help="orbit intersection at a common periodic point")
    p.add_argument("--map1", required=True)
    p.add_argument("--map2", required=True)
    p.add_argument("--point", required=True)
    add_format(p)

    p = sub.add_parser("shared", help="all z^2+c with the given periodic point")
    p.add_argument("--q", required=True)
    add_format(p)

    p = sub.add_parser("simul", help="KB maps with two prescribed periodic values")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_format(p)

    p = sub.add_parser("scan", help="height-bounded searches")
    p.add_argument("--kind", required=True, choices=["quad", "kb", "intersection"])
    p.add_argument("--periods", default=None, help="comma list, e.g. 4,5,6")
    p.add_argument("--height-c", type=int, default=None)
    p.add_argument("--height-k", type=int, default=None)
    p.add_argument("--height-b", type=int, default=None)
    p.add_argument("--height-point", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", default=None)
    add_format(p)

    p = sub.add_parser("quartic", help="rational points on y^2 = quartic(t)")
    p.add_argument("--coeffs", required=True, help="a4,a3,a2,a1,a0")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", default=None)
    add_format(p)

    # let bare negative rationals ("-1/2") pass as option values
    matcher = re.compile(r"^-\d+(/\d+)?$")
    top._negative_number_matcher = matcher
    for child in sub.choices.values():
        child._negative_number_matcher = matcher
    return top


_parser = functools.cache(build_parser)  # a build costs ~30 parses: once per process


def _cmd_orbit(args) -> Tuple[int, str]:
    m = parse_map(args.map)
    rep = orbit(
        m,
        parse_point(args.point),
        max_steps=args.max_steps,
        height_bound=args.height_bound,
    )
    payload = {
        "command": "orbit",
        "map": m.describe(),
        "point": args.point,
        "status": rep.status,
        "tail": [format_point(q) for q in rep.tail],
        "cycle": [format_point(q) for q in rep.cycle],
    }
    if args.format == "table":
        rows = [("status", rep.status)]
        rows.append(("tail", " ".join(format_point(q) for q in rep.tail) or "-"))
        rows.append(("cycle", " ".join(format_point(q) for q in rep.cycle) or "-"))
        return 0, _table(rows)
    return 0, _json(payload)


def _cmd_period(args) -> Tuple[int, str]:
    m = parse_map(args.map)
    n = exact_period(m, parse_point(args.point), max_steps=args.max_steps)
    payload = {"command": "period", "map": m.describe(), "point": args.point, "exact_period": n}
    if args.format == "table":
        return 0, _table([("exact_period", n if n is not None else "-")])
    return 0, _json(payload)


def _cmd_dynatomic(args) -> Tuple[int, str]:
    m = parse_map(args.map)
    if args.which in ("factor4", "cofactor4"):
        if not isinstance(m, KBMap):
            raise DomainError("parameter excluded: factor4 requires a kb map")
        quartic, cofactor = period4_dynatomic_factors(m.k, m.b)
        poly = quartic if args.which == "factor4" else cofactor
    elif args.which == "period":
        poly = period_polynomial(m, args.n)
    else:
        poly = dynatomic_polynomial(m, args.n)
    text = poly.to_string()
    payload = {
        "command": "dynatomic",
        "map": m.describe(),
        "n": args.n,
        "which": args.which,
        "polynomial": text,
    }
    if args.format == "table":
        return 0, text
    return 0, _json(payload)


def _classify_one(m, n: int) -> dict:
    if isinstance(m, QuadraticMap):
        pts = quad_periodic_points(m.c, n)
        wit = quad_witness(m.c, n)
        names = {1: "rho", 2: "sigma", 3: "tau"}
        cycle = quad_period3_cycle(m.c) if n == 3 and pts else None
    else:
        pts = kb_periodic_points(m.k, m.b, n)
        wit = kb_witness(m.k, m.b, n) if pts else None
        names = {1: "m", 2: "m", 4: "m"}
        cycle = kb_period4_cycle(m.k, m.b) if n == 4 and pts else None
    return {
        "n": n,
        "points": _rat_list(sorted(pts)),
        "witness": {names[n]: format_rational(wit)} if wit is not None else None,
        "cycle": _rat_list(cycle) if cycle else None,
    }


def _cmd_classify(args) -> Tuple[int, str]:
    m = parse_map(args.map)
    all_n = (1, 2, 3) if isinstance(m, QuadraticMap) else (1, 2, 4)
    ns = [args.n] if args.n is not None else list(all_n)
    for n in ns:
        if n not in all_n:
            raise DomainError(f"parameter excluded: n={n}")
    results = [_classify_one(m, n) for n in ns]
    payload = {"command": "classify", "map": m.describe(), "results": results}
    if args.format == "table":
        rows = [("n", "points", "witness", "cycle")]
        for r in results:
            rows.append(
                (
                    r["n"],
                    " ".join(r["points"]) or "-",
                    _json(r["witness"]) if r["witness"] else "-",
                    " ".join(r["cycle"]) if r["cycle"] else "-",
                )
            )
        return 0, _table(rows)
    return 0, _json(payload)


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise DomainError(f"parameter excluded: --{name} is required")


def _cmd_family(args) -> Tuple[int, str]:
    kind = args.kind
    if kind in ("fixed", "period2"):
        _need(args, "p", "n")
        param = args.m if args.n == 4 else args.q
        if param is None:
            raise DomainError("parameter excluded: --q (or --m for n=4) is required")
        fn = triples_fixed_point if kind == "fixed" else triples_period2
        trip = fn(parse_rational(args.p), args.n, parse_rational(param))
    elif kind == "period3":
        _need(args, "tau", "i", "n")
        param = args.m if args.n == 4 else args.q
        if param is None:
            raise DomainError("parameter excluded: --q (or --m for n=4) is required")
        trip = triples_period3(
            parse_rational(args.tau), args.i, args.n, parse_rational(param)
        )
    elif kind == "intersect-mixed":
        _need(args, "p", "sign")
        trip = two_point_intersection_mixed(parse_rational(args.p), args.sign)
    elif kind == "intersect-period3":
        _need(args, "tau", "i", "j", "sign")
        trip = two_point_intersection_period3(
            parse_rational(args.tau), args.i, args.j, args.sign
        )
    elif kind == "kbpair":
        _need(args, "row", "p", "s1", "s2")
        quad = kb_pair_family(
            args.row, parse_rational(args.p), parse_rational(args.s1), parse_rational(args.s2)
        )
        return _emit_kbpair(args, quad)
    else:  # intersect-kbkb
        _need(args, "case", "p", "s1", "s2")
        quad = two_point_intersection_kb(
            args.case, parse_rational(args.p), parse_rational(args.s1), parse_rational(args.s2)
        )
        return _emit_kbpair(args, quad)
    payload = {
        "command": "family",
        "kind": kind,
        "k": format_rational(trip.k),
        "b": format_rational(trip.b),
        "c": format_rational(trip.c),
        "f_period": trip.f_period,
        "phi_period": trip.phi_period,
        "shared_point": format_rational(trip.shared_point),
        "parameters": {k: format_rational(v) for k, v in trip.parameters.items()},
    }
    if args.format == "table":
        rows = [
            ("k", payload["k"]),
            ("b", payload["b"]),
            ("c", payload["c"]),
            ("f_period", trip.f_period),
            ("phi_period", trip.phi_period),
            ("shared_point", payload["shared_point"]),
        ]
        return 0, _table(rows)
    return 0, _json(payload)


def _emit_kbpair(args, quad) -> Tuple[int, str]:
    payload = {
        "command": "family",
        "kind": args.kind,
        "k1": format_rational(quad.k1),
        "b1": format_rational(quad.b1),
        "k2": format_rational(quad.k2),
        "b2": format_rational(quad.b2),
        "periods": list(quad.periods),
        "shared_point": format_rational(quad.shared_point),
        "parameters": {k: format_rational(v) for k, v in quad.parameters.items()},
    }
    if args.format == "table":
        rows = [
            ("k1", payload["k1"]),
            ("b1", payload["b1"]),
            ("k2", payload["k2"]),
            ("b2", payload["b2"]),
            ("periods", f"{quad.periods[0]},{quad.periods[1]}"),
            ("shared_point", payload["shared_point"]),
        ]
        return 0, _table(rows)
    return 0, _json(payload)


def _cmd_intersect(args) -> Tuple[int, str]:
    m1, m2 = parse_map(args.map1), parse_map(args.map2)
    p = parse_rational(args.point)
    common = orbit_intersection(m1, m2, p)
    ordered = _rat_list(sorted(common))
    payload = {
        "command": "intersect",
        "map1": m1.describe(),
        "map2": m2.describe(),
        "point": args.point,
        "intersection": ordered,
        "size": len(ordered),
    }
    if args.format == "table":
        return 0, _table([("intersection", " ".join(ordered)), ("size", len(ordered))])
    return 0, _json(payload)


def _cmd_shared(args) -> Tuple[int, str]:
    q = parse_rational(args.q)
    entries = quadratics_with_periodic_point(q)
    items = [
        {
            "c": format_rational(e.c),
            "period": e.period,
            "cycle": _rat_list(e.cycle),
        }
        for e in entries
    ]
    payload = {"command": "shared", "q": args.q, "entries": items}
    if args.format == "table":
        rows = [("c", "period", "cycle")]
        for it in items:
            rows.append((it["c"], it["period"], " ".join(it["cycle"])))
        return 0, _table(rows)
    if args.format == "csv":
        lines = ["c,period,cycle"]
        for it in items:
            lines.append(f"{it['c']},{it['period']},{' '.join(it['cycle'])}")
        return 0, "\n".join(lines)
    return 0, _json(payload)


def _cmd_simul(args) -> Tuple[int, str]:
    res = maps_with_both_periodic(parse_rational(args.a), parse_rational(args.b))
    if res.infinite:
        fams = [
            {
                "kind": f.kind,
                "period": f.period,
                "p": format_rational(f.p),
                "k_formula": f.k_formula,
                "b_formula": f.b_formula,
                "excluded_s": _rat_list(f.excluded),
            }
            for f in res.families
        ]
        payload = {
            "command": "simul",
            "a": args.a,
            "b": args.b,
            "infinite": True,
            "families": fams,
        }
        if args.format == "table":
            rows = [("kind", "period", "k", "b")]
            for f in fams:
                rows.append((f["kind"], f["period"], f["k_formula"], f["b_formula"]))
            return 0, _table(rows)
        return 0, _json(payload)
    items = [
        {
            "k": format_rational(e.map.k),
            "b": format_rational(e.map.b),
            "period_a": e.period_a,
            "period_b": e.period_b,
        }
        for e in res.maps
    ]
    payload = {
        "command": "simul",
        "a": args.a,
        "b": args.b,
        "infinite": False,
        "maps": items,
    }
    if args.format == "table":
        rows = [("k", "b", "period_a", "period_b")]
        for it in items:
            rows.append((it["k"], it["b"], it["period_a"], it["period_b"]))
        return 0, _table(rows)
    return 0, _json(payload)


def _cmd_scan(args) -> Tuple[int, str]:
    config = _read_config(args.config)
    workers = args.workers
    if args.kind == "quad":
        periods = _parse_periods(args.periods, default="4,5,6")
        report = scan_quadratic_periods(
            _bound(args, config, "height_c", "height_c"),
            _bound(args, config, "height_point", "height_point"),
            periods,
            workers=workers,
        )
    elif args.kind == "kb":
        periods = _parse_periods(args.periods, default="5,6")
        report = scan_kb_periods(
            _bound(args, config, "height_k", "height_k"),
            _bound(args, config, "height_b", "height_b"),
            _bound(args, config, "height_point", "height_point"),
            periods,
            workers=workers,
        )
    else:
        height = args.height if args.height is not None else config.get("height", 8)
        report = scan_intersection_bound(
            height,
            _bound(args, config, "height_point", "height_point"),
            workers=workers,
        )
    if args.format == "csv":
        return 0, "\n".join(report.csv_lines())
    if args.format == "table":
        rows = [("hits", len(report.hits)), ("scanned", report.scanned_count)]
        return 0, _table(rows) + ("\n" + "\n".join(report.csv_lines()[1:]) if report.hits else "")
    return 0, _json(report.canonical_dict())


def _parse_periods(text: Optional[str], default: str):
    raw = text if text else default
    try:
        return [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"invalid periods list: {raw!r}")


def _cmd_quartic(args) -> Tuple[int, str]:
    config = _read_config(args.config)
    parts = args.coeffs.split(",")
    if len(parts) != 5:
        raise DomainError("parameter excluded: --coeffs needs a4,a3,a2,a1,a0")
    curve = QuarticCurve(*(parse_rational(p) for p in parts))
    bound = (
        args.height
        if args.height is not None
        else config.get("height_quartic", DEFAULT_BOUNDS["height_quartic"])
    )
    report = quartic_rational_points(curve, bound, workers=args.workers)
    if args.format == "csv":
        lines = ["tau,y"]
        for t, y in report.affine:
            lines.append(f"{format_rational(t)},{format_rational(y)}")
        return 0, "\n".join(lines)
    if args.format == "table":
        rows = [("tau", "y")] + [
            (format_rational(t), format_rational(y)) for t, y in report.affine
        ]
        rows.append(("infinite_points", report.infinite_points))
        return 0, _table(rows)
    payload = {"command": "quartic", **report.canonical_dict()}
    return 0, _json(payload)


_HANDLERS = {
    "orbit": _cmd_orbit,
    "period": _cmd_period,
    "dynatomic": _cmd_dynatomic,
    "classify": _cmd_classify,
    "family": _cmd_family,
    "intersect": _cmd_intersect,
    "shared": _cmd_shared,
    "simul": _cmd_simul,
    "scan": _cmd_scan,
    "quartic": _cmd_quartic,
}


def run(argv) -> Tuple[int, str]:
    """Parse argv and execute; returns (exit_code, output_text)."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), ""
    try:
        return _HANDLERS[args.command](args)
    except DomainError as exc:
        return 1, str(exc)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        stream = sys.stdout if code == 0 else sys.stderr
        print(text, file=stream)
    sys.exit(code)
