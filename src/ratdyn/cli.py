"""Command-line front end.

Subcommands: orbit, period, dynatomic, classify, family, intersect, shared,
simul, scan, quartic.  All numbers in and out use the exact rational grammar
("n" or "n/d", "inf" for infinity); maps use "quad:c=<rat>" or
"kb:k=<rat>,b=<rat>".  Exit codes: 0 success, 1 domain error (the message
names the violated precondition), 2 usage error.  JSON output is canonical
(sorted keys, compact separators) and round-trips byte for byte.  Each
subcommand computes only its JSON payload; the table and csv formats are
views of that payload (``_VIEWS``), and ``_render`` writes all three.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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
from .errors import DomainError, parameter_excluded
from .search import (
    _ALLOWED_PERIODS,
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


def _bound(args, config, key: str, flag: Optional[str] = None) -> int:
    """The flag (named as the key unless given), else the config file, else
    the default."""
    val = getattr(args, flag or key)
    return val if val is not None else config.get(key, DEFAULT_BOUNDS[key])


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog=PROG,
        description="Exact rational periodic points of z^2+c and kz+b/z.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="forward orbit with cycle detection")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--max-steps", type=int, default=64)

    p = sub.add_parser("period", help="exact period of a point, if periodic")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--max-steps", type=int, default=64)

    p = sub.add_parser("dynatomic", help="period/dynatomic polynomials")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--which",
        choices=["dynatomic", "period", "factor4", "cofactor4"],
        default="dynatomic",
    )

    p = sub.add_parser("classify", help="closed-form periodic points per period")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=None)

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

    p = sub.add_parser("intersect", help="orbit intersection at a common periodic point")
    p.add_argument("--map1", required=True)
    p.add_argument("--map2", required=True)
    p.add_argument("--point", required=True)

    p = sub.add_parser("shared", help="all z^2+c with the given periodic point")
    p.add_argument("--q", required=True)

    p = sub.add_parser("simul", help="KB maps with two prescribed periodic values")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

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

    p = sub.add_parser("quartic", help="rational points on y^2 = quartic(t)")
    p.add_argument("--coeffs", required=True, help="a4,a3,a2,a1,a0")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--config", default=None)

    # no option starts with a minus and a digit, so such a word is always an
    # option value ("-1/2", "-1,0,0,0,1"), read as its "=" form is; and give
    # every subcommand --format as its last option
    matcher = re.compile(r"^-\d")
    top._negative_number_matcher = matcher
    for child in sub.choices.values():
        child._negative_number_matcher = matcher
        child.add_argument("--format", choices=["json", "table", "csv"], default="json")
    return top


_parser = functools.cache(build_parser)  # a build costs ~30 parses: once per process


def _cmd_orbit(args) -> dict:
    m = parse_map(args.map)
    rep = orbit(m, parse_point(args.point), max_steps=args.max_steps)
    return {
        "command": "orbit",
        "map": m.describe(),
        "point": args.point,
        "status": rep.status,
        "tail": [format_point(q) for q in rep.tail],
        "cycle": [format_point(q) for q in rep.cycle],
    }


def _cmd_period(args) -> dict:
    m = parse_map(args.map)
    n = exact_period(m, parse_point(args.point), max_steps=args.max_steps)
    return {"command": "period", "map": m.describe(), "point": args.point, "exact_period": n}


def _cmd_dynatomic(args) -> dict:
    m = parse_map(args.map)
    if args.n not in _ALLOWED_PERIODS:  # the scans' periods; Phi_n's degree doubles per n
        raise parameter_excluded("n", args.n)
    if args.which in ("factor4", "cofactor4"):
        if not isinstance(m, KBMap):
            raise DomainError("parameter excluded: factor4 requires a kb map")
        quartic, cofactor = period4_dynatomic_factors(m.k, m.b)
        poly = quartic if args.which == "factor4" else cofactor
    elif args.which == "period":
        poly = period_polynomial(m, args.n)
    else:
        poly = dynatomic_polynomial(m, args.n)
    return {
        "command": "dynatomic",
        "map": m.describe(),
        "n": args.n,
        "which": args.which,
        "polynomial": poly.to_string(),
    }


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


def _cmd_classify(args) -> dict:
    m = parse_map(args.map)
    all_n = (1, 2, 3) if isinstance(m, QuadraticMap) else (1, 2, 4)
    ns = [args.n] if args.n is not None else list(all_n)
    for n in ns:
        if n not in all_n:
            raise DomainError(f"parameter excluded: n={n}")
    results = [_classify_one(m, n) for n in ns]
    return {"command": "classify", "map": m.describe(), "results": results}


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise DomainError(f"parameter excluded: --{name} is required")


# each family kind: its generator and the flags it takes, in call order; "q"
# stands for --q, or for --m when n = 4
_FAMILY_KINDS = {
    "fixed": (triples_fixed_point, ("p", "n", "q")),
    "period2": (triples_period2, ("p", "n", "q")),
    "period3": (triples_period3, ("tau", "i", "n", "q")),
    "kbpair": (kb_pair_family, ("row", "p", "s1", "s2")),
    "intersect-mixed": (two_point_intersection_mixed, ("p", "sign")),
    "intersect-period3": (two_point_intersection_period3, ("tau", "i", "j", "sign")),
    "intersect-kbkb": (two_point_intersection_kb, ("case", "p", "s1", "s2")),
}


def _rat_fields(obj, *names) -> dict:
    return {name: format_rational(getattr(obj, name)) for name in names}


def _cmd_family(args) -> dict:
    fn, flags = _FAMILY_KINDS[args.kind]
    _need(args, *(flag for flag in flags if flag != "q"))
    values = [getattr(args, "m" if f == "q" and args.n == 4 else f) for f in flags]
    if None in values:  # only --q or --m can be missing here
        raise DomainError("parameter excluded: --q (or --m for n=4) is required")
    # argparse has typed the integer flags; the others are rationals
    res = fn(*(v if isinstance(v, int) else parse_rational(v) for v in values))
    payload = {
        "command": "family",
        "kind": args.kind,
        **_rat_fields(res, "shared_point"),
        "parameters": {k: format_rational(v) for k, v in res.parameters.items()},
    }
    if args.kind in ("kbpair", "intersect-kbkb"):
        payload.update(_rat_fields(res, "k1", "b1", "k2", "b2"), periods=list(res.periods))
    else:
        payload.update(_rat_fields(res, "k", "b", "c"))
        payload.update(f_period=res.f_period, phi_period=res.phi_period)
    return payload


def _cmd_intersect(args) -> dict:
    m1, m2 = parse_map(args.map1), parse_map(args.map2)
    p = parse_rational(args.point)
    ordered = _rat_list(sorted(orbit_intersection(m1, m2, p)))
    return {
        "command": "intersect",
        "map1": m1.describe(),
        "map2": m2.describe(),
        "point": args.point,
        "intersection": ordered,
        "size": len(ordered),
    }


def _cmd_shared(args) -> dict:
    entries = quadratics_with_periodic_point(parse_rational(args.q))
    items = [
        {"c": format_rational(e.c), "period": e.period, "cycle": _rat_list(e.cycle)}
        for e in entries
    ]
    return {"command": "shared", "q": args.q, "entries": items}


def _cmd_simul(args) -> dict:
    res = maps_with_both_periodic(parse_rational(args.a), parse_rational(args.b))
    payload = {"command": "simul", "a": args.a, "b": args.b, "infinite": res.infinite}
    if res.infinite:
        payload["families"] = [
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
    else:
        payload["maps"] = [
            {
                "k": format_rational(e.map.k),
                "b": format_rational(e.map.b),
                "period_a": e.period_a,
                "period_b": e.period_b,
            }
            for e in res.maps
        ]
    return payload


def _cmd_scan(args) -> dict:
    config = _read_config(args.config)
    point = _bound(args, config, "height_point")
    if args.kind == "quad":
        report = scan_quadratic_periods(
            _bound(args, config, "height_c"),
            point,
            _parse_periods(args.periods, default="4,5,6"),
            workers=args.workers,
        )
    elif args.kind == "kb":
        report = scan_kb_periods(
            _bound(args, config, "height_k"),
            _bound(args, config, "height_b"),
            point,
            _parse_periods(args.periods, default="5,6"),
            workers=args.workers,
        )
    else:
        height = args.height if args.height is not None else config.get("height", 8)
        report = scan_intersection_bound(height, point, workers=args.workers)
    return report.canonical_dict()


def _parse_periods(text: Optional[str], default: str):
    raw = default if text is None else text
    try:
        return [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"invalid periods list: {raw!r}")


def _cmd_quartic(args) -> dict:
    config = _read_config(args.config)
    parts = args.coeffs.split(",")
    if len(parts) != 5:
        raise DomainError("parameter excluded: --coeffs needs a4,a3,a2,a1,a0")
    curve = QuarticCurve(*(parse_rational(p) for p in parts))
    bound = _bound(args, config, "height_quartic", flag="height")
    report = quartic_rational_points(curve, bound, workers=args.workers)
    return {"command": "quartic", **report.canonical_dict()}


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


# ---------------------------------------------------------------------------
# table and csv: views of the JSON payload

def _cell(value) -> str:
    """The cell rule of every view: a list is space-joined, None or an empty
    list is "-", a dict is canonical JSON, anything else is str()."""
    if value is None or value == []:
        return "-"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return _json(value) if isinstance(value, dict) else str(value)


def _fields(p: dict, *keys) -> list:
    """One label-value row per key."""
    return [(key, p[key]) for key in keys]


def _records(records, keys, header=None) -> list:
    """A header row (the keys, unless given), then the keys of each record."""
    return [header or keys] + [tuple(r[key] for key in keys) for r in records]


def _family_view(p: dict) -> list:
    if "k1" not in p:
        return _fields(p, "k", "b", "c", "f_period", "phi_period", "shared_point")
    periods = ",".join(map(str, p["periods"]))  # "4,4": the one cell not by _cell
    return _fields(p, "k1", "b1", "k2", "b2") + [("periods", periods)] + _fields(p, "shared_point")


def _simul_view(p: dict) -> list:
    if p["infinite"]:
        keys = ("kind", "period", "k_formula", "b_formula")
        return _records(p["families"], keys, header=("kind", "period", "k", "b"))
    return _records(p["maps"], ("k", "b", "period_a", "period_b"))


def _scan_view(p: dict) -> list:
    kind = p["scan_kind"]
    keys = ("map1", "map2", "point", "size") if kind == "intersection" else ("map", "point", "period")
    return [("scan_kind",) + keys] + [(kind,) + tuple(h[k] for k in keys) for h in p["hits"]]


_VIEWS = {
    "orbit": lambda p: _fields(p, "status", "tail", "cycle"),
    "period": lambda p: _fields(p, "exact_period"),
    "dynatomic": lambda p: [(p["polynomial"],)],
    "classify": lambda p: _records(p["results"], ("n", "points", "witness", "cycle")),
    "family": _family_view,
    "intersect": lambda p: _fields(p, "intersection", "size"),
    "shared": lambda p: _records(p["entries"], ("c", "period", "cycle")),
    "simul": _simul_view,
    "scan": _scan_view,
    "quartic": lambda p: [("tau", "y")] + p["affine"],
}


def _table(rows) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().rstrip("\n")


def _render(fmt: str, command: str, payload: dict) -> str:
    """The output text: the JSON payload, or its table or csv view."""
    if fmt == "json":
        return _json(payload)
    rows = [[_cell(v) for v in row] for row in _VIEWS[command](payload)]
    if fmt == "csv":
        return _csv(rows)
    if command == "scan":  # a hits/scanned summary above the hit rows as csv
        summary = [["hits", str(len(payload["hits"]))], ["scanned", str(payload["scanned_count"])]]
        return "\n".join([_table(summary)] + _csv(rows).splitlines()[1:])
    if command == "quartic":  # a row that the csv omits
        rows.append(["infinite_points", _cell(payload["infinite_points"])])
    return _table(rows)


def run(argv) -> Tuple[int, str]:
    """Parse argv and execute; returns (exit_code, output_text)."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), ""
    try:
        payload = _HANDLERS[args.command](args)
    except DomainError as exc:
        return 1, str(exc)
    return 0, _render(args.format, args.command, payload)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        stream = sys.stdout if code == 0 else sys.stderr
        print(text, file=stream)
    sys.exit(code)


if __name__ == "__main__":
    main()
