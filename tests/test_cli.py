import argparse
import ast
import csv
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from ratdyn import cli
from ratdyn.cli import parse_map, run
from ratdyn.dynamics import KBMap, QuadraticMap
from ratdyn.errors import DomainError
from tests.conftest import GUARD_SIDES

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "orbit_quad_c-13_p3.json": ["orbit", "--map", "quad:c=-13", "--point", "3"],
    "orbit_kb_24-7_p3.json": ["orbit", "--map", "kb:k=24/7,b=-300/7", "--point", "3"],
    # 2 lies past the escape radius 1 of z^2, so the walk takes no step;
    # also diffed against the installed console script in CI
    "orbit_quad_c0_p2.json": ["orbit", "--map", "quad:c=0", "--point", "2"],
    "period_kb_43_p2.json": ["period", "--map", "kb:k=4/3,b=-10/3", "--point", "2"],
    # -5/4 fails exact_period's KB start filter (no walk, null), yet maps to
    # 1 on the 4-cycle: orbit, which does not read the filter, reports it as
    # a periodic tail; both also diffed against the installed console script in CI
    "orbit_kb_43_p-5-4.json": ["orbit", "--map", "kb:k=4/3,b=-10/3", "--point", "-5/4"],
    "period_kb_43_p-5-4.json": ["period", "--map", "kb:k=4/3,b=-10/3", "--point", "-5/4"],
    # a KB escapes tail: 973/54 lies past K(m) = 18, |k| < 1
    "orbit_kb_1-3_1_p1-18.json": ["orbit", "--map", "kb:k=1/3,b=1", "--point", "1/18"],
    # starts outside the local region: den(c) = 2 is not a square; 1/3 has
    # the wrong denominator for den(c) = 4
    "period_quad_c1-2_p1-3.json": ["period", "--map", "quad:c=1/2", "--point", "1/3"],
    "period_quad_c-3-4_p1-3.json": ["period", "--map", "quad:c=-3/4", "--point", "1/3"],
    # |k| > 1: 5 lies past the escape radius, 0 maps to inf, inf is fixed;
    # the inf one is also diffed against the installed console script in CI
    "period_kb_3_1_p5.json": ["period", "--map", "kb:k=3,b=1", "--point", "5"],
    "period_kb_3_1_p0.json": ["period", "--map", "kb:k=3,b=1", "--point", "0"],
    "period_kb_3_1_pinf.json": ["period", "--map", "kb:k=3,b=1", "--point", "inf"],
    "dynatomic_quad_c-3_n2.json": ["dynatomic", "--map", "quad:c=-3", "--n", "2"],
    "dynatomic_kb_factor4.json": [
        "dynatomic", "--map", "kb:k=1,b=1", "--n", "4", "--which", "factor4",
    ],
    # KB polynomials are even in z: built in w = z^2, spread back out into z;
    # the n = 4 one is also diffed against the installed console script in CI
    "dynatomic_kb_43_n4.json": ["dynatomic", "--map", "kb:k=4/3,b=-10/3", "--n", "4"],
    # the exact period polynomial keeps its non-integer coefficients
    "dynatomic_kb_43_period_n3.json": [
        "dynatomic", "--map", "kb:k=4/3,b=-10/3", "--which", "period", "--n", "3",
    ],
    "dynatomic_quad_c-29-16_period_n3.json": [
        "dynatomic", "--map", "quad:c=-29/16", "--which", "period", "--n", "3",
    ],
    "classify_quad_c-29-16.json": ["classify", "--map", "quad:c=-29/16"],
    "classify_kb_43.json": ["classify", "--map", "kb:k=4/3,b=-10/3"],
    "family_fixed_p32.json": [
        "family", "--kind", "fixed", "--p", "3/2", "--n", "1", "--q", "1",
    ],
    "family_period3_tau1.json": [
        "family", "--kind", "period3", "--tau", "1", "--i", "2", "--n", "1", "--q", "16",
    ],
    "family_kbpair_row3.json": [
        "family", "--kind", "kbpair", "--row", "3", "--p", "3/5", "--s1", "2", "--s2", "1/3",
    ],
    "family_intersect_mixed_p3.json": [
        "family", "--kind", "intersect-mixed", "--p", "3", "--sign", "1",
    ],
    "intersect_c-13.json": [
        "intersect", "--map1", "quad:c=-13", "--map2", "kb:k=24/7,b=-300/7", "--point", "3",
    ],
    "shared_q101-40.json": ["shared", "--q", "101/40"],
    "simul_a1_b2.json": ["simul", "--a", "1", "--b", "2"],
    "simul_a1_b-1.json": ["simul", "--a", "1", "--b", "-1"],
    "scan_kb_h3.json": [
        "scan", "--kind", "kb", "--height-k", "3", "--height-b", "3",
        "--height-point", "20", "--periods", "1,2",
    ],
    # the KB period-4 route: roots of Phi*_4 of kz + 1/z, taken once per k;
    # also diffed against the installed console script in CI
    "scan_kb_k4_b10_p2_n4.json": [
        "scan", "--kind", "kb", "--height-k", "4", "--height-b", "10",
        "--height-point", "2", "--periods", "4",
    ],
    # 524 hits over 22 k and 126 b, 262 with negative b: each root s of a k
    # is decided once, then read off for every b; recorded before that
    # route replaced one exact_period call per hit, and also diffed against
    # the installed console script in CI, at one and two workers
    "scan_kb_k4_b10_p50_n124.json": [
        "scan", "--kind", "kb", "--height-k", "4", "--height-b", "10",
        "--height-point", "50", "--periods", "1,2,4",
    ],
    # 1,940 hits over 22 k and 1,958 b: a wide b box of many square
    # classes, each b matched to the roots s of its class; recorded before
    # that lookup replaced one isqrt per (b, s) pair, and also diffed
    # against the installed console script in CI, at one and two workers
    "scan_kb_k4_b40_p200_n124.json": [
        "scan", "--kind", "kb", "--height-k", "4", "--height-b", "40",
        "--height-point", "200", "--periods", "1,2,4",
    ],
    # 924 hits over 2 k and 875,998 b: recorded while scans listed every b
    # of the box and matched it to the roots by kernel, before they listed
    # each root's square class; also diffed against the installed console
    # script in CI, at one and two workers
    "scan_kb_k1_b600_p20_n124.json": [
        "scan", "--kind", "kb", "--height-k", "1", "--height-b", "600",
        "--height-point", "20", "--periods", "1,2,4",
    ],
    # 45 hits; also diffed against the installed console script in CI
    "scan_quad_h20_p100.json": [
        "scan", "--kind", "quad", "--height-c", "20", "--height-point", "100", "--periods", "1,2,3",
    ],
    # 468 hits over 14 denominators e^2: the window work dominates; also
    # diffed against the installed console script in CI, at one and two workers
    "scan_quad_h200_p100.json": [
        "scan", "--kind", "quad", "--height-c", "200", "--height-point", "100", "--periods", "1,2,3",
    ],
    # periods 4-8: no hit, so nothing to sort; and the same 468 hits at
    # periods 1-8, whose walks run eight steps.  Recorded while the walk
    # still recomputed step 1 from u; both also diffed against the installed
    # console script in CI, at one and two workers
    "scan_quad_h20_p100_n4-8.json": [
        "scan", "--kind", "quad", "--height-c", "20", "--height-point", "100", "--periods", "4,5,6,7,8",
    ],
    "scan_quad_h200_p100_n1-8.json": [
        "scan", "--kind", "quad", "--height-c", "200", "--height-point", "100", "--periods", "1,2,3,4,5,6,7,8",
    ],
    # 1,028 hits over 20 denominators e^2 and 82,656 (u, v) cells, so the
    # edges are listed in more than one block of e; recorded before the rows
    # became int columns, and also diffed against the installed console
    # script in CI, at one and two workers
    "scan_quad_h2000_p20.json": [
        "scan", "--kind", "quad", "--height-c", "2000", "--height-point", "20", "--periods", "1,2,3",
    ],
    # many maps have sqrt(den(c)) > 3, so the scan drops them unsearched
    "scan_quad_h40_p3.json": [
        "scan", "--kind", "quad", "--height-c", "40", "--height-point", "3", "--periods", "1,2,3",
    ],
    "scan_intersection_h5_p50.json": ["scan", "--kind", "intersection", "--height", "5", "--height-point", "50"],
    # 3,218,019 and 10,159,258 sharing pairs, 66 and 88 hits: recorded while
    # the scan still listed every pair, and also diffed against the
    # installed console script in CI, at one and two workers
    "scan_intersection_h30_p20.json": ["scan", "--kind", "intersection", "--height", "30", "--height-point", "20"],
    "scan_intersection_h40_p200.json": ["scan", "--kind", "intersection", "--height", "40", "--height-point", "200"],
    "quartic_curve1_h50.json": ["quartic", "--coeffs", "1,6,7,2,1", "--height", "50"],
    # the README example, also diffed against the installed console script in CI
    "quartic_curve1_h10000.json": ["quartic", "--coeffs", "1,6,7,2,1", "--height", "10000"],
    # an integer form past 2**62, the limit of the former int64 kernel
    "quartic_large_h50.json": ["quartic", "--coeffs", "1,6,7,2,1000000000000", "--height", "50"],
    # 64 * 63 * 65 * 11 divides a0, or L: the first four square masks pass everything
    "quartic_a0_2882880_h1200.json": ["quartic", "--coeffs", "1,0,0,0,2882880", "--height", "1200"],
    "quartic_lcm_2882880_h300.json": [
        "quartic", "--coeffs", "1/64,1/63,1/65,1/11,1", "--height", "300",
    ],
    # y^2 = t^4: every t is a point
    "quartic_t4_h6.json": ["quartic", "--coeffs", "1,0,0,0,0", "--height", "6"],
    # a coefficient list led by a negative value, given as its own word;
    # recorded with "--coeffs=-1,0,0,0,1", and also diffed against the
    # installed console script in CI
    "quartic_neg_a4_h100.json": ["quartic", "--coeffs", "-1,0,0,0,1", "--height", "100"],
}


# table and csv views, frozen byte for byte like the JSON golden files
VIEW_CASES = {
    # empty tail and empty cycle print "-"
    "orbit_quad_c-13_p3.table.txt": ["orbit", "--map", "quad:c=-13", "--point", "3"],
    "orbit_quad_c0_p2_steps5.table.txt": [
        "orbit", "--map", "quad:c=0", "--point", "2", "--max-steps", "5",
    ],
    "period_kb_43_p2.table.txt": ["period", "--map", "kb:k=4/3,b=-10/3", "--point", "2"],
    "period_quad_c0_p2.table.txt": ["period", "--map", "quad:c=0", "--point", "2"],
    "dynatomic_quad_c-3_n2.table.txt": ["dynatomic", "--map", "quad:c=-3", "--n", "2"],
    "dynatomic_kb_43_n2.table.txt": ["dynatomic", "--map", "kb:k=4/3,b=-10/3", "--n", "2"],
    # witnesses print as JSON; rows with no points print "-"
    "classify_quad_c-29-16.table.txt": ["classify", "--map", "quad:c=-29/16"],
    # also diffed against the installed console script in CI
    "classify_kb_43.table.txt": ["classify", "--map", "kb:k=4/3,b=-10/3"],
    "family_fixed_p32.table.txt": [
        "family", "--kind", "fixed", "--p", "3/2", "--n", "1", "--q", "1",
    ],
    "family_kbpair_row3.table.txt": [
        "family", "--kind", "kbpair", "--row", "3", "--p", "3/5", "--s1", "2", "--s2", "1/3",
    ],
    "family_intersect_kbkb_case1.table.txt": [
        "family", "--kind", "intersect-kbkb", "--case", "1", "--p", "2", "--s1", "3", "--s2", "5",
    ],
    "intersect_c-13.table.txt": [
        "intersect", "--map1", "quad:c=-13", "--map2", "kb:k=24/7,b=-300/7", "--point", "3",
    ],
    "shared_q101-40.table.txt": ["shared", "--q", "101/40"],
    "shared_q101-40.csv.txt": ["shared", "--q", "101/40"],
    "simul_a1_b2.table.txt": ["simul", "--a", "1", "--b", "2"],
    # the infinite case shows k_formula and b_formula under k and b
    "simul_a1_b-1.table.txt": ["simul", "--a", "1", "--b", "-1"],
    "scan_kb_h2_p10.table.txt": [
        "scan", "--kind", "kb", "--height-k", "2", "--height-b", "2",
        "--height-point", "10", "--periods", "1",
    ],
    # also diffed against the installed console script in CI
    "scan_kb_h2_p10.csv.txt": [
        "scan", "--kind", "kb", "--height-k", "2", "--height-b", "2",
        "--height-point", "10", "--periods", "1",
    ],
    # no hits: the summary alone, and the csv header alone
    "scan_quad_h3_p10_n3.table.txt": [
        "scan", "--kind", "quad", "--height-c", "3", "--height-point", "10", "--periods", "3",
    ],
    "scan_quad_h3_p10_n3.csv.txt": [
        "scan", "--kind", "quad", "--height-c", "3", "--height-point", "10", "--periods", "3",
    ],
    "scan_intersection_h5_p50.table.txt": [
        "scan", "--kind", "intersection", "--height", "5", "--height-point", "50",
    ],
    "scan_intersection_h5_p50.csv.txt": [
        "scan", "--kind", "intersection", "--height", "5", "--height-point", "50",
    ],
    "scan_intersection_h1_p5.table.txt": [
        "scan", "--kind", "intersection", "--height", "1", "--height-point", "5",
    ],
    "scan_intersection_h1_p5.csv.txt": [
        "scan", "--kind", "intersection", "--height", "1", "--height-point", "5",
    ],
    # the table ends with an infinite_points row that the csv omits
    "quartic_curve1_h50.table.txt": ["quartic", "--coeffs", "1,6,7,2,1", "--height", "50"],
    "quartic_curve1_h50.csv.txt": ["quartic", "--coeffs", "1,6,7,2,1", "--height", "50"],
    "quartic_a4_2_h20.table.txt": ["quartic", "--coeffs", "2,0,0,0,1", "--height", "20"],
}


def _view_argv(name):
    return VIEW_CASES[name] + ["--format", name.split(".")[-2]]


@pytest.mark.parametrize("name", sorted(VIEW_CASES))
def test_table_and_csv_views_frozen(name):
    code, out = run(_view_argv(name))
    assert code == 0
    assert out + "\n" == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs_frozen(name):
    code, out = run(GOLDEN_CASES[name])
    assert code == 0
    assert out + "\n" == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_round_trips_bytes(name):
    # the golden text is the command's output (test_golden_outputs_frozen)
    out = (GOLDEN / name).read_text().removesuffix("\n")
    reparsed = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    assert reparsed == out


def test_memoized_parser_matches_a_fresh_one(monkeypatch, capsys):
    # one process, one parser: help, usage and domain errors leave nothing
    # behind that changes a later call's code, text or printed output
    calls = [
        (["--help"], 0),
        (["orbit", "--map", "quad:c=-13"], 2),  # missing --point
        (["scan", "--kind", "quad", "--height-point", "0"], 1),
        (["scan", "--kind", "quad", "--height-c", "6", "--height-point", "30", "--periods", "1,2,3"], 0),
        (["quartic", "--coeffs", "1,6,7,2,1", "--height", "50"], 0),
        (["classify", "--map", "quad:c=-29/16"], 0),
        (["orbit", "--map", "quad:c=-13", "--point", "3"], 0),
    ]
    memo = [(run(argv), capsys.readouterr()) for argv, _ in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [(run(argv), capsys.readouterr()) for argv, _ in calls]
    assert memo == fresh
    assert [code for (code, _), _ in memo] == [code for _, code in calls]
    assert memo[0][1].out.startswith("usage: ratdyn") and "--point" in memo[1][1].err


def test_parse_map():
    assert parse_map("quad:c=-13") == QuadraticMap(-13)
    m = parse_map("kb:k=24/7,b=-300/7")
    assert isinstance(m, KBMap)
    for bad in ["quad:", "kb:k=1", "z^2+c", "quad:c=1.5", "kb:b=1,k=1"]:
        with pytest.raises(DomainError):
            parse_map(bad)


def test_exit_codes():
    code, out = run(["family", "--kind", "fixed", "--p", "0", "--n", "1", "--q", "1"])
    assert code == 1 and out == "parameter excluded: p=0"
    code, _ = run(["nonsense"])
    assert code == 2
    code, _ = run(["orbit", "--map", "quad:c=-13"])  # missing --point
    assert code == 2
    code, _ = run(["orbit", "--map", "quad:c=-13", "--point", "3", "--bad-flag", "1"])
    assert code == 2
    code, _ = run(["--help"])
    assert code == 0
    code, out = run(["intersect", "--map1", "quad:c=0", "--map2", "kb:k=1,b=1", "--point", "2"])
    assert code == 1 and "not a common periodic point" in out


@pytest.mark.parametrize("bound", ["0", "-5", "1000"])
def test_orbit_height_bound_flag_is_a_usage_error(bound):
    code, _ = run(["orbit", "--map", "quad:c=0", "--point", "3", "--height-bound", bound])
    assert code == 2


@pytest.mark.parametrize("steps", [None, "16"])
@pytest.mark.parametrize("point", ["2", "3"])
def test_orbit_wandering_start_escapes(point, steps):
    # a wandering start stops at its first point past the escape radius, so
    # at any --max-steps the walk is short and every printed point small
    argv = ["orbit", "--map", "quad:c=0", "--point", point] + (["--max-steps", steps] if steps else [])
    code, out = run(argv)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "escapes" and data["tail"] == [point] and data["cycle"] == []


@pytest.mark.parametrize("n", ["0", "-1", "9", "10", "20"])
@pytest.mark.parametrize("which", ["dynatomic", "period"])
def test_dynatomic_n_outside_the_scan_periods_exits_1(n, which):
    # Phi_n's degree doubles with each n, so an unbounded --n can run for
    # minutes and exhaust memory; the bound is the scans' periods 1..8
    code, out = run(["dynatomic", "--map", "quad:c=1/3", "--n", n, "--which", which])
    assert code == 1 and out == f"parameter excluded: n={n}"
    assert run(["dynatomic", "--map", "quad:c=1/3", "--n", "8", "--which", which])[0] == 0


def test_period_max_steps_zero_exits_1():
    code, out = run(["period", "--map", "quad:c=0", "--point", "0", "--max-steps", "0"])
    assert code == 1 and out == "parameter excluded: max_steps=0"


@pytest.mark.parametrize("p", GUARD_SIDES, ids=["below", "above"])
def test_period_of_two_cycle_on_both_sides_of_old_guard(p):
    c = -(p * p + p + 1)
    for point in (p, -p - 1):
        code, out = run(["period", "--map", f"quad:c={c}", "--point", str(point)])
        assert code == 0 and json.loads(out)["exact_period"] == 2


def test_domain_error_for_degenerate_kb():
    code, out = run(["orbit", "--map", "kb:k=0,b=1", "--point", "3"])
    assert code == 1 and "parameter excluded" in out


def test_table_format():
    code, out = run(["classify", "--map", "quad:c=-3", "--format", "table"])
    assert code == 0 and "points" in out
    code, out = run(["orbit", "--map", "quad:c=-13", "--point", "3", "--format", "table"])
    assert code == 0 and "periodic" in out


def test_scan_csv_format():
    code, out = run(
        ["scan", "--kind", "kb", "--height-k", "2", "--height-b", "2",
         "--height-point", "10", "--periods", "1", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scan_kind,map,point,period"


def test_scan_csv_quotes_descriptor_commas():
    code, out = run(
        ["scan", "--kind", "kb", "--height-k", "2", "--height-b", "2",
         "--height-point", "20", "--periods", "1", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scan_kind,map,point,period" and len(lines) > 1
    for line, row in zip(lines[1:], csv.reader(lines[1:])):
        assert line.startswith('kb,"kb:k=')
        assert len(row) == 4 and row[0] == "kb" and row[1].startswith("kb:k=")


# one invocation per subcommand, and both shapes of family and simul
CSV_CASES = {
    "orbit": ["orbit", "--map", "quad:c=-13", "--point", "3"],
    "period": ["period", "--map", "quad:c=0", "--point", "2"],
    "dynatomic": ["dynatomic", "--map", "kb:k=1,b=1", "--n", "4", "--which", "factor4"],
    "classify": ["classify", "--map", "quad:c=-29/16"],
    "family-triple": [
        "family", "--kind", "period3", "--tau", "1", "--i", "2", "--n", "1", "--q", "16",
    ],
    "family-kbpair": [
        "family", "--kind", "kbpair", "--row", "3", "--p", "3/5", "--s1", "2", "--s2", "1/3",
    ],
    "intersect": [
        "intersect", "--map1", "quad:c=-13", "--map2", "kb:k=24/7,b=-300/7", "--point", "3",
    ],
    "shared": ["shared", "--q", "101/40"],
    "simul-finite": ["simul", "--a", "1", "--b", "2"],
    "simul-infinite": ["simul", "--a", "1", "--b", "-1"],
    "scan": ["scan", "--kind", "intersection", "--height", "5", "--height-point", "50"],
    "quartic": ["quartic", "--coeffs", "1,6,7,2,1", "--height", "50"],
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_holds_the_table_cells(case):
    argv = CSV_CASES[case]
    code, table = run(argv + ["--format", "table"])
    assert code == 0
    code, text = run(argv + ["--format", "csv"])
    assert code == 0 and not text.startswith("{")
    rows = list(csv.reader(text.splitlines()))
    lines = table.splitlines()
    if argv[0] == "scan":  # the table puts a summary above the csv hit rows
        assert lines[:2] == [f"hits     {len(rows) - 1}", "scanned  2602"]
        assert lines[2:] == text.splitlines()[1:]
        return
    if argv[0] == "quartic":  # the csv omits the table's infinite_points row
        assert lines.pop() == "infinite_points  True"
    # table cells are padded and joined by two or more spaces
    assert rows == [re.split(r"  +", line) for line in lines]


def _argv_literals(path: pathlib.Path) -> list:
    """Every literal list of strings in a test file that starts with a
    subcommand name: the argvs it passes to run() as written."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        try:
            value = ast.literal_eval(node) if isinstance(node, ast.List) else None
        except ValueError:  # names, f-strings or starred parts
            continue
        if value and all(isinstance(w, str) for w in value) and value[0] in cli._parser().subcommands:
            found.append(value)
    return found


# usage errors and the edges of argparse's grammar, each read by the
# top-level parser, by a subcommand's parser, or by both
EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["-h", "scan"], ["nosuch"], ["sca"], ["quar", "--coeffs", "1,0,0,0,1"],
    ["--bogus", "scan"], ["-1"], ["--", "orbit", "--map", "quad:c=0", "--point", "2"],
    ["scan", "-h"], ["scan", "--help"], ["orbit", "-hx"], ["scan", "--kind", "quad", "--bogus"],
    ["scan", "--kind", "quad", "-x"], ["scan", "scan"], ["orbit", "--map", "quad:c=0", "--point", "2", "extra"],
    ["orbit", "--map", "quad:c=0", "--point", "2", "--"], ["orbit", "--", "--map", "quad:c=0", "--point", "2"],
    ["orbit", "--ma", "quad:c=0", "--po", "2"], ["orbit", "--m", "quad:c=0", "--point", "2"],
    ["orbit", "--map=quad:c=0", "--point=2", "--format=table"], ["orbit", "--point", "2", "--map"],
    ["scan", "--kind", "cubic"], ["orbit", "--map", "quad:c=0", "--point", "2", "--format", "xml"],
    ["orbit", "--map", "quad:c=0", "--point", "2", "--max-steps", "x"],
    ["orbit", "--map", "quad:c=-2", "--point", "-2"], ["quartic", "--coeffs", "-1,0,0,0,1", "--height", "-3"],
    ["scan", "--kind", "quad", "--height-c", "2", "--height-point", "3", "--periods", "-1", "x"],
]


def _corpus() -> list:
    argvs = [*GOLDEN_CASES.values(), *map(_view_argv, VIEW_CASES), *EDGE_ARGVS]
    argvs += [argv + ["--format", fmt] for argv in CSV_CASES.values() for fmt in ("table", "csv")]
    for path in (pathlib.Path(__file__), pathlib.Path(__file__).parent / "test_cli_examples.py"):
        argvs += _argv_literals(path)
    return [argv for i, argv in enumerate(argvs) if argv not in argvs[:i]]


def _top_level_run(argv, handler):
    """run() with the whole argv read by a fresh top-level parser, which
    hands the subcommand's words on to its subparser."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), ""
    try:
        payload = handler(args)
    except DomainError as exc:
        return 1, str(exc)
    return 0, cli._render(args.format, args.command, payload)


@pytest.mark.parametrize("argv", _corpus(), ids=" ".join)
def test_run_matches_a_top_level_parse(monkeypatch, capsys, argv):
    # the same code, text, stdout and stderr; the handler runs once, in the
    # reference, and run() must hand it the namespace the reference did
    calls, replays = [], []  # the reference's handler call: namespace, payload or DomainError

    def answer(args):
        namespace, result = calls[0]
        assert vars(args) == namespace
        if isinstance(result, DomainError):
            raise result
        return result

    def record(args):
        try:
            result = cli._HANDLERS[args.command](args)
        except DomainError as exc:
            result = exc
        calls.append((dict(vars(args)), result))
        return answer(args)

    def replay(args):
        replays.append(args)
        return answer(args)

    expected = _top_level_run(list(argv), record), capsys.readouterr()
    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, replay))
    assert (run(argv), capsys.readouterr()) == expected
    assert len(replays) == len(calls)


def test_a_subcommand_line_is_parsed_once_by_its_own_parser(monkeypatch):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsed.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    top = cli._parser()
    for argv in CSV_CASES.values():  # every subcommand, well formed
        for fmt in ("json", "table", "csv"):
            parsed.clear()
            assert run(argv + ["--format", fmt])[0] == 0
            assert len(parsed) == 1 and parsed[0] is top.subcommands[argv[0]]
    # the spy sees the top-level parser where it reads: an unknown
    # subcommand, and words a subcommand left over
    parsed.clear()
    assert run(["nosuch"])[0] == 2 and parsed == [top]
    parsed.clear()
    assert run(["shared", "--q", "0", "extra"])[0] == 2
    assert parsed[0] is top.subcommands["shared"] and top in parsed


def test_scan_worker_flag_byte_identical():
    base = ["scan", "--kind", "kb", "--height-k", "3", "--height-b", "3",
            "--height-point", "20", "--periods", "1,2,4"]
    code1, out1 = run(base + ["--workers", "1"])
    code8, out8 = run(base + ["--workers", "8"])
    assert code1 == code8 == 0
    assert out1 == out8


def test_config_file_supplies_scan_bounds(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("height_k = 2\nheight_b = 2\nheight_point = 10\n# comment\n")
    code, out = run(["scan", "--kind", "kb", "--periods", "1", "--config", str(cfg)])
    assert code == 0
    data = json.loads(out)
    assert data["parameter_box"] == {"height_k": 2, "height_b": 2, "height_point": 10}
    # flags override the file
    code, out = run(
        ["scan", "--kind", "kb", "--periods", "1", "--config", str(cfg), "--height-k", "3"]
    )
    assert json.loads(out)["parameter_box"]["height_k"] == 3


def test_config_file_bad_value_is_domain_error(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# bounds\nheight_k = ten\n")
    code, out = run(["scan", "--kind", "kb", "--periods", "1", "--config", str(cfg)])
    assert code == 1
    assert str(cfg) in out and "line 2" in out and "height_k = ten" in out


def test_config_file_unknown_key_is_domain_error(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("height_b = 2\nheigth_k = 2\n")
    code, out = run(["scan", "--kind", "kb", "--periods", "1", "--config", str(cfg)])
    assert code == 1
    assert str(cfg) in out and "line 2" in out and "'heigth_k'" in out
    code, out = run(["quartic", "--coeffs", "1,6,7,2,1", "--config", str(cfg)])
    assert code == 1 and "'heigth_k'" in out


def test_config_file_missing_is_domain_error(tmp_path):
    cfg = tmp_path / "missing.cfg"
    code, out = run(["scan", "--kind", "kb", "--periods", "1", "--config", str(cfg)])
    assert code == 1
    assert out.startswith("cannot read config file") and str(cfg) in out
    code, out = run(["quartic", "--coeffs", "1,6,7,2,1", "--config", str(cfg)])
    assert code == 1 and str(cfg) in out


@pytest.mark.parametrize("argv, message", [
    (["scan", "--kind", "kb", "--periods", "1", "--config", "{cfg}"], "invalid config line: 'height_k 2'"),
    (["dynatomic", "--map", "quad:c=-3", "--n", "4", "--which", "factor4"],
     "parameter excluded: factor4 requires a kb map"),
    (["classify", "--map", "quad:c=-3", "--n", "4"], "parameter excluded: n=4"),
    (["family", "--kind", "fixed", "--n", "1", "--q", "1"], "parameter excluded: --p is required"),
    (["family", "--kind", "fixed", "--p", "3/2", "--n", "1"],
     "parameter excluded: --q (or --m for n=4) is required"),
    (["scan", "--kind", "quad", "--height-c", "2", "--periods", "4,x"], "invalid periods list: '4,x'"),
    (["quartic", "--coeffs", "1,2,3"], "parameter excluded: --coeffs needs a4,a3,a2,a1,a0"),
], ids=["config-line", "factor4-quad", "classify-n", "family-p", "family-q", "periods", "coeffs"])
def test_domain_errors_exit_1_with_their_message(tmp_path, argv, message):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("height_k 2\n")
    code, out = run([arg.format(cfg=cfg) for arg in argv])
    assert (code, out) == (1, message)


_LONG = "1" + "0" * 5000  # past Python's 4300-digit int-string limit


@pytest.mark.parametrize("argv", [
    ["period", "--map", "quad:c=1", "--point", _LONG],
    ["period", "--map", f"kb:k=1,b=-{_LONG}", "--point", "1"],
    ["quartic", "--coeffs", f"1,0,0,0,1/{_LONG}", "--height", "3"],
    ["shared", "--q", _LONG],
    ["simul", "--a", _LONG, "--b", "1"],
    ["simul", "--a", "1", "--b", f"-{_LONG}"],
], ids=["point", "map", "coeffs", "q", "a", "b"])
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
def test_overlong_integer_exits_1_without_traceback(monkeypatch, capsys, argv):
    # int() refuses the digits with a ValueError; parse_rational turns it
    # into the DomainError of any other malformed rational
    monkeypatch.setattr(sys, "argv", ["ratdyn", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.startswith("invalid rational: '") and err.count("\n") == 1 and "Traceback" not in err


_SCAN_QUAD = ["scan", "--kind", "quad", "--height-c", "2", "--height-point", "3"]


@pytest.mark.parametrize("head, option, value", [
    (["quartic", "--height", "100"], "--coeffs", "-1,0,0,0,1"),
    (["quartic", "--height", "20"], "--coeffs", "-1/2,3,0,0,-1"),
    (_SCAN_QUAD, "--periods", "-1,2"),
    (_SCAN_QUAD, "--periods", "-1,x"),
    (["orbit", "--map", "quad:c=0"], "--point", "-1.5"),
], ids=["coeffs", "coeffs-ratio", "periods", "periods-malformed", "point-decimal"])
def test_a_value_led_by_a_negative_number_reads_as_its_equals_form(monkeypatch, capsys, head, option, value):
    # "--opt -1,..." is the value of --opt, as "--opt=-1,..." is: the same
    # exit code, stdout and stderr, and never a usage error
    def main(argv):
        monkeypatch.setattr(sys, "argv", ["ratdyn", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        return exc.value.code, capsys.readouterr()

    spaced = main(head + [option, value])
    assert spaced == main(head + [f"{option}={value}"])
    assert spaced[0] in (0, 1) and "usage" not in spaced[1].err


def test_negative_period_exits_1():
    code, out = run([*_SCAN_QUAD, "--periods", "-1,2"])
    assert (code, out) == (1, "parameter excluded: period=-1")


def test_scan_point_bound_below_one_exits_1():
    code, out = run(
        ["scan", "--kind", "quad", "--height-c", "2", "--height-point", "-3", "--periods", "1"]
    )
    assert code == 1 and out == "parameter excluded: height_point=-3"


def test_scan_workers_zero_exits_1():
    code, out = run(
        ["scan", "--kind", "kb", "--height-k", "2", "--height-b", "2",
         "--height-point", "10", "--periods", "1", "--workers", "0"]
    )
    assert code == 1 and out == "parameter excluded: workers=0"


@pytest.mark.parametrize("box, name", [
    (["--kind", "quad", "--height-c"], "height_c"),
    (["--kind", "kb", "--height-b", "2", "--height-k"], "height_k"),
    (["--kind", "kb", "--height-k", "2", "--height-b"], "height_b"),
    (["--kind", "intersection", "--height"], "height"),
])
def test_scan_height_above_the_cap_exits_1(monkeypatch, box, name):
    # refused before the box is counted: count_rationals at this height ran
    # out of memory; a height below 1 is refused there too, under its name
    from ratdyn import search

    def no_count(bound):
        raise AssertionError(f"count_rationals({bound})")

    monkeypatch.setattr(search, "count_rationals", no_count)
    for bad in ("100000000000", "0", "-3"):
        code, out = run(["scan", *box, bad, "--height-point", "3", "--periods", "1"])
        assert code == 1 and out == f"parameter excluded: {name}={bad}"


@pytest.mark.parametrize("kind", [["--kind", "quad", "--height-c", "2"],
                                  ["--kind", "kb", "--height-k", "2", "--height-b", "2"]])
def test_scan_empty_periods_exits_1(kind):
    # only an absent --periods takes the default; an empty list is refused
    # like a list of commas
    for periods in ("", ","):
        code, out = run(["scan", *kind, "--height-point", "3", "--periods", periods])
        assert (code, out) == (1, "parameter excluded: periods=empty")
    code, out = run(["scan", *kind, "--height-point", "3"])
    assert code == 0 and json.loads(out)["periods"] == ([4, 5, 6] if "quad" in kind else [5, 6])


def test_scan_failed_worker_pool_exits_1(monkeypatch):
    import multiprocessing

    class NoFork:
        def Pool(self, processes, initializer, initargs):
            raise OSError("cannot fork")

    # search imports multiprocessing only when it starts a pool; a quad box
    # of height 4 has two e, so two chunks
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: NoFork())
    code, out = run(
        ["scan", "--kind", "quad", "--height-c", "4", "--height-point", "10",
         "--periods", "1", "--workers", "2"]
    )
    assert code == 1 and out == "worker pool failed: cannot fork"


def test_quartic_negative_workers_exits_1():
    code, out = run(["quartic", "--coeffs", "1,6,7,2,1", "--height", "20", "--workers", "-4"])
    assert code == 1 and out == "parameter excluded: workers=-4"


def test_quartic_bound_above_mask_limit_exits_1(monkeypatch):
    # refused before any mask is built: this bound would need ~14 TB of them
    from ratdyn import search

    def no_masks(*args):
        raise AssertionError("masks built")

    monkeypatch.setattr(search, "_square_masks", no_masks)
    code, out = run(["quartic", "--coeffs", "1,0,0,0,1", "--height", "100000000000"])
    assert code == 1 and out == "parameter excluded: bound=100000000000"


def test_quartic_csv():
    code, out = run(["quartic", "--coeffs", "1,6,7,2,1", "--height", "20", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "tau,y"
    assert "0,1" in out.splitlines()


def test_orbit_inf_point():
    code, out = run(["orbit", "--map", "kb:k=2,b=3", "--point", "inf"])
    assert code == 0
    data = json.loads(out)
    assert data["cycle"] == ["inf"]


def test_orbit_zero_point_kb_goes_to_infinity():
    code, out = run(["orbit", "--map", "kb:k=2,b=3", "--point", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["tail"] == ["0"] and data["cycle"] == ["inf"]


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports ratdyn from this checkout's ``src``."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter holds ``module`` after ``import ratdyn.cli``."""
    out = _python("-c", f"import sys, ratdyn.cli; print({module!r} in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout in ("True\n", "False\n")
    return out.stdout == "True\n"


def test_cli_import_loads_no_numpy():
    # only the quad window walk and the quartic kernel use numpy, and they
    # import it when they run; orbit, period and classify never load it
    assert not _loaded_by_cli_import("numpy")


def test_cli_import_loads_no_multiprocessing():
    # a worker pool imports multiprocessing when it starts, so importing the
    # CLI does not pay for it
    assert not _loaded_by_cli_import("multiprocessing")


@pytest.mark.parametrize("module", ["ratdyn", "ratdyn.cli"])
@pytest.mark.parametrize("argv", [
    ["quartic", "--coeffs", "1,6,7,2,1", "--height", "30"],
    ["quartic", "--coeffs", "0,1,1,1,1", "--height", "30"],  # a4 = 0: exit 1
])
def test_module_forms_run_the_cli(module, argv):
    # python -m ratdyn and python -m ratdyn.cli print what run() returns, to
    # stdout on exit 0 and to stderr otherwise, and exit with its code
    code, text = run(argv)
    out = _python("-m", module, *argv)
    assert (out.returncode, out.stdout, out.stderr) == (code, text + "\n" if code == 0 else "",
                                                       "" if code == 0 else text + "\n")
