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
    # 45 hits; also diffed against the installed console script in CI
    "scan_quad_h20_p100.json": [
        "scan", "--kind", "quad", "--height-c", "20", "--height-point", "100", "--periods", "1,2,3",
    ],
    # many maps have sqrt(den(c)) > 3, so the scan drops them unsearched
    "scan_quad_h40_p3.json": [
        "scan", "--kind", "quad", "--height-c", "40", "--height-point", "3", "--periods", "1,2,3",
    ],
    "scan_intersection_h5_p50.json": ["scan", "--kind", "intersection", "--height", "5", "--height-point", "50"],
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
    code, out = run(GOLDEN_CASES[name])
    assert code == 0
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


def test_scan_failed_worker_pool_exits_1(monkeypatch):
    from ratdyn import search

    class NoFork:
        def Pool(self, processes):
            raise OSError("cannot fork")

    monkeypatch.setattr(search, "get_context", lambda method: NoFork())
    code, out = run(
        ["scan", "--kind", "quad", "--height-c", "3", "--height-point", "10",
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


def test_cli_import_loads_no_numpy():
    # only the quad window walk and the quartic masks use numpy, and they
    # import it when they run; orbit, period and classify never load it
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ratdyn.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
