"""Smoke tests of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Each workload, traced and untraced, must report every metric that
BENCHMARK.json names with its unit and no failed operation; a wrong
reference digest must be counted as a failure; and a directory holding only
the benchmark, without the program, must make the benchmark exit non-zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(root: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        return None


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = result(bench(ROOT, workload, trace))
            label = f"{workload} trace={trace}"
            expect(res is not None and set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result line has the four keys")
            if res is None:
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{label}: every declared metric present with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{label}: every value is a number")
            expect(res["attempted"] >= 1 and res["failed"] == 0 and res["correct"],
                   f"{label}: fail_frac == 0 ({res['failed']} of {res['attempted']})")

    OUT.mkdir(exist_ok=True)
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["scan"]["tiny"][0] = "0" * 64
    wrong = OUT / "wrong-reference.json"
    wrong.write_text(json.dumps(reference))
    res = result(bench(ROOT, "scan", 0, "--reference", str(wrong)))
    expect(res is not None and res["failed"] > 0 and not res["correct"],
           "a wrong reference digest is counted as a failure")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, names[0], 0)
    expect(proc.returncode != 0 and result(proc) is None,
           f"without src/ratdyn the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
