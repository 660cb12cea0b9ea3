"""ratdyn benchmark: one workload per run, or every workload with ``all``.

    python3 bench/run.py --workload scan --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 0

Run it from the root of a checkout; the ratdyn package is imported from
``src/`` next to this directory and from nowhere else.

Timing.  A workload is a fixed list of calls made one after another by one
client (closed loop) in this one process, at ``--workers 1``.  The list is
repeated in passes until ``--seconds`` have passed.  A call's latency is
its fastest pass: on a shared 2-vCPU VM, co-tenants slowed a fixed
pure-Python loop by up to ~45% for seconds at a time (CPU time slowed as
much as wall time), and the fastest of many spread-out passes of a short
call is the estimate of its own cost that such slowdowns disturb least.

Slow stretches also last minutes, longer than a run.  So a run also times
bursts of a fixed reference kernel (standard library only, no ratdyn code)
between its calls, and reports every end-to-end time at the reference host
speed: wall time * REFERENCE_KERNEL_S / the kernel's fastest burst in the
run.  On that VM, the spread (IQR / median) of the ``scan`` times over
five to ten runs was 0.13-0.29 in wall clock and 0.02-0.14 scaled, the
high end in stretches where the host never ran at full speed.  The
wall-clock values are printed next to the scaled ones and kept on the
``meta`` line.  A change to ratdyn moves the scaled times as it moves wall
time; only the host's speed is taken out.

End-to-end metrics (``--trace 0``), times at the reference host speed:
  setup_s       median wall time of fresh interpreters that import ratdyn and
                build the workload's inputs (the cost a CLI user pays per
                run), started one at a time between the passes
  items_per_s   items in one pass / sum of the calls' latencies
  call_p50_ms   median call latency
  call_p99_ms   99th-percentile call latency (nearest rank)
  peak_rss_mb   largest resident set of this process and of any child
The number of checked operations and of failures is on the result line as
``attempted`` and ``failed``; their ratio is printed as ``fail_frac``.

``--trace 1`` measures the untraced passes for half the time, then replays
the workload once with spans around every call into a layer and prints the
per-layer metrics.  Spans are written to ``bench/out/trace-<workload>.json``.

Metric names, units and directions are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
# The fastest time of ``reference_kernel`` on the 2-vCPU host where the
# benchmark was defined.  A run times it in bursts of KERNEL_BURST runs (a
# burst of ~13 ms must find the host fast for longer than one run does),
# between calls, every KERNEL_EVERY_S.
REFERENCE_KERNEL_S = 1.6e-3
KERNEL_BURST = 8
KERNEL_EVERY_S = 0.4


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ratdyn():
    """Import ratdyn from this checkout's ``src`` or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import ratdyn
    except ImportError as exc:
        die(f"cannot import ratdyn from {SRC}: {exc}")
    if Path(ratdyn.__file__).resolve().parent != (SRC / "ratdyn").resolve():
        die(f"ratdyn was imported from {ratdyn.__file__}, not from {SRC}")
    return ratdyn


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")


class Tally:
    """Checked operations and failures; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


class Raised:
    """Stands in for the output of a call that raised; equal to nothing."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception(exc)).rstrip()


def reference_kernel() -> int:
    """Fixed work in the standard library alone (big-int arithmetic, a dict,
    str), sharing no code with ratdyn: its fastest time in a run, against
    ``REFERENCE_KERNEL_S``, is the host's speed during that run."""
    x, acc, table = 3 ** 200, 0, {}
    for i in range(3000):
        x = (x * 1234567891011 + i) % (1 << 521)
        table[i & 255] = x & 0xFFFF
        acc += len(str(i))
    return acc


def time_passes(calls, check, seconds: float, tally: Tally, between=None):
    """Run the call list in passes until ``seconds`` have passed.

    Returns (fastest latency per call, first-pass outputs, pass wall times,
    reference kernel times, each the mean of a burst).  Every output is
    checked: on the first pass by ``check``, on later passes by equality with
    the first pass.  A burst of the reference kernel runs before the first
    call and then between calls every ``KERNEL_EVERY_S``.  ``between``, if given, is called after each
    pass with the share of ``seconds`` gone.  Neither is counted in the pass
    times or in ``seconds``.
    """
    clock = time.perf_counter
    n = len(calls)
    best = [math.inf] * n
    first = [None] * n
    good = [False] * n
    walls = []
    kernel = []
    last_kernel = -math.inf
    timed = 0.0
    while True:
        t_pass = clock()
        paused = 0.0
        for i in range(n):
            if clock() - last_kernel >= KERNEL_EVERY_S:
                k0 = clock()
                for _ in range(KERNEL_BURST):
                    reference_kernel()
                last_kernel = clock()
                paused += last_kernel - k0
                kernel.append((last_kernel - k0) / KERNEL_BURST)
            fn, args = calls[i]
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # a failed call is counted, the run goes on
                out = Raised(exc)
            dt = clock() - t0
            if dt < best[i]:
                best[i] = dt
            if walls:
                ok = good[i] and out == first[i]
            else:
                first[i] = out
                ok = good[i] = not isinstance(out, Raised) and check(i, out)
            if not ok:
                detail = out.text if isinstance(out, Raised) else f"output {str(out)[:200]}"
                tally.record(False, f"call {i} ({fn.__name__}{args!r:.120}): {detail}")
            else:
                tally.attempted += 1
        walls.append(clock() - t_pass - paused)
        timed += walls[-1]
        if timed >= seconds:
            return best, first, walls, kernel
        if between is not None:
            between(timed / seconds)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class SetupTimer:
    """Wall times of fresh interpreters running ``--setup-only``, one at a
    time, spread over the timed phase so that a slow stretch of a shared
    host moves few of them."""

    def __init__(self, args, tally: Tally) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        self.tally = tally
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        self.samples.append(time.perf_counter() - t0)
        self.tally.record(proc.returncode == 0,
                          f"setup-only exited {proc.returncode}: {proc.stderr[-300:]}")

    def keep_pace(self, done: float) -> None:
        """Take the samples due once a share ``done`` of the timed phase is gone."""
        while len(self.samples) < min(SETUP_REPEATS, math.ceil(done * SETUP_REPEATS)):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, workers: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "ratdyn").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "workers": 1, "fanout_workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "src_ratdyn_lines": src_lines,
    }


def layer_metrics(tracer, stats, walls, nproc: int) -> dict:
    self_s = tracer.self_times()
    count = tracer.counts()
    roots_ms = [d * 1e3 for d in tracer.durations("intpoly.roots")]
    orbit_calls = count.get("dynamics.orbit", 0)
    cli_s = sum(tracer.durations("cli.run"), 0.0)
    layer_s = sum(self_s.get(n, 0.0) for n in (
        "dynatomic.build", "intpoly.roots", "dynamics.exact_period", "dynamics.orbit"))
    scan = stats.scan
    untraced = stats.serial_s if scan else statistics.median(walls)
    return {
        "core.enumerate.s": self_s.get("core.enumerate", 0.0),
        "core.enumerate.count": stats.enumerated,
        "dynamics.orbit.calls": orbit_calls,
        "dynamics.orbit.s": self_s.get("dynamics.orbit", 0.0),
        "dynamics.orbit.points": stats.orbit_points,
        "dynamics.orbit.periodic": stats.orbit_periodic,
        "dynamics.orbit.bound_exceeded": stats.orbit_bound_exceeded,
        "dynamics.orbit.useful_ratio": stats.orbit_periodic / orbit_calls if orbit_calls else 0.0,
        "dynamics.orbit.final_height_bits_mean":
            statistics.fmean(stats.final_height_bits) if stats.final_height_bits else 0.0,
        "dynamics.exact_period.calls": count.get("dynamics.exact_period", 0),
        "dynamics.exact_period.s": self_s.get("dynamics.exact_period", 0.0),
        "dynatomic.build.calls": count.get("dynatomic.build", 0),
        "dynatomic.build.s": self_s.get("dynatomic.build", 0.0),
        "dynatomic.build.degree_max": max(stats.degrees, default=0),
        "dynatomic.build.coeff_bits_max": max(stats.coeff_bits, default=0),
        "dynatomic.build.coeff_bits_mean":
            statistics.fmean(stats.coeff_bits) if stats.coeff_bits else 0.0,
        "intpoly.roots.calls": count.get("intpoly.roots", 0),
        "intpoly.roots.s": self_s.get("intpoly.roots", 0.0),
        "intpoly.roots.roots": stats.roots,
        "intpoly.roots.p99_ms": percentile(roots_ms, 0.99) if roots_ms else 0.0,
        "search.filter.accept_ratio": stats.accepted / stats.roots if stats.roots else 0.0,
        "search.scan.serial_s": stats.serial_s if scan else 0.0,
        "search.scan.parallel_s": stats.parallel_s if scan else 0.0,
        "search.scan.overhead_s": stats.serial_s - layer_s if scan else 0.0,
        "search.fanout.efficiency":
            stats.serial_s / (nproc * stats.parallel_s) if stats.parallel_s else 0.0,
        "search.quartic.small.s": stats.quartic["small"][0],
        "search.quartic.small.candidates": stats.quartic["small"][1],
        "search.quartic.large.s": stats.quartic["large"][0],
        "search.quartic.large.candidates": stats.quartic["large"][1],
        "classification.closed_form.calls": count.get("classification.closed_form", 0),
        "classification.closed_form.s": self_s.get("classification.closed_form", 0.0),
        "simultaneous.shared.calls": count.get("simultaneous.shared", 0),
        "simultaneous.shared.s": self_s.get("simultaneous.shared", 0.0),
        "polynomials.iterate_roots.calls": count.get("polynomials.iterate_roots", 0),
        "polynomials.iterate_roots.s": self_s.get("polynomials.iterate_roots", 0.0),
        "cli.run.s": cli_s,
        "cli.overhead.s": cli_s - stats.serial_s if cli_s else 0.0,
        "cli.output_bytes": stats.output_bytes,
        "trace.overhead_frac": stats.traced_s / untraced - 1.0 if untraced else 0.0,
    }


def run_one(args) -> None:
    import_ratdyn()
    spec = load_spec()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}")
    try:
        with open(args.reference) as fh:
            reference = json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read reference digests: {exc}")
    nproc = len(os.sched_getaffinity(0))
    w = workloads.WORKLOADS[args.workload](args.seed, args.size, nproc, reference)
    if args.setup_only:
        w.setup()
        return

    tally = Tally()
    setup = SetupTimer(args, tally) if args.trace == 0 else None
    w.setup()
    calls = w.calls()
    items = w.items()
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    best, first, walls, kernel = time_passes(calls, w.check_call, budget, tally,
                                             setup.keep_pace if setup else None)
    raw = {}

    if args.trace == 0:
        checks = w.final_checks(first)
        raw = {
            "setup_s": setup.median(),
            "items_per_s": sum(items) / sum(best),
            "call_p50_ms": statistics.median(best) * 1e3,
            "call_p99_ms": percentile(best, 0.99) * 1e3,
        }
        # Times at the reference host speed: a host running slow for this
        # run (fastest kernel above the reference) scales them down.
        scale = REFERENCE_KERNEL_S / min(kernel)
        values = {
            "setup_s": raw["setup_s"] * scale,
            "items_per_s": raw["items_per_s"] / scale,
            "call_p50_ms": raw["call_p50_ms"] * scale,
            "call_p99_ms": raw["call_p99_ms"] * scale,
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = spec["end_to_end"]
    else:
        tracer = Tracer()
        stats = workloads.Layers()
        checks = w.traced(tracer, stats, first)
        values = layer_metrics(tracer, stats, walls, nproc)
        declared = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.json")
    for name, ok in checks:
        tally.record(ok, f"check failed: {name}")

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        die(f"metrics computed {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"workload {args.workload}: {len(walls)} passes of {len(calls)} calls, "
          f"{sum(items)} items per pass, workers 1 (fan-out checked at {nproc})")
    for name, m in metrics.items():
        wall = f"  (wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{wall}")
    print(f"  {'reference kernel fastest':42s} {min(kernel) * 1e3:.6g} ms "
          f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms, {len(kernel)} runs)")
    print(f"  {'fail_frac':42s} {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        print(f"FAIL {note}", file=sys.stderr)
    print("meta " + json.dumps({**metadata(args, nproc), "kernel_fastest_s": min(kernel),
                                "wall_clock": raw}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def run_all(args) -> None:
    """Every workload in its own interpreter; one summary line at the end."""
    import_ratdyn()
    spec = load_spec()
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--reference", str(args.reference)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"workload {wl['name']} exited {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][wl["name"]] = result["metrics"]
    print(json.dumps(summary))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke tests")
    ap.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                    help="reference output digests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
