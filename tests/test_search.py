import functools
import itertools
import json
import math
import multiprocessing
import os
import pathlib
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratdyn import search, simultaneous
from ratdyn._intpoly import rational_roots_int
from ratdyn.classification import kb_period4_family, period3_family, quad_periodic_points
from ratdyn.cli import parse_map
from ratdyn.core import (
    count_rationals,
    enumerate_rationals,
    format_rational,
    height,
    parse_rational,
    rational_pairs,
)
from ratdyn.dynamics import KBMap, QuadraticMap, cycle_from, exact_period, quad_window
from ratdyn.dynatomic import _dynatomic_x, _family_rootless, periodic_points_exact
from ratdyn.errors import DomainError
from ratdyn.search import (
    QuarticCurve,
    quartic_rational_points,
    scan_intersection_bound,
    scan_kb_periods,
    scan_quadratic_periods,
)
from tests.conftest import RANDOM_MAPS, rationals

def test_quad_scan_small_boxes():
    rep = scan_quadratic_periods(5, 50, {3})
    assert rep.hits == ()
    assert rep.scanned_count == 39  # rationals of height <= 5: 3 + 4*(1+2+2+4)

    rep = scan_quadratic_periods(2, 50, {1, 2})
    found = {(h["map"], h["point"], h["period"]) for h in rep.hits}
    assert ("quad:c=0", "0", 1) in found
    assert ("quad:c=-1", "0", 2) in found


def test_quad_scan_period3_positive_control():
    rep = scan_quadratic_periods(32, 100, {3})
    assert {h["map"] for h in rep.hits} == {"quad:c=-29/16"}
    points = {h["point"] for h in rep.hits}
    assert points == {"5/4", "-1/4", "-7/4"}


def test_kb_scan_small_boxes():
    rep = scan_kb_periods(4, 4, 50, {3})
    assert rep.hits == ()
    rep = scan_kb_periods(4, 4, 50, {1})
    assert len(rep.hits) > 0
    for h in rep.hits:
        assert h["period"] == 1


def test_scan_respects_point_height_bound():
    # the 2-cycle of c = -13 is (3, -4); with a tiny point bound it vanishes
    rep = scan_quadratic_periods(13, 2, {2})
    assert all(h["map"] != "quad:c=-13" for h in rep.hits)
    rep = scan_quadratic_periods(13, 4, {2})
    assert any(h["map"] == "quad:c=-13" for h in rep.hits)


def test_scan_rejects_bad_periods():
    with pytest.raises(DomainError):
        scan_quadratic_periods(5, 50, {9})
    with pytest.raises(DomainError):
        scan_quadratic_periods(5, 50, set())


def test_scans_reject_point_bound_below_one():
    # a point bound below 1 admits no rational point; it must not scan
    for bad in (0, -3):
        with pytest.raises(DomainError, match=f"height_point={bad}"):
            scan_quadratic_periods(2, bad, {1})
        with pytest.raises(DomainError, match=f"height_point={bad}"):
            scan_kb_periods(2, 2, bad, {1})
        with pytest.raises(DomainError, match=f"height_point={bad}"):
            scan_intersection_bound(2, bad)


def test_scans_reject_point_bound_above_sieve_limit():
    # the quad window walk's arrays grow with the point bound; past 10**6
    # every scan refuses
    bad = 10**6 + 1
    with pytest.raises(DomainError, match=f"height_point={bad}"):
        scan_quadratic_periods(2, bad, {1})
    with pytest.raises(DomainError, match=f"height_point={bad}"):
        scan_kb_periods(2, 2, bad, {1})
    with pytest.raises(DomainError, match=f"height_point={bad}"):
        scan_intersection_bound(2, bad)


def test_scans_reject_workers_below_one():
    for bad in (0, -4):
        with pytest.raises(DomainError, match=f"workers={bad}"):
            scan_quadratic_periods(2, 10, {1}, workers=bad)
        with pytest.raises(DomainError, match=f"workers={bad}"):
            scan_kb_periods(2, 2, 10, {1}, workers=bad)
        with pytest.raises(DomainError, match=f"workers={bad}"):
            scan_intersection_bound(2, 10, workers=bad)
        with pytest.raises(DomainError, match=f"workers={bad}"):
            quartic_rational_points(QuarticCurve(F(1), F(6), F(7), F(2), F(1)), 5, workers=bad)


@pytest.mark.parametrize("scan, name", [
    (lambda h: scan_quadratic_periods(h, 3, {1}), "height_c"),
    (lambda h: scan_kb_periods(h, 2, 3, {1}), "height_k"),
    (lambda h: scan_kb_periods(2, h, 3, {1}), "height_b"),
    (lambda h: scan_intersection_bound(h, 3), "height"),
])
def test_scans_refuse_heights_above_the_cap_before_counting(monkeypatch, scan, name):
    # count_rationals holds a list of bound + 1 totients: at 10**11 it ran
    # out of memory; every height past 10**6 is refused before it is called,
    # and so is every height below 1, under the height's own name
    def no_count(bound):
        raise AssertionError(f"count_rationals({bound})")

    monkeypatch.setattr(search, "count_rationals", no_count)
    for bad in (0, -3, 10**6 + 1, 10**11):
        with pytest.raises(DomainError, match=f"^parameter excluded: {name}={bad}$"):
            scan(bad)


def test_scans_refuse_parameter_lists_past_ten_million(monkeypatch):
    # heights under the cap can still ask for 10**10 parameters; the scan
    # counts them and lists none (the quad count needs no count_rationals)
    def no_list(*args):
        raise AssertionError("parameters listed")

    monkeypatch.setattr(search, "rational_pairs", no_list)
    with pytest.raises(DomainError, match=f"^parameter excluded: box={(count_rationals(1000) - 1) ** 2}$"):
        scan_kb_periods(1000, 1000, 3, {1})
    with pytest.raises(DomainError, match=r"^parameter excluded: box=\d+$"):
        scan_intersection_bound(4000, 3)
    monkeypatch.setattr(search, "count_rationals", no_list)
    with pytest.raises(DomainError, match=f"^parameter excluded: box={(2 * 10**6 + 1) * 1000}$"):
        scan_quadratic_periods(10**6, 10**6, {1})


def test_scan_caps_admit_every_quad_box_up_to_height_ten_thousand(monkeypatch):
    # H(c) <= 10**4 lists at most (2 * 10**4 + 1) * 100 parameters at any
    # point bound; the scan gets past its checks to count the box
    class Admitted(Exception):
        pass

    def admitted(bound):
        raise Admitted

    monkeypatch.setattr(search, "count_rationals", admitted)
    for height_point in (1, 100, 10**6):
        with pytest.raises(Admitted):
            scan_quadratic_periods(10**4, height_point, {1})


def test_scans_build_maps_only_for_candidates(monkeypatch):
    # the scans carry int parameters: a KB scan builds kz + 1/z once per k
    # that no small prime shows rootless, to root its Phi*_n, and
    # kz + (1/s)/z once per nonzero root s, whatever the b; a period scan
    # never builds a quad map
    def maps(hk, hb, bound, periods):
        (n,), ks = periods, [r for r in enumerate_rationals(hk) if r]
        ks = [k for k in ks if not _family_rootless(False, n, *k.as_integer_ratio())]
        return len(ks) + sum(1 for k in ks for s in rational_roots_int(_dynatomic_x(KBMap(k, F(1)), n)) if s)

    built = {KBMap: 0, QuadraticMap: 0}

    def counting(cls):
        def make(*args):
            built[cls] += 1
            return cls(*args)
        return make

    # the 6 k of height <= 2 are all rootless at n = 3; 4 of the 22 k of
    # height <= 4 are not at n = 4, and their Phi*_4 have 8 nonzero roots
    for box, hits, count in (((2, 4, 50, (3,)), 0, 0), ((4, 10, 2, (4,)), 20, 4 + 8)):
        monkeypatch.setattr(search, "KBMap", counting(KBMap))
        built[KBMap] = 0
        assert len(scan_kb_periods(*box).hits) == hits
        assert built[KBMap] == maps(*box) == count, box
        monkeypatch.undo()
    monkeypatch.setattr(search, "KBMap", counting(KBMap))
    monkeypatch.setattr(search, "QuadraticMap", counting(QuadraticMap))
    built[KBMap] = 0
    assert scan_quadratic_periods(20, 100, (4,)).hits == ()
    assert scan_quadratic_periods(20, 100, (1, 2, 3)).hits
    assert built == {KBMap: 0, QuadraticMap: 0}


@pytest.fixture
def serial_pool(monkeypatch):
    """Every pool a scan opens runs its initializer and maps in this
    process, so no process is started; returns the list of the pools' sizes.
    The job the initializer sets here is dropped after the test."""
    sizes = []
    monkeypatch.setattr(search, "_job", None)

    class Serial:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, spans):
            return [worker(span) for span in spans]

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Serial))
    return sizes


@pytest.fixture
def recording_pool(monkeypatch):
    """Every pool a scan opens is the real fork pool, and three CPUs are
    claimed, so the chunk count does not depend on the machine; returns the
    list of (initargs, task function, spans) of each pool's map."""
    real, pools = multiprocessing.get_context("fork"), []

    class Recording:
        def __init__(self, processes, initializer, initargs):
            self.pool, self.job = real.Pool(processes, initializer, initargs), initargs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.pool.__exit__(*exc)

        def map(self, worker, spans):
            pools.append((self.job, worker, spans))
            return self.pool.map(worker, spans)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Recording))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return pools


def test_kb_chunks_are_runs_of_whole_k_and_merge_to_the_same_bytes(recording_pool):
    # three workers split the KB k into up to 24 contiguous chunks, each
    # with the box's height of b, not its b; merged in chunk order the
    # bytes are those of one worker.  The intersection scan sends its quad
    # part out first, as contiguous ranges of e.  A chunk is the items of
    # one span, with the pool's shared arguments
    for scan, hk, hb in ((lambda w: scan_kb_periods(2, 4, 50, (1, 2, 4), workers=w), 2, 4),
                         (lambda w: scan_intersection_bound(5, 50, workers=w), 5, 5)):
        one = scan(1)
        assert one.hits and json.dumps(scan(3).canonical_dict()) == json.dumps(one.canonical_dict())
        ks = [r for r in rational_pairs(hk) if r[0]]
        (_, items, args), _, spans = recording_pool[-1]
        chunks = [(items[a:b], args[0]) for a, b in spans]
        assert len(chunks) == min(24, len(ks))
        assert [k for ch, _ in chunks for k in ch] == ks and all(h == hb for _, h in chunks)
    (_, es, _), _, spans = recording_pool[-2]
    assert [es[a:b] for a, b in spans] == [range(1, 2), range(2, 3)]  # e <= isqrt(5)


def test_each_k_is_rooted_once_at_any_worker_count(monkeypatch, serial_pool):
    # Phi*_n of kz + 1/z is rooted once per k and n, however many chunks
    # three workers cut the k into, unless a small prime shows it rootless,
    # which is then done once instead.  The pool maps serially, so no
    # process is started
    rooted = []

    def counting(m, n):
        rooted.append((m.k, n))
        return _dynatomic_x(m, n)

    def sieving(quad, n, tn, td):
        if shown := _family_rootless(quad, n, tn, td):
            rooted.append((F(tn, td), n))
        return shown

    monkeypatch.setattr(search, "_dynatomic_x", counting)
    monkeypatch.setattr(search, "_family_rootless", sieving)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for scan, hk in ((lambda: scan_kb_periods(2, 4, 50, (1, 2, 4), workers=3), 2),
                     (lambda: scan_intersection_bound(5, 50, workers=3), 5)):
        rooted.clear()
        assert scan().hits
        ks = [r for r in enumerate_rationals(hk) if r]
        assert sorted(rooted) == sorted((k, n) for k in ks for n in (1, 2, 4))


def test_worker_errors_name_map_and_period(monkeypatch):
    # each nonzero root s of Phi*_n of kz + 1/z is decided by one
    # exact_period call per scan, on the point 1 of kz + (1/s)/z; an error
    # there names that map and the n of the root s it came from.
    # kb:k=4/3,b=-10/3 has the 4-cycle 1 -> -2 -> -1 -> 2; the fixed points
    # +-1 of kb:k=2,b=-1 are its only points of periods 1 and 4.
    real, failing_map = search.exact_period, None

    def failing(m, z, *args):
        if m.describe() == failing_map:
            raise DomainError("exact-period check failed")
        return real(m, z, *args)

    monkeypatch.setattr(search, "exact_period", failing)
    failing_map = "kb:k=4/3,b=-10/3"
    with pytest.raises(DomainError, match="kb:k=4/3,b=-10/3, n=4: exact-period check failed"):
        scan_kb_periods(4, 10, 2, {4}, workers=1)
    failing_map = "kb:k=2,b=-1"
    with pytest.raises(DomainError, match="kb:k=2,b=-1, n=1: exact-period check failed"):
        scan_kb_periods(2, 2, 10, {1, 4}, workers=1)
    with pytest.raises(DomainError, match="kb:k=2,b=-1, n=1: exact-period check failed"):
        scan_intersection_bound(2, 10, workers=1)


def test_quad_scans_make_no_exact_period_call(monkeypatch):
    # the window walk gives each quad point's exact period itself
    def no_call(m, z, *args):
        raise AssertionError(f"exact_period({m.describe()}, {z})")

    monkeypatch.setattr(search, "exact_period", no_call)
    assert scan_quadratic_periods(40, 3, (1, 2, 3)).hits
    assert scan_quadratic_periods(20, 100, range(1, 9), workers=2).hits


def test_kb_roots_of_a_lower_exact_period_are_dropped(monkeypatch):
    # a root s of Phi*_n can lie on a cycle shorter than n; fed to n = 2 as
    # well, the root s = 1/(1 - k) of the fixed points +-1 of kb:k=2,b=-1
    # reaches exact_period, which drops them: the scan's bytes do not change
    real_roots, real_period, checked = search.rational_roots_int, search.exact_period, set()

    def period(m, z, *args):
        checked.add((m.describe(), z))
        return real_period(m, z, *args)

    want = scan_kb_periods(2, 2, 10, {1, 2}).canonical_dict()
    monkeypatch.setattr(search, "rational_roots_int", lambda c, bound=None: sorted(set(real_roots(c, bound)) | {F(-1)}))
    monkeypatch.setattr(search, "exact_period", period)
    assert scan_kb_periods(2, 2, 10, {1, 2}).canonical_dict() == want
    # one call per root s and n, on the point 1 of kz + (1/s)/z, which the
    # root s = -1 of k = 2 names as kb:k=2,b=-1 at either n
    assert {c for c in checked if c[0] == "kb:k=2,b=-1"} == {("kb:k=2,b=-1", F(1))}


def test_failed_worker_pool_is_domain_error(monkeypatch):
    class NoFork:
        def Pool(self, processes, initializer, initargs):
            raise OSError("cannot fork")

    # search imports multiprocessing only when it starts a pool; a quad box
    # of height 4 has two e, so two chunks.  Two CPUs are claimed, so two
    # workers split the work on any machine
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: NoFork())
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    msg = "worker pool failed: cannot fork"
    with pytest.raises(DomainError, match=msg):
        scan_quadratic_periods(4, 10, {1}, workers=2)
    with pytest.raises(DomainError, match=msg):
        scan_intersection_bound(2, 10, workers=2)
    with pytest.raises(DomainError, match=msg):
        quartic_rational_points(QuarticCurve(F(1), F(6), F(7), F(2), F(1)), 20, workers=2)
    # one worker never builds a pool
    assert scan_quadratic_periods(2, 10, {1}, workers=1).hits


def test_worker_pool_is_capped_at_the_cpu_count(serial_pool):
    # a fake pool records its size and maps serially: no process is started
    scans = (
        lambda w: scan_quadratic_periods(20, 100, (1, 2, 3), workers=w),
        lambda w: scan_kb_periods(2, 2, 10, {1, 2}, workers=w),
        lambda w: scan_intersection_bound(3, 50, workers=w),
        lambda w: quartic_rational_points(QuarticCurve(F(1), F(6), F(7), F(2), F(1)), 20, workers=w),
    )
    for scan in scans:
        serial_pool.clear()
        assert json.dumps(scan(10**6).canonical_dict()) == json.dumps(scan(1).canonical_dict())
        assert serial_pool and all(1 <= n <= (os.cpu_count() or 1) for n in serial_pool)


@pytest.mark.parametrize("cpus", [1, 2, 5, None])
def test_chunks_are_capped_at_the_cpu_count(monkeypatch, serial_pool, cpus):
    # a workers count past the CPUs adds no chunk: the quartic search and
    # the scans split into eight chunks per usable CPU.  Each worker call is
    # one chunk; the pool maps serially, so no process is started.  One
    # worker makes one chunk without asking for the CPU count
    calls = []

    def counting(name):
        real = getattr(search, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_quartic_chunk", "_kb_points"):
        monkeypatch.setattr(search, name, counting(name))
    monkeypatch.setattr(os, "cpu_count", lambda: calls.append("cpu_count") or cpus)
    usable = cpus or 1
    curve = QuarticCurve(F(1), F(6), F(7), F(2), F(1))
    for workers in (1, 2, 64, 256):
        calls.clear()
        quartic_rational_points(curve, 200, workers=workers)
        scan_kb_periods(6, 1, 10, (1, 2), workers=workers)  # 46 k
        parts = min(workers, usable)
        counts = [calls.count(name) for name in ("_quartic_chunk", "_kb_points")]
        assert counts == [parts * 8 if parts > 1 else 1] * 2, (cpus, workers)
        assert ("cpu_count" in calls) == (workers > 1)


def test_pool_tasks_are_int_spans_and_the_job_is_inherited(monkeypatch, recording_pool):
    # through the real fork pool at three claimed CPUs, every task the pool
    # receives is a (start, stop) span of ints, for KB, quad and quartic:
    # the worker, its items and the shared arguments (the KB height of b,
    # the quartic masks) reach each process at the fork, so nothing of the
    # box is pickled.  Each engine's worker is wrapped in a lambda, which
    # pickle cannot send, and the bytes are still those of one worker
    curve = QuarticCurve(F(1, 64), F(1, 63), F(1, 65), F(1, 11), F(1))
    for name, call in (("_kb_points", lambda w: scan_kb_periods(4, 10, 50, (1, 2, 4), workers=w)),  # 22 k
                       ("_quad_points", lambda w: scan_quadratic_periods(1000, 40, (1, 2, 3), workers=w)),  # 31 e
                       ("_quartic_chunk", lambda w: quartic_rational_points(curve, 60, workers=w))):  # 60 v
        one, worker = json.dumps(call(1).canonical_dict()), getattr(search, name)
        recording_pool.clear()
        with monkeypatch.context() as patch:
            patch.setattr(search, name, lambda *args: worker(*args))
            assert json.dumps(call(3).canonical_dict()) == one
        [((_, items, _), mapped, spans)] = recording_pool
        assert mapped is search._run_span and len(spans) == min(24, len(items)), name
        assert all(type(span) is tuple and [type(x) for x in span] == [int, int] for span in spans)
        assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]] and spans[-1][1] == len(items)


def test_quartic_builds_its_masks_once_per_call(monkeypatch, serial_pool):
    # one call builds the masks once, before any fork, at one worker and at
    # two, whose chunks of v read them from their arguments.  The pool maps
    # serially, so no process is started
    real, built = search._square_masks, []
    monkeypatch.setattr(search, "_square_masks", lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    curve = QuarticCurve(F(1, 64), F(1, 63), F(1, 65), F(1, 11), F(1))
    reports = []
    for workers in (1, 2):
        built.clear()
        reports.append(quartic_rational_points(curve, 60, workers=workers).canonical_dict())
        assert built == [(60, *curve.integer_form())]
    assert reports[0] == reports[1] and serial_pool == [2]


# --- the scan routes against the dynatomic route ---------------------------

_PERIODS = st.sets(st.integers(1, 8), min_size=1, max_size=2).map(sorted).map(tuple)


def _param(m):
    """The scan parameter of a real map: (num, den) of c, or ((kn, kd), (bn, bd))."""
    if type(m) is QuadraticMap:
        return m.c.as_integer_ratio()
    return m.k.as_integer_ratio(), m.b.as_integer_ratio()


def _quad_fractions(rows):
    """Quad rows (c, n, u, e) as (c, n, z) with z = u/e, after checking
    that each c = (num, e^2) is reduced with a reduced point u/e."""
    rows = list(rows)
    assert all(c[1] == e * e and math.gcd(c[0], e) == math.gcd(u, e) == 1 and e >= 1 for c, _, u, e in rows)
    return [(c, n, F(u, e)) for c, n, u, e in rows]


def _point_columns(cols):
    """The (4, k) columns (num, e, n, u) of ``_quad_points`` as rows (c, n, u, e)."""
    return [((num, e * e), n, u, e) for num, e, n, u in zip(*cols.tolist())]


def _kb_box_rows(ks, bs, periods, bound):
    """The rows of ``_kb_points`` over the k of ``ks`` and every b up to the
    greatest height in ``bs``, kept for the b of ``bs``."""
    keep = set(bs)
    rows = search._kb_points(ks, max(max(abs(bn), bd) for bn, bd in bs), periods, bound)
    return [row for row in rows if row[0][1] in keep]


def _assert_sieve_is_dynatomic(maps, periods_of, bound):
    # periods_of = (quad periods, KB periods).  Each quad map goes through the
    # quad route over the box of its height, and each KB map through the KB
    # route as a box of one k and every b up to its height, kept for its b;
    # the rows are exactly each map's points per requested n, in scan order
    kbs = [m for m in maps if type(m) is KBMap]
    want_of = {m: {n: sorted(periodic_points_exact(m, n, height_bound=bound), key=search._rat_key)
                   for n in periods_of[type(m) is KBMap]} for m in maps}
    kb_rows = [row for k, b in map(_param, kbs) for row in _kb_box_rows([k], [b], periods_of[1], bound)]
    assert kb_rows == [(_param(m), n, *z.as_integer_ratio()) for m in kbs for n, pts in want_of[m].items()
                       for z in pts], bound
    for m in maps:
        if type(m) is QuadraticMap:
            rows = [r for r in _quad_fractions(search._quad_rows(height(m.c), bound, periods_of[0], 1))
                    if r[0] == _param(m)]
            assert rows == [(_param(m), n, z) for n, pts in want_of[m].items() for z in pts], (m.describe(), bound)
    return [want_of[m] for m in maps]


@settings(max_examples=40, deadline=None)
@given(st.lists(RANDOM_MAPS, min_size=1, max_size=6), _PERIODS, _PERIODS, st.integers(1, 8))
@example([QuadraticMap(F(-13)), KBMap(F(4, 3), F(-10, 3))], (2,), (4,), 1)
@example([KBMap(F(4, 3), F(-10, 3)), QuadraticMap(F(-29, 16))], (3,), (4,), 2)
@example([KBMap(F(-23, 30), F(29, 21))], (1,), (8,), 8)  # square-free Phi*_8, 3 bad primes
def test_sieve_matches_dynatomic_on_mixed_chunks(maps, quad_periods, kb_periods, bound):
    # parameters reach height 60, so the KB roots s = z^2 / b reach height
    # B^2 H(b), far past B; maps may repeat, and each quad map is found
    # among the maps of its box
    _assert_sieve_is_dynatomic(maps, (quad_periods, kb_periods), bound)


# (n, k, b, p): a KB map with the point p of exact period n, from a row of
# the closed-form table or from the 4-cycle family
_PLANTED = st.one_of(
    st.tuples(st.sampled_from((1, 2, 4)), rationals(12, nonzero=True), rationals(12))
    .filter(lambda t: t[2] not in simultaneous._ROWS[t[0]][4])
    .map(lambda t: (t[0], *simultaneous._ROWS[t[0]][1](t[1], t[2]), t[1])),
    rationals(12).filter(lambda m: m not in (0, 1, -1)).map(kb_period4_family)
    .map(lambda f: (4, f.k, f.b, f.points[0])),
)


@settings(max_examples=60, deadline=None)
@given(_PLANTED, rationals(40, nonzero=True), st.integers(1, 600))
@example((4, F(4, 3), F(-10, 3), F(1)), F(1), 2)
@example((1, F(2), F(-1), F(1)), F(999, 1000), 1000)  # b = -998001/10^6
@example((2, F(-10, 11), F(-1, 11), F(1)), F(1000, 3), 1000)  # b = -10^6/99
def test_kb_route_matches_dynatomic_on_planted_points(planted, q, bound):
    # u = q z conjugates kz + b/z to ku + b q^2/u and moves p to q p, so the
    # rescaled map has q p of period n, and b reaches height about 10^6,
    # negative too: the route roots kz + 1/z with no height bound and finds
    # exactly the points that the dynatomic route of the map itself finds
    n, k, b, p = planted
    b *= q * q
    param = (k.as_integer_ratio(), b.as_integer_ratio())
    want = sorted(periodic_points_exact(KBMap(k, b), n, height_bound=bound), key=search._rat_key)
    assert _kb_box_rows([param[0]], [param[1]], (n,), bound) == [(param, n, *z.as_integer_ratio()) for z in want]
    assert q * p in want or height(q * p) > bound


def test_kb_exact_periods_are_decided_once_per_root_whatever_the_b_box(monkeypatch):
    # one exact_period call per nonzero root (k, n, s), on the point 1 of
    # kz + (1/s)/z, so widening the b box and the point bound adds none;
    # every root is taken with no height bound
    real_roots, real_period, roots, decided = search.rational_roots_int, search.exact_period, [], []

    def rooting(c, *args, **kwargs):
        assert not args and not kwargs
        got = real_roots(c)
        roots.extend(s for s in got if s)
        return got

    def period(m, z, *args):
        decided.append((m.k, 1 / m.b, z, args))
        return real_period(m, z, *args)

    monkeypatch.setattr(search, "rational_roots_int", rooting)
    monkeypatch.setattr(search, "exact_period", period)
    counts = []
    for box in ((4, 10, 50), (4, 40, 200)):
        roots.clear(), decided.clear()
        assert scan_kb_periods(*box, (1, 2, 4)).hits
        assert len(set(decided)) == len(decided) == len(roots) and {z for _, _, z, _ in decided} == {1}
        counts.append(len(decided))
    assert counts == [50, 50]


def test_kb_bytes_are_the_golden_at_one_and_three_workers(monkeypatch):
    # three CPUs are claimed, so the k are cut into chunks on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    golden = (pathlib.Path(__file__).parent / "golden" / "scan_kb_k4_b40_p200_n124.json").read_text()
    for workers in (3, 1):
        rep = scan_kb_periods(4, 40, 200, (1, 2, 4), workers=workers)
        assert json.dumps(rep.canonical_dict(), sort_keys=True, separators=(",", ":")) + "\n" == golden


def test_kb_wide_b_box_bytes_are_the_golden_at_one_and_two_workers(monkeypatch):
    # 924 hits over 2 k and 875,998 b, recorded while scans listed the b
    # box; two CPUs are claimed, so the two k go through the fork pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    golden = (pathlib.Path(__file__).parent / "golden" / "scan_kb_k1_b600_p20_n124.json").read_text()
    for workers in (2, 1):
        rep = scan_kb_periods(1, 600, 20, (1, 2, 4), workers=workers)
        assert json.dumps(rep.canonical_dict(), sort_keys=True, separators=(",", ":")) + "\n" == golden


def test_kb_scan_at_the_widest_b_box_under_the_cap(monkeypatch):
    # H(k) = 1 leaves 2 k, and H(b) = 2027 is the widest b box that the cap
    # of 10**7 (k, b) pairs admits beside them: 4,664 hits, the count while
    # scans listed the b box.  Each hit has its exact period, and two
    # claimed CPUs give the bytes of one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one, two = (scan_kb_periods(1, 2027, 1000, (1, 2, 4), workers=w) for w in (1, 2))
    assert one.scanned_count == 2 * (count_rationals(2027) - 1) <= 10**7 < 2 * (count_rationals(2028) - 1)
    assert len(one.hits) == 4664 and json.dumps(two.canonical_dict()) == json.dumps(one.canonical_dict())
    for hit in one.hits:
        assert exact_period(parse_map(hit["map"]), parse_rational(hit["point"])) == hit["period"], hit


def test_kb_scans_list_the_k_and_not_the_b(monkeypatch):
    # rational_pairs is asked for the k alone, once per scan, and the KB
    # route is handed the height of b, never a list of b
    real_pairs, real_rows, asked, handed = search.rational_pairs, search._kb_rows, [], []
    monkeypatch.setattr(search, "rational_pairs", lambda h: asked.append(h) or real_pairs(h))
    monkeypatch.setattr(search, "_kb_rows", lambda ks, hb, *args: handed.append(hb) or real_rows(ks, hb, *args))
    assert scan_kb_periods(3, 40, 50, (1, 2, 4)).hits
    assert asked == [3] and handed == [40]
    asked.clear(), handed.clear()
    assert scan_intersection_bound(5, 50).hits
    assert asked == [5] and handed == [5]


def _kb_rows_by_pairs(ks, bs, periods, bound):
    """The rows of ``_kb_points`` by one isqrt test per (b, s) pair, each
    point a Fraction ordered by height, numerator, denominator."""
    rows = []
    for k in ks:
        hits = []
        for n in periods:
            for sn, sd in search._kb_classes(k, n):
                for i, (bn, bd) in enumerate(bs):
                    t = bn * bd * sn * sd
                    if t > 0 and math.isqrt(t) ** 2 == t and height(z := F(math.isqrt(t), bd * sd)) <= bound:
                        hits += [(i, n, search._rat_key(-z), -z), (i, n, search._rat_key(z), z)]
        rows += [((k, bs[i]), n, *z.as_integer_ratio()) for i, n, _, z in sorted(hits, key=lambda h: h[:3])]
    return rows


def _odd_exponent_primes(x, primes):
    """The p of ``primes`` that divide x >= 1 to an odd power, and what is
    left of x once every p of ``primes`` is divided out."""
    odd = []
    for p in primes:
        if x % p == 0:
            e = 0
            while x % p == 0:
                x, e = x // p, e + 1
            if e % 2:
                odd.append(p)
    return odd, x


def _kernel_primes(x):
    """The primes of odd exponent in x >= 1."""
    ps, left = _odd_exponent_primes(x, range(2, math.isqrt(x) + 1))  # leaves 1 or one prime
    return ps + [left] * (left > 1)


def _kb_rows_by_kernels(ks, bs, periods, bound):
    """The rows of ``_kb_points`` for the b of ``bs``, in the order of
    ``bs``, by a pass over every b, the route while scans listed the b box:
    trial division gives each |bn| and bd its primes of odd exponent, each
    root s is divided by the primes of the b, the b whose signed kernel is
    a root's are kept, and each takes an isqrt for z = +-sqrt(b s)."""
    table = [[(n, s) for n in periods for s in search._kb_classes(k, n)] for k in ks]
    keys, classes = {}, {}
    if any(table):
        odd = {x: _kernel_primes(x) for x in {abs(bn) for bn, _ in bs} | {bd for _, bd in bs}}
        primes = sorted(set().union(*odd.values()))
        for sn, sd in {s for roots in table for _, s in roots}:
            ps, left = _odd_exponent_primes(abs(sn * sd), primes)
            if (r := math.isqrt(left)) * r == left:
                keys[sn, sd] = math.prod(ps, start=1 if sn > 0 else -1)
        kernel, wanted = {x: math.prod(ps) for x, ps in odd.items()}, set(keys.values())
        for i, (bn, bd) in enumerate(bs):
            if (key := kernel[abs(bn)] * kernel[bd] * (1 if bn > 0 else -1)) in wanted:
                classes.setdefault(key, []).append(i)
    found = []
    for k, roots in zip(ks, table):
        hits = []
        for n, (sn, sd) in roots:
            for i in classes.get(keys.get((sn, sd)), ()):
                bn, bd = bs[i]
                r = math.isqrt(bn * bd * sn * sd)
                g = math.gcd(r, bd * sd)
                if (h := max(zn := r // g, zd := bd * sd // g)) <= bound:
                    hits += [(i, n, h, -zn, zd), (i, n, h, zn, zd)]
        hits.sort()
        found += [((k, bs[i]), n, zn, zd) for i, n, _, zn, zd in hits]
    return found


def _in_scan_order(bs):
    """The b of ``bs`` as (num, den), once each, in ``rational_pairs`` order."""
    return [b.as_integer_ratio() for b in sorted(set(bs), key=search._rat_key)]


@st.composite
def _kb_boxes(draw):
    """(ks, bs): up to 3 k of height <= 12 and up to 10 b, random ones of
    height <= 2027 and planted ones b = s q^2 for a root s of a drawn k."""
    ks = draw(st.lists(rationals(12, nonzero=True), min_size=1, max_size=3, unique=True))
    bs = draw(st.lists(rationals(2027, nonzero=True), max_size=5))
    roots = sorted({F(*s) for k in ks for n in (1, 2, 4) for s in search._kb_classes(k.as_integer_ratio(), n)})
    if roots:
        bs += draw(st.lists(st.builds(lambda s, q: s * q * q, st.sampled_from(roots), rationals(12, nonzero=True)),
                            max_size=5))
    return ks, bs or [F(1)]


@settings(max_examples=40, deadline=None)
@given(_kb_boxes(), st.sets(st.sampled_from((1, 2, 4)), min_size=1).map(sorted).map(tuple), st.integers(1, 300))
@example(([F(3), F(-2)], [F(-18), F(12, 25)]), (1, 2, 4), 10)  # negative b, and b with square factors
@example(([F(-2026), F(2)], [F(2027), F(-2027, 4)]), (1, 2), 50)  # b of height 2027
# H(b) = 2 and the roots 1/98 and 1/96 of k = -97: past the prime 2, 1/98
# leaves the square 7^2 and so gives b = 2 the points +-1/7; 1/96 leaves 3
@example(([F(-97)], [F(2), F(1)]), (1, 2), 10)
@example(([F(1), F(-1)], [F(2), F(-18), F(1, 2)]), (1, 2, 4), 10)  # k = +-1
def test_kb_square_classes_match_every_pair_and_the_dynatomic_route(box, periods, bound):
    # the class listing gives, for the b drawn, the rows of an isqrt test on
    # every (b, s) pair, which are each map's points of height <= B per n
    ks, bs = [k.as_integer_ratio() for k in box[0]], _in_scan_order(box[1])
    rows = _kb_box_rows(ks, bs, periods, bound)
    assert rows == _kb_rows_by_pairs(ks, bs, periods, bound)
    want = [((k, b), n, *z.as_integer_ratio()) for k in ks for b in bs for n in periods
            for z in sorted(periodic_points_exact(KBMap(F(*k), F(*b)), n, height_bound=bound), key=search._rat_key)]
    assert rows == want


def _planted_b(roots, top):
    """b = s q^2 for a root s of ``roots``, with H(b) <= top since H(q)^2 H(s) <= top."""
    return st.sampled_from(roots).flatmap(
        lambda s: st.builds(lambda q: s * q * q, rationals(max(1, math.isqrt(top // height(s))), nonzero=True)))


@st.composite
def _kb_class_boxes(draw):
    """(ks, bs): up to 3 k of height <= 12, and up to 8 b of height <= 10^4,
    planted ones b = s q^2 for a root s of a drawn k, negative with s, and
    random ones."""
    ks = draw(st.lists(rationals(12, nonzero=True), min_size=1, max_size=3, unique=True))
    roots = sorted({F(*s) for k in ks for n in (1, 2, 4) for s in search._kb_classes(k.as_integer_ratio(), n)})
    bs = draw(st.lists(rationals(10**4, nonzero=True), max_size=3))
    if roots:
        bs += draw(st.lists(_planted_b(roots, 10**4), min_size=1, max_size=5))
    return ks, bs or [F(1)]


@settings(max_examples=40, deadline=None)
@given(_kb_class_boxes(), st.integers(1, 40), st.integers(1, 300))
@example(([F(-97)], [F(2)]), 2, 10)  # 1/96 of k = -97 leaves 3, past H(b) = 2: no row
@example(([F(3), F(-2)], [F(-18), F(12, 25), F(-2, 9)]), 25, 10)  # negative b
@example(([F(1), F(-1)], [F(9999, 10000), F(-5000, 9999)]), 40, 300)  # b of height 10^4
def test_kb_class_listing_matches_the_kernel_pass(box, small, bound):
    # the rows of each root's class members, kept for the b drawn up to
    # H(b) = 10^4, are those of the kernel pass over the b; over a whole box
    # of H(b) <= 40 they are the kernel pass over every b of that box, and a
    # root with a prime of odd exponent past H(b) gives no row there
    ks, bs = [k.as_integer_ratio() for k in box[0]], _in_scan_order(box[1])
    periods = (1, 2, 4)
    assert _kb_box_rows(ks, bs, periods, bound) == _kb_rows_by_kernels(ks, bs, periods, bound)
    every = [r for r in rational_pairs(small) if r[0]]
    rows = search._kb_points(ks, small, periods, bound)
    assert rows == _kb_rows_by_kernels(ks, every, periods, bound)
    for k in ks:
        for n in periods:
            for sn, sd in search._kb_classes(k, n):
                if max(_kernel_primes(abs(sn) * sd), default=1) > small:  # no b of the box has its class
                    assert not [p for p, m, zn, zd in rows if p[0] == k and m == n
                                and F(zn, zd) ** 2 == F(*p[1]) * F(sn, sd)], (k, n, (sn, sd))


def test_kb_work_grows_with_the_class_members_not_the_box(monkeypatch):
    # each class is listed once per call, and each root with a class takes
    # one gcd for it and one per member of its class: at a point bound that
    # cuts nothing, every member a root visits gives two rows.  Once H(b)
    # passes (B t)^2 and (B d)^2 for z = +-alpha u t / (v d), the point bound
    # alone cuts the members, so a box 10^4 times wider adds no work.  No k
    # with a root: no trial division, no class and no gcd
    ks = [r for r in rational_pairs(4) if r[0]]
    table = {(k, n): search._kb_classes(k, n) for k in ks for n in (1, 2, 4)}
    real_gcd, real_members, gcds, listed = math.gcd, search._kb_members, [0], []

    def members(*args):
        before = gcds[0]
        got = real_members(*args)
        listed.append((len(got), gcds[0] - before))
        return got

    monkeypatch.setattr(search, "_kb_classes", lambda k, n: table.get((k, n), ()))  # so no rooting gcd is counted
    monkeypatch.setattr(search, "_kb_members", members)
    monkeypatch.setattr(search.math, "gcd", lambda *args: gcds.__setitem__(0, gcds[0] + 1) or real_gcd(*args))

    def work(height_b, bound, periods=(1, 2, 4)):
        gcds[0] = 0
        listed.clear()
        rows = search._kb_points(ks, height_b, periods, bound)
        return rows, gcds[0], sum(g for _, g in listed), sum(m for m, _ in listed), len(listed)

    for height_b in (40, 2027):
        rows, total, listing, _, classes = work(height_b, 10**6)
        kept = sum(1 for roots in table.values() for sn, sd in roots
                   if max(_kernel_primes(abs(sn) * sd), default=1) <= height_b)
        assert total == listing + kept + len(rows) // 2 and classes <= kept <= 50
    wide = [work(h, 5)[1:] for h in (10**4, 10**6)]
    assert wide[0] == wide[1] and wide[0][0] < (count_rationals(10**4) - 1) // 1000
    monkeypatch.setattr(search, "_odd_primes", lambda x, top: pytest.fail("trial division with no root"))
    assert work(2027, 200, (3,)) == ([], 0, 0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), _PERIODS, st.integers(0, 3))
@example(29, 4, (2, 3), 0)
@example(13, 2, (1, 2), 0)  # clipped: c = -13 has top 4
@example(29, 3, (1, 2, 3), 1)  # -29/16 has e = 4 > bound: not walked
@example(29, 8, (7, 8), 2)  # beyond every period
def test_window_walk_gives_the_exact_periods_of_plain_iteration(height_c, bound, periods, skip):
    # every c = num / e^2 of a small box with e in a chunk of ``_quad_es``
    # and every point of its window, u/e in lowest terms with |u| <=
    # min(bound, top): the edge walk reports (c, n, u/e) for exactly the
    # points whose exact_period n is requested
    es = search._quad_es(height_c, bound)[skip:]
    got = search._quad_points(es, height_c, bound, periods) if es else np.zeros((4, 0), dtype=np.int64)
    assert got.dtype == np.int64 and got.shape[0] == 4
    got = _quad_fractions(_point_columns(got))
    want = []
    for e, num in itertools.product(es, range(-height_c, height_c + 1)):
        m, (_, top) = QuadraticMap(F(num, e * e)), quad_window(num, e * e)
        for u in range(-min(bound, top), min(bound, top) + 1):
            if math.gcd(u, e) == 1 and math.gcd(num, e) == 1 and (n := exact_period(m, F(u, e))) in periods:
                want.append(((num, e * e), n, F(u, e)))
    assert len(set(got)) == len(got) and sorted(got) == sorted(want)


@pytest.mark.parametrize("c, bound, want", [
    (F(-13), 2, set()),  # e = 1, top = 4: the bound clips the window
    (F(-13), 3, {F(3)}),
    (F(-13), 4, {F(3), F(-4)}),
    (F(-13), 9, {F(3), F(-4)}),  # the window, not the bound, stops at 4
    (F(-29, 16), 5, {F(5, 4), F(-1, 4)}),  # e = 4, top = 7
    (F(-29, 16), 8, {F(5, 4), F(-1, 4), F(-7, 4)}),
    (F(-3, 2), 50, set()),  # den(c) is not a square: an empty window
    (F(-13, 8), 50, set()),
])
def test_sieve_matches_dynatomic_on_clipped_whole_and_empty_windows(c, bound, want):
    m = QuadraticMap(c)
    found = _assert_sieve_is_dynatomic([m], ((1, 2, 3), ()), bound)[0]
    assert set().union(*found.values()) == want


def test_quad_scan_building_only_kept_maps_keeps_the_box():
    # at B = 3 the prune drops every c whose den(c) is not e^2 with e <= 3;
    # the scan lists no parameter for those c, yet counts the whole box, finds
    # what the dynatomic route finds on every real map of the box and what
    # the period routes find on the whole box's parameters, and is the same
    # at 1 and 2 workers
    box = [QuadraticMap(c) for c in enumerate_rationals(12)]
    one = scan_quadratic_periods(12, 3, (1, 2, 3), workers=1)
    assert one.scanned_count == len(box) == count_rationals(12)
    want = [{"map": m.describe(), "point": format_rational(z), "period": n} for m in box for n in (1, 2, 3)
            for z in sorted(periodic_points_exact(m, n, height_bound=3), key=search._rat_key)]
    assert list(one.hits) == want
    # the same rows come from each e of the box alone
    rows = sorted((r for e in range(1, 4)
                   for r in _quad_fractions(_point_columns(search._quad_points(range(e, e + 1), 12, 3, (1, 2, 3))))),
                  key=lambda r: (height(F(*r[0])), *r[0], r[1], search._rat_key(r[2])))
    assert want == [{"map": f"quad:c={format_rational(F(*c))}", "point": format_rational(z), "period": n}
                    for c, n, z in rows]
    assert {h["map"] for h in one.hits} >= {"quad:c=-3/4", "quad:c=2/9"}
    two = scan_quadratic_periods(12, 3, (1, 2, 3), workers=2)
    assert json.dumps(two.canonical_dict()) == json.dumps(one.canonical_dict())


def test_quad_scan_matches_the_closed_forms():
    # an independent check: the closed forms of periods 1-3 share no code
    # with the edge walk.  Every c = num / e^2 of the box, in scan order; the
    # other c have no rational periodic point
    box = sorted((F(num, e * e) for e in range(1, math.isqrt(500) + 1) for num in range(-500, 501)
                  if math.gcd(num, e) == 1), key=search._rat_key)
    want = [{"map": QuadraticMap(c).describe(), "point": format_rational(z), "period": n}
            for c in box for n in (1, 2, 3)
            for z in sorted((z for z in quad_periodic_points(c, n) if height(z) <= 100), key=search._rat_key)]
    assert len(want) == 1158
    assert list(scan_quadratic_periods(500, 100, (1, 2, 3)).hits) == want


def test_quad_scan_at_the_height_cap_matches_the_maps_of_each_point():
    # an independent check at height_c = 10**6, where the window reaches
    # T = 1001 and the edge grid's |v| (|v| - e) about 10**6: z of height <=
    # 2 has exact period n <= 3 for z^2 + c exactly at the c that
    # quadratics_with_periodic_point finds from the closed forms, which share
    # no code with the edge walk
    rows = sorted(((entry.c, entry.period, z) for z in enumerate_rationals(2)
                   for entry in simultaneous.quadratics_with_periodic_point(z) if height(entry.c) <= 10**6),
                  key=lambda r: (search._rat_key(r[0]), r[1], search._rat_key(r[2])))
    want = [{"map": QuadraticMap(c).describe(), "point": format_rational(z), "period": n} for c, n, z in rows]
    assert len(want) == 13
    assert list(scan_quadratic_periods(10**6, 2, (1, 2, 3)).hits) == want


# the edge grid's cell cap: one e per block, a middle value, and the default
_CAPS = (1, 2**9, search._BLOCK_CELLS)


@pytest.mark.parametrize("cap", _CAPS)
def test_quad_blocks_change_no_row_or_byte(monkeypatch, cap):
    # the golden box's 20 e are one per block at caps 1 and 2**9 and make
    # two blocks at the default; the 6 e of the (40, 100) box make 6, 5 and
    # 1 blocks.  Rows and canonical bytes are the same at every cap and
    # worker count, and the golden box's bytes are its golden file
    monkeypatch.setattr(search, "_BLOCK_CELLS", cap)
    blocks = lambda h, b: [len(r) for r, _ in search._quad_blocks(search._quad_es(h, b), h, b)]
    assert (blocks(2000, 20), blocks(40, 100)) == {
        1: ([1] * 20, [1] * 6), 2**9: ([1] * 20, [2, 1, 1, 1, 1]), _CAPS[2]: ([15, 5], [6])}[cap]
    golden = (pathlib.Path(__file__).parent / "golden" / "scan_quad_h2000_p20.json").read_text()
    for box in ((2000, 20, (1, 2, 3)), (40, 100, (1, 2, 3)), (12, 20, (1, 2, 3, 4))):
        rows = search._quad_rows(*box, 1)
        assert rows and search._quad_rows(*box, 2) == rows
        one, two = (json.dumps(scan_quadratic_periods(*box, workers=w).canonical_dict(), sort_keys=True,
                               separators=(",", ":")) for w in (1, 2))
        assert one == two
        if box[0] == 2000:
            assert one + "\n" == golden


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_CAPS), st.integers(1, 16), st.integers(1, 12), _PERIODS)
@example(2**9, 16, 12, (1, 2, 3))  # e = 1..3 in one block, then e = 4
def test_quad_rows_at_every_cap_are_dynatomic_in_scan_order(cap, height_c, bound, periods):
    # every map of a small box, in scan order, with its points of each
    # requested exact period by the dynatomic route, which walks no edge
    want = [(c.as_integer_ratio(), n, z) for c in enumerate_rationals(height_c) for n in periods
            for z in sorted(periodic_points_exact(QuadraticMap(c), n, height_bound=bound), key=search._rat_key)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK_CELLS", cap)
        rows = search._quad_rows(height_c, bound, periods, 1)
    assert _quad_fractions(rows) == want


def test_quad_periodic_points_have_denominator_sqrt_den_c():
    # the window the scan walks for quad maps, checked on the
    # unbounded dynatomic route, which does not use it
    hits = 0
    for c in enumerate_rationals(30):
        e, top = quad_window(*c.as_integer_ratio())
        root = math.isqrt(c.denominator)
        assert e == (root if root * root == c.denominator else 0)
        for n in (1, 2, 3):
            pts = periodic_points_exact(QuadraticMap(c), n)
            assert all(z.denominator == e and abs(z.numerator) <= top for z in pts), (c, n)
            hits += len(pts)
    assert hits > 0


@pytest.mark.parametrize("c, bound, n, want", [
    (F(-3, 4), 2, 1, {F(-1, 2)}),  # sqrt(den(c)) = B: kept
    (F(-29, 16), 3, 3, set()),  # sqrt(den(c)) = B + 1: dropped
    (F(-29, 16), 4, 3, {F(-1, 4)}),  # its cycle-mates 5/4, -7/4 exceed B
])
def test_sieve_keeps_quad_maps_with_sqrt_den_c_up_to_the_bound(c, bound, n, want):
    m = QuadraticMap(c)
    found = _assert_sieve_is_dynatomic([m], ((1, 2, 3), ()), bound)[0]
    assert set(found[n]) == want
    assert set(periodic_points_exact(m, n, height_bound=bound)) == want


def _planted(kind, z, k):
    """A map with z on a cycle, and the cycle's length."""
    if kind == "quad1":
        return QuadraticMap(z - z * z), 1
    if kind == "quad2":  # z -> -z-1 -> z
        return QuadraticMap(-(z * z + z + 1)), 2
    if kind == "kb1":
        return KBMap(k, z * z * (1 - k)), 1
    return KBMap(k, -z * z * (1 + k)), 2  # z -> -z -> z


@st.composite
def _planted_cases(draw):
    kind = draw(st.sampled_from(["quad1", "quad2", "kb1", "kb2", "quad3", "kb4"]))
    if kind == "quad3":
        fam = period3_family(draw(rationals(2, nonzero=True).filter(lambda t: t != -1)))
        m, z, n = QuadraticMap(fam.c), fam.x1, 3
    elif kind == "kb4":
        fam = kb_period4_family(draw(rationals(3).filter(lambda t: t not in (0, 1, -1))))
        m, z, n = KBMap(fam.k, fam.b), fam.points[0], 4
    else:
        h = draw(st.integers(1, 8))
        u, v = draw(st.sampled_from([(s * h, w) for s in (1, -1) for w in range(1, h + 1)]
                                    + [(w, h) for w in range(-h, h + 1)]))
        k = draw(rationals(20, nonzero=True).filter(lambda x: x not in (1, -1)))
        if math.gcd(u, v) != 1 or (kind.startswith("kb") and u == 0):
            u, v = h, 1
        z = F(u, v)
        m, n = _planted(kind, z, k)
        if kind == "quad2" and z == F(-1, 2):
            n = 1
    return m, z, n


@settings(max_examples=40, deadline=None)
@given(_planted_cases(), st.integers(0, 1), _PERIODS)
@example((QuadraticMap(F(0)), F(1), 1), 0, (1,))
@example((QuadraticMap(F(-2)), F(2), 1), 1, (1, 8))
@example((KBMap(F(3), F(-8)), F(2), 1), 0, (1, 7))
def test_sieve_finds_planted_points_of_height_bound(case, shift, periods):
    # the planted point has height exactly B (shift 0) or B + 1 (shift 1)
    m, z, n = case
    bound = height(z) - shift
    if bound < 1:
        return
    periods = tuple(sorted(set(periods) | {n}))
    found = _assert_sieve_is_dynatomic([m], (periods, periods), bound)[0]
    assert (z in found[n]) == (shift == 0)


def _brute_points(curve, bound, vs):
    """{(t, y >= 0)} on the curve for t = u/v in lowest terms with |u| <= bound
    and v in ``vs``: an exact isqrt on every coprime (u, v), no sieve."""
    D = math.lcm(*(a.denominator for a in curve.coefficients()))
    c = [int(a * D) for a in curve.coefficients()]
    out = set()
    for v in vs:
        for u in range(-bound, bound + 1):
            # y^2 = N / (D v^2)^2 at t = u/v
            N = D * sum(a * u ** (4 - i) * v**i for i, a in enumerate(c))
            if math.gcd(u, v) == 1 and N >= 0 and math.isqrt(N) ** 2 == N:
                out.add((F(u, v), F(math.isqrt(N), D * v * v)))
    return out


def _kernel_points(curve, bound, vlo, vhi):
    L, A = curve.integer_form()
    masks = search._square_masks(bound, L, A)
    for m, rows in masks:
        # one row per v mod m, 2B + 1 bits of u, nothing set past them
        assert rows.dtype == np.uint64 and rows.shape == (m, -(-(2 * bound + 1) // 64))
        assert all(int.from_bytes(row.tobytes(), "little") >> (2 * bound + 1) == 0 for row in rows)
    found = search._quartic_chunk(range(vlo, vhi), bound, L, A, masks)
    return {(F(u, v), F(r, L * v * v)) for u, v, r in found}


def _sieve_survivors(curve, bound, vs):
    """Sorted L F(u, v) over the coprime (u, v), |u| <= bound, v in ``vs``,
    whose value is a square mod every modulus of the sieve: what reaches
    the kernel's isqrt."""
    L, A = curve.integer_form()
    squares = {m: {x * x % m for x in range(m)} for m in search._SQUARE_MODULI}
    out = []
    for v in vs:
        for u in range(-bound, bound + 1):
            N = L * sum(a * u ** (4 - i) * v**i for i, a in enumerate(A))
            if math.gcd(u, v) == 1 and all(N % m in sq for m, sq in squares.items()):
                out.append(N)
    return sorted(out)


@pytest.mark.parametrize("bound", [31, 32, 63, 64])
@pytest.mark.parametrize("block", [1, 40])
def test_quartic_kernel_matches_brute_force_across_blocks_and_the_last_word(monkeypatch, bound, block):
    # 2B + 1 is odd: 63 or 1 mod 64 here, so the last mask word holds 63 bits
    # of u or one.  Blocks of 1 or 40 v, bits read 3 words at a time, and
    # ranges of v that start off every modulus's period, so each block ANDs
    # a head, whole periods and a tail.  The sieve only filters, so beside
    # the points, the values that reach isqrt are checked too.
    words = -(-(2 * bound + 1) // 64)
    monkeypatch.setattr(search, "_WORDS", block * words)
    monkeypatch.setattr(search, "_SPAN", 3)
    checked = []
    record = SimpleNamespace(gcd=math.gcd, isqrt=lambda N: checked.append(N) or math.isqrt(N))
    monkeypatch.setattr(search, "math", record)
    start = next(v for v in range(bound // 2, bound) if all(v % m for m in search._SQUARE_MODULI))
    curves = [
        QuarticCurve(F(1), F(0), F(0), F(0), F(2 * bound**2 + 1)),  # t = +-B: the first and last bit
        QuarticCurve(F(1), F(0), F(0), F(0), F(0)),  # every t: a set padding bit would be a point
        QuarticCurve(F(1, 4), F(0), F(-3, 2), F(1), F(9, 4)),
    ]
    for curve in curves:
        for vlo, vhi in ((1, bound + 1), (2, start + 7), (start, bound + 1)):
            checked.clear()
            assert _kernel_points(curve, bound, vlo, vhi) == _brute_points(curve, bound, range(vlo, vhi))
            assert sorted(checked) == _sieve_survivors(curve, bound, range(vlo, vhi))
    assert (F(bound), F(bound**2 + 1)) in _kernel_points(curves[0], bound, 1, 2)


def test_quartic_kernel_matches_brute_force_across_the_old_int64_switch():
    # y^2 = t^4 + 2000001 has t = +-1000 (y = 1000001); a former int64 kernel
    # ran only while this overflow estimate stayed below 2**62
    curve = QuarticCurve(F(1), F(0), F(0), F(0), F(2000001))
    L, A = curve.integer_form()

    def limit(bound):
        return (sum(abs(a) for a in A) + 1) * (bound + 1) ** 4 * L

    below = max(b for b in range(1000, 1300) if limit(b) < 2**62)
    assert limit(below + 1) >= 2**62
    for bound in (below, below + 1):
        for vlo, vhi in ((1, 3), (bound - 1, bound + 1)):
            got = _kernel_points(curve, bound, vlo, vhi)
            assert got == _brute_points(curve, bound, range(vlo, vhi))
            if vlo == 1:
                assert {(F(1000), F(1000001)), (F(-1000), F(1000001))} <= got


def test_quartic_kernel_matches_brute_force_on_rational_coefficients():
    curve = QuarticCurve(F(1, 4), F(0), F(-3, 2), F(1), F(9, 4))
    assert _kernel_points(curve, 40, 1, 40) == _brute_points(curve, 40, range(1, 40))


# a rational whose numerator and denominator have up to 10**e, e in 0..14
COEFFS = st.integers(0, 14).flatmap(
    lambda e: st.builds(F, st.integers(-(10**e), 10**e), st.integers(1, 10**e))
)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(COEFFS.filter(bool), COEFFS, COEFFS, COEFFS, COEFFS),
    st.integers(1, 80),
    st.none() | st.tuples(rationals(80), rationals(10**7)),
)
@example((F(1), F(0), F(0), F(0), F(2882880)), 70, None)  # 64*63*65*11 | a0
@example((F(1, 64), F(1, 63), F(1, 65), F(1, 11), F(1)), 40, None)  # and | L
@example((F(1), F(0), F(0), F(0), F(0)), 9, None)  # every t is a point
@example((F(-3), F(2), F(5), F(0), F(0)), 30, (F(1, 2), F(3)))  # a4 < 0
@example((F(10**14 - 1, 10**14), F(-(10**14)), F(3), F(0), F(1)), 5, (F(-5, 3), F(7, 9)))
# 2B + 1 = 63, 65, 127, 129: the last mask word holds 63 bits or one, and
# the planted t = +-B / v sits in the first or last bit of a row
@example((F(1), F(0), F(0), F(0), F(0)), 31, None)
@example((F(1), F(0), F(0), F(0), F(0)), 32, None)
@example((F(1), F(6), F(7), F(2), F(1)), 63, (F(63, 2), F(5, 4)))
@example((F(-3), F(2), F(5), F(0), F(0)), 64, (F(-64, 7), F(1, 3)))
def test_quartic_search_matches_brute_force(coeffs, bound, plant):
    # plant (t0, y0) on the curve by solving for a0
    if plant is not None:
        t0, y0 = plant
        a0 = y0 * y0 - sum(a * t0 ** (4 - i) for i, a in enumerate(coeffs[:4]))
        coeffs = coeffs[:4] + (a0,)
    curve = QuarticCurve(*coeffs)
    rep = quartic_rational_points(curve, bound)
    pts = sorted(_brute_points(curve, bound, range(1, bound + 1)),
                 key=lambda p: (height(p[0]), p[0].numerator, p[0].denominator))
    assert rep.affine == tuple((t, y) for t, s in pts for y in sorted({-s, s}))
    if plant is not None and height(t0) <= bound:
        assert {(t0, y0), (t0, -y0)} <= set(rep.affine)
    many = quartic_rational_points(curve, bound, workers=3)
    assert json.dumps(many.canonical_dict()) == json.dumps(rep.canonical_dict())


@settings(max_examples=25, deadline=None)
@given(st.tuples(COEFFS.filter(bool), COEFFS, COEFFS, COEFFS, COEFFS), st.integers(1, 70))
# 2B + 1 = 63, 65, 127, 129: the last word holds 63 bits or one; the shift
# -B % m is 0 for m = 63 at B = 63, m = 64 at 64 and m = 65 at 65
@example((F(1), F(6), F(7), F(2), F(1)), 31)
@example((F(1), F(6), F(7), F(2), F(1)), 32)
@example((F(-3), F(2), F(5), F(0), F(1, 7)), 63)
@example((F(1, 4), F(0), F(-3, 2), F(1), F(9, 4)), 64)
@example((F(10**14 - 1, 10**14), F(-(10**14)), F(3), F(0), F(1)), 65)
def test_every_mask_bit_is_the_square_test_of_its_u_and_v(coeffs, bound):
    # row v, bit i of the masks of m says whether L F(i - B, v) is a square
    # mod m, computed here in Python ints for every m, v < m and i < 2B + 1;
    # a wrong shift or a swapped u and v in one modulus shows here even when
    # the AND of all masks hides it
    L, A = QuarticCurve(*coeffs).integer_form()
    masks = search._square_masks(bound, L, A)
    assert [m for m, _ in masks] == list(search._SQUARE_MODULI)
    for m, rows in masks:
        squares = {x * x % m for x in range(m)}
        assert rows.dtype == np.uint64 and rows.shape == (m, -(-(2 * bound + 1) // 64))
        for v, row in enumerate(rows):
            bits = int.from_bytes(row.tobytes(), "little")
            want = sum(1 << i for i in range(2 * bound + 1)
                       if L * sum(a * (i - bound) ** (4 - j) * v**j for j, a in enumerate(A)) % m in squares)
            assert bits == want, (m, v)


def test_residue_tables_are_built_once_per_process(monkeypatch):
    # the curve-free tables serve every curve and bound; the search builds
    # them before it forks, so a pool's workers inherit them.  The int16
    # product c . mono stays below 5 (m-1)^2 < 2^15, where the lookup ends
    for m, mono, square in search._residue_tables():
        assert 5 * (m - 1) ** 2 < 2**15 and mono.dtype == np.int16 and mono.shape == (5, m * m)
        assert len(square) > 5 * (m - 1) ** 2
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    search._residue_tables.cache_clear()
    curves = [QuarticCurve(F(1), F(6), F(7), F(2), F(1)), QuarticCurve(F(1), F(-2), F(-5), F(-2), F(1)),
              QuarticCurve(F(1, 64), F(1, 63), F(1, 65), F(1, 11), F(1))]
    for workers, bound in ((2, 60), (1, 7)):
        for curve in curves:
            quartic_rational_points(curve, bound, workers=workers)
            # built here, not in the two forked workers of the first call
            assert search._residue_tables.cache_info().misses == 1


def test_scan_hits_in_enumeration_order():
    rep = scan_quadratic_periods(3, 50, {1, 2})
    maps = [h["map"] for h in rep.hits]
    # enumeration order of c values is reproducible; hits follow it
    assert maps == sorted(maps, key=maps.index)
    rep2 = scan_quadratic_periods(3, 50, {1, 2})
    assert rep.canonical_dict() == rep2.canonical_dict()


def test_worker_partitioning_is_invisible():
    one = scan_kb_periods(4, 4, 50, {1, 2, 4}, workers=1)
    many = scan_kb_periods(4, 4, 50, {1, 2, 4}, workers=5)
    assert one.canonical_dict() == many.canonical_dict()

    q1 = scan_quadratic_periods(6, 50, {1, 2}, workers=1)
    q8 = scan_quadratic_periods(6, 50, {1, 2}, workers=8)
    assert q1.canonical_dict() == q8.canonical_dict()


def test_intersection_scan_small():
    rep = scan_intersection_bound(4, 50)
    assert rep.hits == ()
    assert rep.scanned_count > 0


def test_intersection_scan_finds_sign_pairs():
    # smallest box containing period-4 KB maps: (3/4, -3/5) and its negative
    rep = scan_intersection_bound(5, 50, workers=2)
    assert len(rep.hits) > 0
    for h in rep.hits:
        assert h["size"] == 4
        k1, b1 = (F(x.split("=")[-1]) for x in h["map1"][3:].split(","))
        k2, b2 = (F(x.split("=")[-1]) for x in h["map2"][3:].split(","))
        assert (k2, b2) == (-k1, -b1)


@functools.lru_cache(maxsize=None)
def _dynatomic_box(bound):
    """Every map of the intersection box, in scan order, and per map its
    points {n: points of height <= 50} by the dynatomic route."""
    cs = list(enumerate_rationals(bound))
    maps = [QuadraticMap(c) for c in cs] + [KBMap(k, b) for k in cs if k for b in cs if b]
    return maps, [{n: periodic_points_exact(m, n, height_bound=50)
                   for n in ((1, 2, 4) if type(m) is KBMap else (1, 2, 3))} for m in maps]


def _pairwise_intersection_scan(bound, height_point):
    """The intersection scan's canonical dict by the former pair loop: every
    two entries at every point, all cycles intersected, bookkeeping sets for
    the pairs seen and the hits reported.  The cycles come from the
    dynatomic route and ``cycle_from`` on every map of the box."""
    maps, points = _dynatomic_box(bound)
    point_index = {}
    for i, m in enumerate(maps):
        for n, pts in points[i].items():
            pts = {z for z in pts if height(z) <= height_point}
            while pts:
                cyc = frozenset(cycle_from(m, min(pts, key=search._rat_key), n))
                pts -= cyc
                for p in cyc:
                    point_index.setdefault(p, []).append((i, cyc))
    hits, pairs_seen, reported = [], set(), set()
    for p in sorted(point_index, key=search._rat_key):
        entries = point_index[p]
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                (i, set_i), (j, set_j) = entries[a], entries[b]
                pairs_seen.add((i, j))
                common = set_i & set_j
                if len(common) >= 3 and (i, j, common) not in reported:
                    reported.add((i, j, common))
                    hits.append({"map1": maps[i].describe(), "map2": maps[j].describe(),
                                 "point": format_rational(p), "size": len(common),
                                 "common": sorted(format_rational(x) for x in common)})
    return {"scan_kind": "intersection", "parameter_box": {"height": bound, "height_point": height_point},
            "hits": hits, "scanned_count": len(pairs_seen)}


def test_intersection_scan_matches_the_pairwise_reference():
    # one point index, and only cycles of 3 or more points intersected, give
    # the pair loop's hits in its order and its count of map pairs
    for bound in (1, 2, 3, 5, 8):
        for height_point in (3, 50):
            want = _pairwise_intersection_scan(bound, height_point)
            for workers in (1, 2):
                assert scan_intersection_bound(bound, height_point, workers=workers).canonical_dict() == want


def _listed_pairs(bound, height_point):
    """The map pairs sharing a cycle point, listed: every map of the scan's
    own rows, every cycle walked through every row's point, and every two
    maps through each point."""
    ks = [r for r in rational_pairs(bound) if r[0]]
    rows = search._quad_rows(bound, height_point, (1, 2, 3), 1) + search._kb_rows(ks, bound, (1, 2, 4), height_point, 1)
    maps_through = {}
    for p, n, zn, zd in rows:
        m = KBMap(F(*p[0]), F(*p[1])) if search._is_kb(p) else QuadraticMap(F(*p))
        for x in cycle_from(m, F(zn, zd), n):
            maps_through.setdefault(x, set()).add(p)
    return {frozenset(pq) for ps in maps_through.values() for pq in itertools.combinations(ps, 2)}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(1, 60))
@example(1, 5)
@example(5, 50)
def test_intersection_count_equals_a_listed_pair_set(bound, height_point):
    # inclusion-exclusion over each map's own points counts each map pair
    # sharing t >= 1 points once, as a set of the listed pairs does
    want = len(_listed_pairs(bound, height_point))
    for workers in (1, 2):
        assert scan_intersection_bound(bound, height_point, workers=workers).scanned_count == want, workers


def test_intersection_index_holds_only_cycles_that_can_make_a_hit(monkeypatch):
    # only two cycles of 3 or more points can share 3, so no shorter cycle
    # enters the point index whose entries the hit loop pairs; the index
    # is a list per point, the subsets counted come from a set per map
    paired = []
    spy = lambda xs, r: (paired.extend(xs) if isinstance(xs, list) else None) or itertools.combinations(xs, r)
    monkeypatch.setattr(search, "itertools", SimpleNamespace(**{**vars(itertools), "combinations": spy}))
    assert scan_intersection_bound(5, 50).hits
    assert paired and all(len(cyc) >= 3 for _, cyc in paired)


def test_quartic_examples():
    curve = QuarticCurve(F(1), F(6), F(7), F(2), F(1))
    rep = quartic_rational_points(curve, 1000)
    assert rep.affine == (
        (F(-1), F(-1)),
        (F(-1), F(1)),
        (F(0), F(-1)),
        (F(0), F(1)),
    )
    assert rep.infinite_points

    curve = QuarticCurve(F(1), F(-2), F(-5), F(-2), F(1))
    rep = quartic_rational_points(curve, 1000)
    assert {(t, y) for t, y in rep.affine} == {
        (F(0), F(1)),
        (F(0), F(-1)),
        (F(-1), F(1)),
        (F(-1), F(-1)),
    }
    assert rep.infinite_points


def test_quartic_symmetry_and_workers():
    curve = QuarticCurve(F(1), F(2), F(7), F(6), F(1))
    rep1 = quartic_rational_points(curve, 500, workers=1)
    rep4 = quartic_rational_points(curve, 500, workers=4)
    assert rep1.canonical_dict() == rep4.canonical_dict()
    # symmetric under y -> -y
    pts = set(rep1.affine)
    assert all((t, -y) in pts for t, y in pts)


def test_quartic_infinity_flag_follows_leading_square():
    rep = quartic_rational_points(QuarticCurve(F(2), F(0), F(0), F(0), F(1)), 20)
    assert not rep.infinite_points
    rep = quartic_rational_points(QuarticCurve(F(4), F(0), F(0), F(0), F(1)), 20)
    assert rep.infinite_points


def test_quartic_rejects_bound_above_mask_limit(monkeypatch):
    # the masks take sum(m) (2B + 1) bits; past 10**6 the search refuses
    # before it builds any
    def no_masks(*args):
        raise AssertionError("masks built")

    monkeypatch.setattr(search, "_square_masks", no_masks)
    curve = QuarticCurve(F(1), F(0), F(0), F(0), F(1))
    for bad in (10**6 + 1, 10**11):
        with pytest.raises(DomainError, match=f"^parameter excluded: bound={bad}$"):
            quartic_rational_points(curve, bad)


def test_quartic_rejects_degenerate_leading_coefficient():
    with pytest.raises(DomainError):
        QuarticCurve(F(0), F(1), F(1), F(1), F(1))


def test_quartic_finds_planted_point():
    # y^2 = t^4 + 9 has (2, 5); plant-and-find guards against vacuous scans
    rep = quartic_rational_points(QuarticCurve(F(1), F(0), F(0), F(0), F(9)), 10)
    assert (F(2), F(5)) in set(rep.affine)
    assert (F(-2), F(5)) in set(rep.affine)


def test_scan_reports_are_pure_functions():
    a = scan_kb_periods(3, 3, 30, {1, 2})
    b = scan_kb_periods(3, 3, 30, {1, 2})
    assert a.canonical_dict() == b.canonical_dict()
    assert a.elapsed >= 0 and "elapsed" not in a.canonical_dict()


def test_step_records_change_no_sieve_input_or_scan_bytes():
    """A map's cached step record is kept off its parameters: maps whose
    record is filled equal fresh maps and give the same int parameters,
    which the KB route finds alike at one and two workers, as the quad
    route does its box."""
    periods = (1, 2, 3, 4)

    def fresh():
        box = [r for r in enumerate_rationals(3) if r != 0]
        return [QuadraticMap(c) for c in enumerate_rationals(12)] + [KBMap(k, b) for k in box for b in box]

    warm = fresh()
    for m in warm:
        exact_period(m, F(1))
    assert all("_record" in vars(m) for m in warm) and warm == fresh()
    params = [_param(m) for m in fresh()]
    assert [_param(m) for m in warm] == params
    kbs = [p for p in params if search._is_kb(p)]
    ks, bs = (list(dict.fromkeys(p[i] for p in kbs)) for i in (0, 1))
    assert [(k, b) for k in ks for b in bs] == kbs
    want = search._kb_rows(ks, 3, periods, 20, 1)
    assert want and search._kb_rows(ks, 3, periods, 20, 2) == want
    want = search._quad_rows(12, 20, periods, 1)
    assert want and search._quad_rows(12, 20, periods, 2) == want
    for scan in (
        lambda w: scan_quadratic_periods(8, 50, (1, 2, 3), workers=w),
        lambda w: scan_kb_periods(3, 3, 50, (1, 2, 4), workers=w),
        lambda w: scan_intersection_bound(3, 50, workers=w),
    ):
        assert json.dumps(scan(2).canonical_dict()) == json.dumps(scan(1).canonical_dict())


def test_rows_of_both_routes_are_reduced_ints_and_format_as_their_maps(monkeypatch):
    # every row that the quad, KB and intersection scans read is (p, n, zn,
    # zd) in ints, z = zn / zd reduced with zd > 0 and of exact period n, and
    # the one formatter gives describe() of the map built from p, at
    # negative and non-integer c, k and b
    rows = []

    def recording(name):
        real = getattr(search, name)
        return lambda *args: rows.extend(got := real(*args)) or got

    for name in ("_quad_rows", "_kb_rows"):
        monkeypatch.setattr(search, name, recording(name))
    assert scan_quadratic_periods(20, 100, (1, 2, 3)).hits and scan_kb_periods(4, 10, 50, (1, 2, 4)).hits
    assert scan_intersection_bound(5, 50).hits
    reduced = lambda r: type(r[0]) is type(r[1]) is int and math.gcd(*r) == 1 and r[1] > 0
    for p, n, zn, zd in rows:
        assert type(n) is int and reduced((zn, zd)), (p, n, zn, zd)
        if type(p[0]) is tuple:
            assert reduced(p[0]) and reduced(p[1]) and p[0][0] != 0 != p[1][0]
            m = KBMap(F(*p[0]), F(*p[1]))
        else:
            assert reduced(p)
            m = QuadraticMap(F(*p))
        assert search._describe(p) == m.describe() and exact_period(m, F(zn, zd)) == n, (p, n, zn, zd)
    negative_fraction = lambda r: r[0] < 0 and r[1] > 1
    kbs = [p for p, *_ in rows if type(p[0]) is tuple]
    assert any(negative_fraction(p) for p, *_ in rows if type(p[0]) is int)  # c
    assert any(negative_fraction(k) for k, _ in kbs) and any(negative_fraction(b) for _, b in kbs)


def test_kb_period_roots_of_kz_plus_1_over_z_hold_for_every_b():
    # z = sqrt(b) t conjugates kz + b/z to sqrt(b) (kt + 1/t), so a rational
    # point z of exact period n of (k, b) gives the nonzero rational root
    # s = z^2 / b of the w = z^2 form of Phi*_n of kz + 1/z, whatever b is.
    # No k of height <= 10 has such a root at n = 3, 5 or 6: no b at all
    # gives it a rational point of those periods.
    def roots(k, n):
        return [s for s in rational_roots_int(_dynatomic_x(KBMap(k, F(1)), n)) if s]

    for n in (3, 5, 6):
        assert [k for k in enumerate_rationals(10) if k != 0 and roots(k, n)] == [], n
    # positive control: kb:k=4/3,b=-10/3 has the 4-cycle 1 -> -2 -> -1 -> 2,
    # so s = 1 / b and 4 / b
    assert {F(-3, 10), F(-6, 5)} <= set(roots(F(4, 3), 4))
    m = KBMap(F(4, 3), F(-10, 3))
    assert {z for z in (F(1), F(2)) if exact_period(m, z) == 4} == {F(1), F(2)}
