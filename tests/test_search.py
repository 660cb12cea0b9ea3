import json
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ratdyn import search
from ratdyn._intpoly import rational_roots_int
from ratdyn.classification import kb_period4_family, period3_family
from ratdyn.core import count_rationals, enumerate_rationals, height
from ratdyn.dynamics import KBMap, QuadraticMap, exact_period, quad_window
from ratdyn.dynatomic import _dynatomic_x, periodic_points_exact
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


def test_worker_errors_name_map_and_period(monkeypatch):
    # each KB point z = +-sqrt(b s) is confirmed by one exact_period call; an
    # error there names the map and the period n of the root s it came from.
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
    monkeypatch.setattr(search, "rational_roots_int", lambda c, bound: sorted(set(real_roots(c, bound)) | {F(-1)}))
    monkeypatch.setattr(search, "exact_period", period)
    assert scan_kb_periods(2, 2, 10, {1, 2}).canonical_dict() == want
    assert {("kb:k=2,b=-1", F(1)), ("kb:k=2,b=-1", F(-1))} <= checked


def test_failed_worker_pool_is_domain_error(monkeypatch):
    class NoFork:
        def Pool(self, processes):
            raise OSError("cannot fork")

    monkeypatch.setattr(search, "get_context", lambda method: NoFork())
    msg = "worker pool failed: cannot fork"
    with pytest.raises(DomainError, match=msg):
        scan_quadratic_periods(3, 10, {1}, workers=2)
    with pytest.raises(DomainError, match=msg):
        scan_intersection_bound(2, 10, workers=2)
    with pytest.raises(DomainError, match=msg):
        quartic_rational_points(QuarticCurve(F(1), F(6), F(7), F(2), F(1)), 20, workers=2)
    # one worker never builds a pool
    assert scan_quadratic_periods(2, 10, {1}, workers=1).hits


# --- the scan routes against the dynatomic route ---------------------------

_PERIODS = st.sets(st.integers(1, 8), min_size=1, max_size=2).map(sorted).map(tuple)


def _assert_sieve_is_dynatomic(maps, periods_of, bound):
    found = search._sieve(maps, periods_of, bound)
    for m, pts in zip(maps, found):
        for n in periods_of[type(m)]:
            want = sorted(periodic_points_exact(m, n, height_bound=bound), key=search._rat_key)
            assert pts[n] == want, (m.describe(), n, bound)
    return found


@settings(max_examples=40, deadline=None)
@given(st.lists(RANDOM_MAPS, min_size=1, max_size=6), _PERIODS, _PERIODS, st.integers(1, 8))
@example([QuadraticMap(F(-13)), KBMap(F(4, 3), F(-10, 3))], (2,), (4,), 1)
@example([KBMap(F(4, 3), F(-10, 3)), QuadraticMap(F(-29, 16))], (3,), (4,), 2)
@example([KBMap(F(-23, 30), F(29, 21))], (1,), (8,), 8)  # square-free Phi*_8, 3 bad primes
def test_sieve_matches_dynatomic_on_mixed_chunks(maps, quad_periods, kb_periods, bound):
    # parameters reach height 60, so the KB roots s = z^2 / b reach height
    # B^2 H(b), far past B; a chunk mixes both families, as the intersection
    # scan's do
    _assert_sieve_is_dynatomic(maps, {QuadraticMap: quad_periods, KBMap: kb_periods}, bound)


# quad maps with a window (den(c) a square) as often as without one
_QUAD_BLOCKS = st.lists(st.builds(QuadraticMap, rationals(60) | st.builds(
    lambda n, e: F(n, e * e), st.integers(-60, 60), st.integers(1, 8))), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(_QUAD_BLOCKS, st.integers(1, 12), _PERIODS, st.sampled_from([1, 8, search._CELLS]))
@example([QuadraticMap(F(-13)), QuadraticMap(F(-29, 16)), QuadraticMap(F(1, 2))], 4, (2, 3), 8)
@example([QuadraticMap(F(-13)), QuadraticMap(F(-3, 2))], 2, (1, 2), 1)  # clipped; no window
@example([QuadraticMap(F(-29, 16)), QuadraticMap(F(-21, 16))], 3, (1, 2, 3), 2**16)  # e > bound
@example([QuadraticMap(F(-29, 16)), QuadraticMap(F(-3, 4))], 8, (7, 8), 8)  # beyond every period
def test_window_walk_gives_the_exact_periods_of_plain_iteration(block, bound, periods, cells):
    # each quad map's window, v = e and |u| <= min(bound, top) in lowest
    # terms: the walk reports (row, u, e, n) for exactly the points whose
    # exact_period n is requested, however the windows are cut into blocks
    # of about ``cells``
    with mock.patch.object(search, "_CELLS", cells):
        got = list(search._window([m.c.as_integer_ratio() for m in block], periods, bound))
    want = []
    for row, m in enumerate(block):
        e, top = quad_window(*m.c.as_integer_ratio())
        if not 0 < e <= bound:
            continue
        w = min(bound, top)
        for u in (u for u in range(-w, w + 1) if math.gcd(u, e) == 1):
            if (n := exact_period(m, F(u, e))) in periods:
                want.append((row, u, e, n))
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
    found = _assert_sieve_is_dynatomic([m], {QuadraticMap: (1, 2, 3)}, bound)[0]
    assert set().union(*found.values()) == want


def test_quad_scan_building_only_kept_maps_keeps_the_box():
    # at B = 3 the prune drops every c whose den(c) is not e^2 with e <= 3;
    # the scan builds no map for those c, yet counts the whole box, finds what
    # the period routes find on every map of the box, and is the same at 1 and
    # 2 workers
    box = [QuadraticMap(c) for c in enumerate_rationals(12)]
    one = scan_quadratic_periods(12, 3, (1, 2, 3), workers=1)
    assert one.scanned_count == len(box) == count_rationals(12)
    assert list(one.hits) == search._map_over(search._periods_chunk, box, 1, (1, 2, 3), 3)
    assert {h["map"] for h in one.hits} >= {"quad:c=-3/4", "quad:c=2/9"}
    two = scan_quadratic_periods(12, 3, (1, 2, 3), workers=2)
    assert json.dumps(two.canonical_dict()) == json.dumps(one.canonical_dict())


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
    found = _assert_sieve_is_dynatomic([m], {QuadraticMap: (1, 2, 3)}, bound)[0]
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
    found = _assert_sieve_is_dynatomic([m], {type(m): periods}, bound)[0]
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
    found = search._quartic_chunk((range(vlo, vhi), bound, L, A, search._square_masks(bound, L, A)))
    return {(F(u, v), F(r, L * v * v)) for u, v, r in found}


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
    record is filled, pickled to two workers or not, sieve as fresh maps do."""
    periods = (1, 2, 3, 4)

    def fresh():
        box = [r for r in enumerate_rationals(3) if r != 0]
        return [QuadraticMap(c) for c in enumerate_rationals(12)] + [KBMap(k, b) for k in box for b in box]

    warm = fresh()
    for m in warm:
        exact_period(m, F(1))
    assert all("_record" in vars(m) for m in warm)
    want = search._map_over(search._periods_chunk, fresh(), 1, periods, 20)
    assert want and search._map_over(search._periods_chunk, warm, 1, periods, 20) == want
    assert search._map_over(search._periods_chunk, warm, 2, periods, 20) == want
    for scan in (
        lambda w: scan_quadratic_periods(8, 50, (1, 2, 3), workers=w),
        lambda w: scan_kb_periods(3, 3, 50, (1, 2, 4), workers=w),
        lambda w: scan_intersection_bound(3, 50, workers=w),
    ):
        assert json.dumps(scan(2).canonical_dict()) == json.dumps(scan(1).canonical_dict())


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
