import dataclasses
import itertools
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from ratdyn import dynamics
from ratdyn.classification import kb_period4_family, period3_family, quad_periodic_points
from ratdyn.core import INFINITY, ProjectivePoint, enumerate_rationals
from ratdyn.dynamics import (
    DEFAULT_MAX_STEPS,
    KBMap,
    QuadraticMap,
    apply_map,
    aut_is_c2,
    cycle_from,
    exact_period,
    kb_conjugate_equivalent,
    normalize_quadratic,
    orbit,
    step,
)
from ratdyn.dynatomic import periodic_points_exact
from ratdyn.errors import DomainError
from ratdyn.simultaneous import two_point_intersection_mixed
from tests.conftest import GUARD_SIDES, RANDOM_MAPS, rationals, sample_rationals, step_walk


def pt(r):
    return ProjectivePoint.from_rational(F(r))


def vals(points):
    return [q.to_rational() for q in points]


def test_apply_examples():
    kb = KBMap(F(24, 7), F(-300, 7))
    assert apply_map(kb, pt(3)).to_rational() == F(-4)
    assert apply_map(kb, ProjectivePoint(0, 1)) == INFINITY
    assert apply_map(QuadraticMap(F(-13)), pt(3)).to_rational() == F(-4)


def test_infinity_fixed_everywhere():
    assert apply_map(QuadraticMap(F(7, 3)), INFINITY) == INFINITY
    assert apply_map(KBMap(F(-2, 5), F(9)), INFINITY) == INFINITY


def test_kb_requires_nonzero_parameters():
    with pytest.raises(DomainError):
        KBMap(F(0), F(1))
    with pytest.raises(DomainError):
        KBMap(F(1), F(0))


def test_aut_predicate():
    assert aut_is_c2(KBMap(F(2), F(3)))
    assert not aut_is_c2(KBMap(F(-1, 2), F(3)))


def test_orbit_examples():
    rep = orbit(QuadraticMap(F(-13)), pt(3), 64)
    assert rep.status == "periodic" and rep.tail == ()
    assert vals(rep.cycle) == [F(3), F(-4)]

    rep = orbit(KBMap(F(24, 7), F(-300, 7)), pt(3), 64)
    assert vals(rep.cycle) == [F(3), F(-4), F(-3), F(4)]

    rep = orbit(QuadraticMap(F(0)), pt(2), 5)
    assert rep.status == "escapes" and rep.cycle == ()
    assert vals(rep.tail) == [F(2)]


def test_orbit_preperiodic_tail_split():
    rep = orbit(QuadraticMap(F(-2)), pt(0), 16)
    assert vals(rep.tail) == [F(0), F(-2)]
    assert vals(rep.cycle) == [F(2)]


def test_orbit_escapes_at_the_first_point_outside_the_region():
    # the tail ends with that point; a start outside is the whole tail
    for m, start, tail in [
        (QuadraticMap(F(0)), F(3), [F(3)]),
        (QuadraticMap(F(1, 2)), F(0), [F(0)]),  # den(c) is not a square
        (QuadraticMap(F(-6)), F(1), [F(1), F(-5)]),  # radius 3
        (KBMap(F(3), F(1)), F(1, 2), [F(1, 2), F(7, 2)]),  # KB radius, |k| > 1
        (KBMap(F(1, 3), F(1)), F(1, 18), [F(1, 18), F(973, 54)]),  # KB K = 18
    ]:
        for steps in (len(tail), 64):
            rep = orbit(m, pt(start), steps)
            assert rep.status == "escapes" and rep.cycle == () and not rep.is_periodic
            assert vals(rep.tail) == tail, (m, start)
        if len(tail) > 1:
            assert orbit(m, pt(start), 1).status == "bound-exceeded"


def test_orbit_bound_exceeded_only_inside_the_region():
    fam = period3_family(F(2))
    m = QuadraticMap(fam.c)
    rep = orbit(m, pt(fam.x1), 2)
    assert rep.status == "bound-exceeded" and rep.cycle == ()
    assert vals(rep.tail) == list(fam.points[:2])
    assert all(_inside(m, q.x, q.y) for q in rep.tail)
    # a cycle of length max_steps closes
    rep = orbit(m, pt(fam.x1), 3)
    assert rep.status == "periodic" and rep.tail == () and vals(rep.cycle) == list(fam.points)
    # infinity is fixed, and a KB map sends 0 to it
    for m in (QuadraticMap(F(1, 2)), QuadraticMap(F(-13)), KBMap(F(3), F(1)), KBMap(F(1, 3), F(1))):
        assert orbit(m, INFINITY, 1) == dynamics.OrbitReport((), (INFINITY,), "periodic")
    for m in (KBMap(F(3), F(1)), KBMap(F(1, 3), F(1)), KBMap(F(2), F(3))):
        assert orbit(m, pt(0), 2) == dynamics.OrbitReport((pt(0),), (INFINITY,), "periodic")
        assert orbit(m, pt(0), 1) == dynamics.OrbitReport((pt(0),), (), "bound-exceeded")


def test_orbit_has_no_height_bound_parameter():
    # the region stops a wandering walk, so orbit takes no height knob
    for bad in (0, -5, 10**6):
        with pytest.raises(TypeError, match="height_bound"):
            orbit(QuadraticMap(F(0)), pt(2), height_bound=bad)


def test_exact_period_examples():
    assert exact_period(QuadraticMap(F(-7, 4)), F(1, 2)) == 2
    assert exact_period(KBMap(F(4, 3), F(-10, 3)), F(2)) == 4
    assert exact_period(QuadraticMap(F(0)), F(0)) == 1
    # preperiodic point with tail has no exact period
    assert exact_period(QuadraticMap(F(-2)), F(0)) is None
    assert exact_period(QuadraticMap(F(0)), F(2)) is None
    # infinity is fixed
    assert exact_period(QuadraticMap(F(5)), INFINITY) == 1


class _Tagged(F):
    """A Fraction subclass, read by its value like any rational."""


@pytest.mark.parametrize("m", [QuadraticMap(F(-29, 16)), QuadraticMap(F(-2)),
                               KBMap(F(4, 3), F(-10, 3)), KBMap(F(24, 7), F(-300, 7))])
def test_exact_period_reads_every_point_type_alike(m):
    # a Fraction, an int, a str, a ProjectivePoint and a Fraction subclass of
    # one value have one period, at infinity too
    starts = list(enumerate_rationals(5)) + [F(-1, 4), F(5, 4), F(-7, 4), F(-4, 3)]
    periods = set()
    for z in starts:
        want = exact_period(m, z)
        forms = [pt(z), str(z), _Tagged(z.numerator, z.denominator)] + ([int(z)] if z.denominator == 1 else [])
        assert [exact_period(m, f) for f in forms] == [want] * len(forms), z
        periods.add(want)
    assert len(periods) > 1
    assert exact_period(m, INFINITY) == exact_period(m, ProjectivePoint(-1, 0)) == 1


def test_period_constant_along_cycle(rng):
    for c in sample_rationals(rng, 10, 8):
        m = QuadraticMap(c)
        for p in sample_rationals(rng, 5, 8):
            n = exact_period(m, p)
            if n is not None:
                img = apply_map(m, ProjectivePoint.from_rational(p))
                assert exact_period(m, img) == n


def test_kb_oddness_automorphism(rng):
    for k, b in zip(
        sample_rationals(rng, 15, 9, nonzero=True),
        sample_rationals(rng, 15, 9, nonzero=True),
    ):
        m = KBMap(k, b)
        for z in sample_rationals(rng, 6, 9, nonzero=True):
            left = apply_map(m, ProjectivePoint.from_rational(-z))
            right = apply_map(m, ProjectivePoint.from_rational(z))
            assert left.to_rational() == -right.to_rational()


def test_normalize_quadratic_examples():
    assert normalize_quadratic(F(1), F(0), F(-13)) == F(-13)
    assert normalize_quadratic(F(2), F(2), F(1)) == F(2)
    assert normalize_quadratic(F(1), F(-1), F(0)) == F(-3, 4)
    with pytest.raises(DomainError, match="not quadratic"):
        normalize_quadratic(F(0), F(1), F(1))


def test_normalize_quadratic_conjugation_identity(rng):
    # oracle: with l(z) = Az + B/2, the identity l(phi(z)) == psi(l(z)) must
    # hold pointwise, so l transports every orbit of phi to an orbit of psi
    for _ in range(20):
        a = sample_rationals(rng, 1, 6, nonzero=True)[0]
        b, c = sample_rationals(rng, 2, 6)
        cprime = normalize_quadratic(a, b, c)
        for z in sample_rationals(rng, 5, 6):
            phi_z = a * z * z + b * z + c
            ell = lambda w: a * w + b / 2
            psi = lambda w: w * w + cprime
            assert ell(phi_z) == psi(ell(z))


def test_kb_conjugate_equivalent_examples():
    assert kb_conjugate_equivalent(KBMap(F(5), F(3)), KBMap(F(5), F(12)))
    assert not kb_conjugate_equivalent(KBMap(F(5), F(3)), KBMap(F(5), F(6)))
    assert not kb_conjugate_equivalent(KBMap(F(1, 2), F(3)), KBMap(F(1, 3), F(3)))


def test_conjugate_equivalent_maps_transport_cycles():
    # z -> s z carries cycles of (k, b) to cycles of (k, b s^2)
    base = KBMap(F(4, 3), F(-2, 15))
    s = F(5)
    scaled = KBMap(base.k, base.b * s * s)
    assert kb_conjugate_equivalent(scaled, base)
    rep = orbit(base, pt(F(1, 5)))
    scaled_cycle = [s * q.to_rational() for q in rep.cycle]
    rep2 = orbit(scaled, ProjectivePoint.from_rational(scaled_cycle[0]))
    assert [q.to_rational() for q in rep2.cycle] == scaled_cycle


def test_orbit_determinism():
    m = KBMap(F(24, 7), F(-300, 7))
    assert orbit(m, pt(3)) == orbit(m, pt(3))


def test_cycle_from_matches_orbit_cycle():
    starts = [
        (QuadraticMap(F(0)), F(1)),
        (QuadraticMap(F(-13)), F(3)),
        (QuadraticMap(F(-13)), F(-4)),
        (QuadraticMap(F(-29, 16)), F(-1, 4)),
        (KBMap(F(24, 7), F(-300, 7)), F(3)),
        (KBMap(F(4, 3), F(-10, 3)), F(-2)),
        (KBMap(F(-1, 3), F(4, 3)), F(1)),
        (KBMap(F(1), F(-2)), F(1)),
    ]
    for m, p in starts:
        rep = orbit(m, pt(p))
        assert rep.is_periodic and not rep.tail
        assert cycle_from(m, p, len(rep.cycle)) == cycle_from(m, p) == tuple(vals(rep.cycle)), (m, p)
        assert len(rep.cycle) == 1 or cycle_from(m, p, len(rep.cycle) - 1) is None
    # preperiodic, escaping, and sent to infinity
    for m, p in [(QuadraticMap(F(-2)), F(0)), (QuadraticMap(F(0)), F(2)), (KBMap(F(2), F(3)), F(0))]:
        assert cycle_from(m, p) is None


@pytest.mark.parametrize("p", GUARD_SIDES, ids=["below", "above"])
def test_quad_two_cycle_on_both_sides_of_old_guard(p):
    p = F(p)
    m = QuadraticMap(-(p * p + p + 1))
    assert exact_period(m, p) == 2 and exact_period(m, -p - 1) == 2
    assert periodic_points_exact(m, 2) == quad_periodic_points(m.c, 2) == {p, -p - 1}


@st.composite
def _map_and_start(draw):
    """A random map, or one with a planted cycle through p, and a start."""
    p = draw(st.one_of(rationals(50), rationals(10**100)).filter(lambda r: r not in (0, -1, F(-1, 2))))
    kind = draw(st.sampled_from(["random", "quad1", "kb1", "quad2", "kb4"]))
    if kind == "random":
        m = draw(RANDOM_MAPS)
    elif kind == "quad1":
        m = QuadraticMap(p - p * p)
    elif kind == "kb1":
        k = draw(rationals(60, nonzero=True).filter(lambda r: r != 1))
        m = KBMap(k, p * p * (1 - k))
    else:
        t = two_point_intersection_mixed(p, draw(st.sampled_from([1, -1])))
        m = t.quadratic() if kind == "quad2" else t.kb()
    return m, draw(st.one_of(st.just(p), rationals(8), rationals(10**100)))


@settings(max_examples=200, deadline=None)
@given(_map_and_start())
def test_step_matches_fraction_arithmetic(case):
    m, p = case
    img = p * p + m.c if isinstance(m, QuadraticMap) else (m.k * p + m.b / p if p else None)
    want = (1, 0) if img is None else (img.numerator, img.denominator)
    assert step(m._record, p.numerator, p.denominator) == want


def _abc(m):
    """A, B, C of a KB map: k = A/C, b = B/C."""
    (kn, kd), (bn, bd) = m.k.as_integer_ratio(), m.b.as_integer_ratio()
    return kn * bd, bn * kd, kd * bd


def _K(m):
    """The global escape bound: d + |n| for z^2 + n/d, else
    max(|B|(C+|B|), |A|(C+|A|))."""
    if isinstance(m, QuadraticMap):
        return m.c.denominator + abs(m.c.numerator)
    A, B, C = _abc(m)
    return max(abs(B) * (C + abs(B)), abs(A) * (C + abs(A)))


def _inside(m, x, y):
    """Whether the finite point x/y (y > 0) lies in m's local region, read
    from m's parameters: y^2 = d and d x^2 <= d |x| y + |n| y^2 for
    z^2 + n/d; height <= K and, when |k| > 1, (|A| - C) x^2 <= |B| y^2 for
    kz + b/z."""
    if isinstance(m, QuadraticMap):
        n, d = m.c.as_integer_ratio()
        return y * y == d and d * x * x <= d * abs(x) * y + abs(n) * y * y
    A, B, C = _abc(m)
    return 0 < y <= _K(m) and abs(x) <= _K(m) and (abs(A) <= C or (abs(A) - C) * x * x <= abs(B) * y * y)


def _passes(m, x, y):
    """Whether the finite point x/y passes the start filter of a KB map,
    read from the valuations of s = x^2 / (y^2 b), k = kn/kd: v_p(s) =
    v_p(kd) at each prime p | kd and v_p(s) <= 0 at each p not dividing
    kn kd, that is kd divides |num(s)| = n exactly and n divides a power of
    kn kd.  A quad map has no filter."""
    if isinstance(m, QuadraticMap):
        return True
    kn, kd = m.k.as_integer_ratio()
    n = abs((F(x, y) ** 2 / m.b).numerator)
    return n > 0 and n % kd == 0 and math.gcd(n // kd, kd) == 1 and pow(kn * kd, n.bit_length(), n) == 0


@settings(max_examples=200, deadline=None)
@given(_map_and_start(), st.integers(1, 6))
@example((QuadraticMap(F(-(10**302 + 10**151 + 1))), F(10**151)), 2)
@example((two_point_intersection_mixed(F(10**151), -1).kb(), F(-(10**151) - 1)), 4)
def test_exact_period_matches_unguarded_orbit(case, steps):
    m, p = case
    pairs, hit = step_walk(m, p, steps)
    want = len(pairs) if hit == 0 else None
    assert exact_period(m, p, max_steps=steps) == want
    if want is not None:
        assert all(_inside(m, x, y) and max(abs(x), y) <= _K(m) for x, y in pairs)


@settings(max_examples=200, deadline=None)
@given(_map_and_start(), st.integers(1, 6))
@example((QuadraticMap(F(-6)), F(1)), 2)
@example((KBMap(F(1, 3), F(1)), F(1, 18)), 6)
@example((KBMap(F(3), F(1)), F(0)), 2)
def test_orbit_escapes_only_where_the_unguarded_walk_never_repeats(case, steps):
    # ``escapes`` only when the last tail point fails ``_inside`` and the
    # region-blind walk sees no repeat; every other report is that walk's
    m, p = case
    rep = orbit(m, pt(p), max_steps=steps)
    pairs, hit = step_walk(m, p, steps)
    got = [(q.x, q.y) for q in rep.tail + rep.cycle]
    inside = [_inside(m, *q) for q in got]
    if rep.status == "escapes":
        assert hit is None and got == pairs[:len(got)] and inside == [True] * (len(got) - 1) + [False]
    elif rep.status == "bound-exceeded":
        assert hit is None and got == pairs and all(inside)
    else:
        assert rep.status == "periodic" and got == pairs and len(rep.tail) == hit


def _planted():
    """(map, point, n): planted cycles of exact period n = 1, 2, 3, 4."""
    fam3, fam4 = period3_family(F(1)), kb_period4_family(F(2))
    return [
        (QuadraticMap(F(-6)), F(3), 1),
        (QuadraticMap(F(-13)), F(3), 2),
        (QuadraticMap(fam3.c), fam3.x1, 3),
        (KBMap(fam4.k, fam4.b), fam4.points[0], 4),
        (KBMap(F(-1, 3), F(4, 3)), F(1), 1),
    ]


def _past_faces(m):
    """Starts just past each face of m's region, as (x, y) pairs."""
    if isinstance(m, QuadraticMap):
        n, d = m.c.as_integer_ratio()
        e = math.isqrt(d)
        top = max(t for t in range(abs(n) + e + 1) if _inside(m, t, e))
        assert _inside(m, -top, e) and not _inside(m, top + 1, e)
        x = next(x for x in itertools.count(top + 1) if math.gcd(x, e) == 1)
        return [(1, e + 1), (x, e), (-x, e)] + ([(1, e - 1)] if e > 1 else [])
    A, B, C = _abc(m)
    K, faces = _K(m), []
    if abs(A) > C:
        x = math.isqrt(abs(B) // (abs(A) - C)) + 1
        faces = [(x, 1), (-x, 1)]
    return faces + [(K + 1, 1), (-K - 1, 1), (1, K + 1)]


def _steps_to_stop(m, x, y, max_steps=DEFAULT_MAX_STEPS):
    """The number of steps ``exact_period`` takes from x/y: none for a start
    that fails the filter, else those of a walk before it closes or meets a
    point outside the region."""
    if not _passes(m, x, y):
        return 0
    seen = set()
    for n in range(1, max_steps + 1):
        if not _inside(m, x, y):
            return n - 1
        seen.add((x, y))
        x, y = step(m._record, x, y)
        if (x, y) in seen:
            return n
    return max_steps


@pytest.mark.parametrize("m, p, n", _planted(), ids=["quad1", "quad2", "quad3", "kb4", "kb1"])
def test_exact_period_contract_edges(m, p, n, monkeypatch):
    assert exact_period(m, p, max_steps=n) == n
    if n > 1:
        assert exact_period(m, p, max_steps=n - 1) is None
    assert all(_inside(m, *q.as_integer_ratio()) for q in cycle_from(m, p, n))
    faces = _past_faces(m)
    for start in [p, F(0), F(1), F(-1), F(2)] + [F(x, y) for x, y in faces]:
        want = exact_period(m, start)
        assert exact_period(m, pt(start)) == want
        if start.denominator == 1:
            assert exact_period(m, int(start)) == want
    assert exact_period(m, INFINITY) == 1
    if isinstance(m, KBMap):
        assert exact_period(m, 0) is None
    # a start past any face takes no step, nor a walk; a walk stops at the
    # first image outside the region, or once it closes
    walked, walks, walk = [], [], dynamics._walk
    monkeypatch.setattr(dynamics, "step", lambda rec, x, y: walked.append((x, y)) or step(rec, x, y))
    monkeypatch.setattr(dynamics, "_walk", lambda rec, pair, s: walks.append(pair) or walk(rec, pair, s))
    assert exact_period(m, p) == n and len(walked) == n and walks == [p.as_integer_ratio()]
    for x, y in faces:
        assert not _inside(m, x, y)
        walked.clear()
        assert exact_period(m, F(x, y)) is None and walked == []
        assert exact_period(m, F(x, y), max_steps=10**6) is None and walked == []
    assert exact_period(m, INFINITY) == 1 and walked == [] and walks == [p.as_integer_ratio()]
    for start in enumerate_rationals(12):
        walked.clear()
        exact_period(m, start)
        assert len(walked) == _steps_to_stop(m, *start.as_integer_ratio())
    # one walk for each start inside the region that passes the KB filter,
    # and none for a start outside it, where ``orbit``, on _walk's own test,
    # stops at the start, or for one that fails the filter, which ``orbit``
    # does not read; every answer is that of the region-blind walk, stopped
    # past K(m)
    starts = list(enumerate_rationals(30))
    walks.clear()
    got = [exact_period(m, z) for z in starts]
    assert walks == [z.as_integer_ratio() for z in starts if _inside(m, *z.as_integer_ratio())
                     and _passes(m, *z.as_integer_ratio())]
    if isinstance(m, KBMap):
        assert 0 < len(walks) < sum(_inside(m, *z.as_integer_ratio()) for z in starts)
    entered = set(walks)
    for z, period in zip(starts, got):
        rep = orbit(m, pt(z))
        stays = rep.status != "escapes" or len(rep.tail) > 1
        assert (z.as_integer_ratio() in entered) == (stays and _passes(m, *z.as_integer_ratio()))
        pairs, hit = step_walk(m, z, DEFAULT_MAX_STEPS, guard=_K(m))
        assert period == (len(pairs) if hit == 0 else None)


def test_exact_period_region_edges(monkeypatch):
    # infinity is fixed: tested before the region, which holds no finite
    # point of z^2 + 1/2 (den(c) is not a square)
    for m in (QuadraticMap(F(1, 2)), QuadraticMap(F(-3, 7)), QuadraticMap(F(5, 8)),
              KBMap(F(3), F(1)), KBMap(F(-5, 2), F(2, 3))):
        assert exact_period(m, INFINITY) == 1
        assert exact_period(m, ProjectivePoint(1, 0), max_steps=1) == 1
    # max_steps is refused before the start is read, at any start
    for m, p in [(QuadraticMap(F(1, 2)), F(1, 3)), (QuadraticMap(F(1, 2)), INFINITY), (KBMap(F(3), F(1)), INFINITY)]:
        with pytest.raises(DomainError, match="^parameter excluded: max_steps=0$"):
            exact_period(m, p, max_steps=0)
    # no walk for infinity, for any finite start of z^2 + 1/2, or for a KB
    # start past the escape radius (|k| > 1)
    walks, walk = [], dynamics._walk
    monkeypatch.setattr(dynamics, "_walk", lambda rec, pair, s: walks.append(pair) or walk(rec, pair, s))
    assert not any(exact_period(QuadraticMap(F(1, 2)), q) for q in enumerate_rationals(20))
    assert exact_period(QuadraticMap(F(1, 2)), INFINITY) == 1 and exact_period(QuadraticMap(F(5, 8)), INFINITY) == 1
    for m in (KBMap(F(3), F(1)), KBMap(F(-5, 2), F(2, 3))):
        A, B, C = _abc(m)
        past = [q for q in enumerate_rationals(20) if (abs(A) - C) * q.numerator**2 > abs(B) * q.denominator**2]
        assert len(past) > 100 and not any(exact_period(m, q) for q in past)
    assert walks == []
    # 0 -> inf -> inf on a KB map, with |k| > 1 and with |k| < 1
    for m in (KBMap(F(3), F(1)), KBMap(F(1, 3), F(1)), KBMap(F(4, 3), F(-2, 15))):
        assert exact_period(m, 0) is None and exact_period(m, F(0)) is None
        assert exact_period(m, ProjectivePoint(0, 1)) is None
    # max_steps below the period
    fam3, fam4 = period3_family(F(2)), kb_period4_family(F(3))
    for m, p, n in [(QuadraticMap(fam3.c), fam3.x2, 3), (KBMap(fam4.k, fam4.b), fam4.points[1], 4)]:
        assert [exact_period(m, p, max_steps=s) for s in range(1, n + 2)] == [None] * (n - 1) + [n, n]
    # Fraction, int and ProjectivePoint starts agree
    for m in (QuadraticMap(F(-6)), QuadraticMap(F(-3, 4)), KBMap(F(3), F(-8)), KBMap(F(-1, 3), F(4, 3))):
        for z in range(-8, 9):
            want = exact_period(m, F(z))
            assert exact_period(m, z) == want and exact_period(m, pt(z)) == want
    assert exact_period(KBMap(F(3), F(-8)), 2) == 1 and exact_period(QuadraticMap(F(-3, 4)), F(3, 2)) == 1
    # one step from a start inside the region to an image outside each face
    walked = []
    monkeypatch.setattr(dynamics, "step", lambda rec, x, y: walked.append((x, y)) or step(rec, x, y))
    for m, z, image in [
        (QuadraticMap(F(-13)), F(2), F(-9)),  # quad radius
        (KBMap(F(3), F(1)), F(1, 2), F(7, 2)),  # KB radius, |k| > 1
        (KBMap(F(1, 3), F(3)), F(3, 11), F(122, 11)),  # KB K = 108, |k| < 1
    ]:
        walked.clear()
        x, y = z.as_integer_ratio()
        assert _inside(m, x, y) and _passes(m, x, y) and not _inside(m, *image.as_integer_ratio())
        assert step(m._record, x, y) == image.as_integer_ratio()
        assert exact_period(m, z) is None and walked == [(x, y)]


@st.composite
def _planted_cycle(draw):
    """(map, cycle points, n) from a cycle family, the 2-cycle past the
    former height guard, or ``periodic_points_exact`` on a random map."""
    kind = draw(st.sampled_from(["tau3", "kb4", "guard", "random"]))
    if kind == "tau3":
        fam = period3_family(draw(rationals(2**64).filter(lambda t: t not in (0, -1))))
        return QuadraticMap(fam.c), fam.points, 3
    if kind == "kb4":
        fam = kb_period4_family(draw(rationals(2**64).filter(lambda t: t not in (0, 1, -1))))
        return KBMap(fam.k, fam.b), fam.points, 4
    if kind == "guard":
        p = F(10**151)
        return QuadraticMap(-(p * p + p + 1)), (p, -p - 1), 2
    m, n = draw(RANDOM_MAPS), draw(st.integers(1, 4))
    return m, sorted(periodic_points_exact(m, n)), n


@settings(max_examples=150, deadline=None)
@given(_planted_cycle())
def test_planted_cycles_lie_inside_the_region(case):
    m, points, n = case
    for z in points:
        assert _inside(m, *z.as_integer_ratio())
        assert exact_period(m, z) == n


@st.composite
def _kb_cycle(draw):
    """(map, cycle points, n): a planted KB fixed point (b = z^2 (1 - k)) or
    2-cycle {z, -z} (b = -z^2 (k + 1)), a ``kb_period4_family`` cycle scaled
    by z (b -> z^2 b), or ``periodic_points_exact`` on a random KB map."""
    kind = draw(st.sampled_from(["fixed", "two", "four", "random"]))
    big = rationals(2**64, nonzero=True)
    if kind == "random":
        m = draw(RANDOM_MAPS.filter(lambda m: isinstance(m, KBMap)))
        n = draw(st.sampled_from([1, 2, 4]))
        return m, sorted(periodic_points_exact(m, n)), n
    z = draw(big)
    if kind == "fixed":
        k = draw(big.filter(lambda k: k != 1))
        return KBMap(k, z * z * (1 - k)), (z,), 1
    if kind == "two":
        k = draw(big.filter(lambda k: k != -1))
        return KBMap(k, -z * z * (k + 1)), (z, -z), 2
    fam = kb_period4_family(draw(big.filter(lambda t: t not in (1, -1))))
    return KBMap(fam.k, fam.b * z * z), tuple(z * x for x in fam.points), 4


@settings(max_examples=300, deadline=None)
@given(_kb_cycle())
@example((KBMap(F(4, 3), F(-10, 3)), (F(1), F(-2), F(-1), F(2)), 4))
def test_kb_filter_keeps_every_periodic_point(case):
    m, points, n = case
    for z in points:
        assert _passes(m, *z.as_integer_ratio())
        assert exact_period(m, z) == n


def test_kb_filter_is_read_by_exact_period_alone(monkeypatch):
    # -5/4 fails the filter of kz + b/z at k = 4/3, b = -10/3, yet maps to 1
    # on the 4-cycle 1 -> -2 -> -1 -> 2: exact_period rejects it without a
    # walk, while orbit and cycle_from walk it as before
    walks, walk = [], dynamics._walk
    monkeypatch.setattr(dynamics, "_walk", lambda rec, pair, s: walks.append(pair) or walk(rec, pair, s))
    m = KBMap(F(4, 3), F(-10, 3))
    assert _inside(m, -5, 4) and not _passes(m, -5, 4)
    assert exact_period(m, F(-5, 4)) is None and exact_period(m, pt(F(-5, 4))) is None and walks == []
    rep = orbit(m, pt(F(-5, 4)))
    assert rep.status == "periodic" and vals(rep.tail) == [F(-5, 4)] and vals(rep.cycle) == [1, -2, -1, 2]
    assert cycle_from(m, F(-5, 4)) is None and walks == [(-5, 4), (-5, 4)]
    # on k = 1/3, b = 1 no start passes (|num(s)| = x^2 is never 3), so
    # 1/18, one step from leaving K(m) = 18, is rejected at the start
    m, walks[:] = KBMap(F(1, 3), F(1)), []
    assert not any(_passes(m, *z.as_integer_ratio()) for z in enumerate_rationals(30))
    assert exact_period(m, F(1, 18)) is None and walks == []
    assert vals(orbit(m, pt(F(1, 18))).tail) == [F(1, 18), F(973, 54)]


def test_kb_census_walks_only_the_starts_that_pass_the_filter(monkeypatch):
    # the KB half of the orbit census: the m 4-cycle family for H(m) <= 3
    # and two worked examples, every start of height <= 30
    maps = [KBMap(F(4, 3), F(-10, 3)), KBMap(F(5, 3), F(-3, 2))]
    for t in enumerate_rationals(3):
        if t not in (0, 1, -1):
            fam = kb_period4_family(t)
            maps.append(KBMap(fam.k, fam.b))
    starts = list(enumerate_rationals(30))
    walks, walk = [], dynamics._walk
    monkeypatch.setattr(dynamics, "_walk", lambda rec, pair, s: walks.append(pair) or walk(rec, pair, s))
    got = [exact_period(m, z) for m in maps for z in starts]
    inside = [(m, z.as_integer_ratio()) for m in maps for z in starts if _inside(m, *z.as_integer_ratio())]
    passing = [pair for m, pair in inside if _passes(m, *pair)]
    assert len(got) == 15554 and len(inside) == 9588
    assert walks == passing and len(walks) == 326
    for m in maps:
        want = {n: set(periodic_points_exact(m, n, height_bound=30)) for n in (1, 2, 4)}
        assert want == {n: {z for z in starts if exact_period(m, z) == n} for n in (1, 2, 4)}


def _k_walk(m, z, max_steps):
    """exact_period in Fraction arithmetic, stopping only past K; None
    stands for infinity."""
    image = (lambda w: w * w + m.c) if isinstance(m, QuadraticMap) else (lambda w: m.k * w + m.b / w if w else None)
    seen, w = [], z
    for n in range(1, max_steps + 1):
        if w is not None and max(abs(w.numerator), w.denominator) > _K(m):
            return None
        seen.append(w)
        w = None if w is None else image(w)
        if w in seen:
            return n if w == z else None
    return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(_map_and_start(), st.tuples(RANDOM_MAPS, rationals(2**200))), st.integers(1, 8))
@example((KBMap(F(3), F(1)), F(0)), 8)
@example((QuadraticMap(F(1, 2)), F(1, 3)), 8)
def test_exact_period_matches_a_k_only_walk(case, steps):
    m, z = case
    assert exact_period(m, z, max_steps=steps) == _k_walk(m, z, steps)


@settings(max_examples=200, deadline=None)
@given(_map_and_start().filter(lambda case: isinstance(case[0], KBMap)),
       st.sampled_from([1, 2, 3, 4, 8, DEFAULT_MAX_STEPS]))
@example((KBMap(F(4, 3), F(-10, 3)), F(2)), 4)  # the 4-cycle 1 -> -2 -> -1 -> 2
@example((KBMap(F(4, 3), F(-10, 3)), F(2)), 3)
@example((KBMap(F(3), F(1)), F(0)), 8)
def test_kb_exact_period_and_cycles_are_odd(case, steps):
    # phi(-z) = -phi(z) and the region is symmetric in x -> -x, so -z has
    # the exact period of z and the negated cycle: a KB scan confirms one
    # of +-z and keeps both
    m, z = case
    assert exact_period(m, -z, max_steps=steps) == exact_period(m, z, max_steps=steps)
    cycle = cycle_from(m, z, steps)
    assert cycle_from(m, -z, steps) == (None if cycle is None else tuple(-x for x in cycle))


@pytest.mark.parametrize("make", [lambda: QuadraticMap(F(-29, 16)), lambda: KBMap(F(4, 3), F(-10, 3))])
def test_step_record_is_invisible(make):
    m = make()
    seen = lambda m: (m, hash(m), repr(m), m.describe(), dataclasses.fields(m))
    before, cold = seen(m), pickle.loads(pickle.dumps(m))
    starts = list(enumerate_rationals(12)) + [INFINITY]
    answers = [exact_period(m, p) for p in starts]
    assert "_record" in vars(m) and "_record" not in vars(cold)
    assert seen(m) == before and seen(make()) == before
    warm = pickle.loads(pickle.dumps(m))
    for other in (cold, warm):
        assert seen(other) == before
        assert [exact_period(other, p) for p in starts] == answers
