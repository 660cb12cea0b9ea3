import re
from fractions import Fraction as F

import pytest

from ratdyn import simultaneous
from ratdyn.classification import Period3Family, period3_family, period3_tau_cubics, quad_witness
from ratdyn.core import enumerate_rationals
from ratdyn.dynamics import KBMap, QuadraticMap, cycle_from, exact_period
from ratdyn.dynatomic import rational_roots
from ratdyn.errors import DomainError
from ratdyn.simultaneous import (
    SharedMapEntry,
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
from tests.conftest import GUARD_SIDES, sample_rationals


def check_triple(trip):
    assert exact_period(trip.quadratic(), trip.shared_point) == trip.f_period
    assert exact_period(trip.kb(), trip.shared_point) == trip.phi_period


def test_triples_fixed_point_examples():
    t = triples_fixed_point(F(3, 2), 1, F(1))
    assert (t.k, t.b, t.c) == (F(5, 3), F(-3, 2), F(-3, 4))
    t = triples_fixed_point(F(3), 2, F(1, 2))
    assert (t.k, t.b, t.c) == (F(-5, 6), F(-3, 2), F(-6))
    t = triples_fixed_point(F(2), 4, F(2))
    assert (t.k, t.b, t.c) == (F(4, 3), F(-10, 3), F(-2))
    for trip in (t,):
        check_triple(trip)
    with pytest.raises(DomainError, match="parameter excluded: p=0"):
        triples_fixed_point(F(0), 1, F(1))
    with pytest.raises(DomainError):
        triples_fixed_point(F(3), 1, F(-3))  # q = -p excluded


def test_mixed_kb_exclusions_name_the_given_q():
    # the shared rows run at s = -q/p (n = 1) and s = q/p (n = 2); an
    # excluded s is reported as the q that was passed
    for fn in (triples_fixed_point, triples_period2):
        with pytest.raises(DomainError, match=r"^parameter excluded: q=-3/2$"):
            fn(F(3, 2), 1, F(-3, 2))
        with pytest.raises(DomainError, match=r"^parameter excluded: q=3/2$"):
            fn(F(3, 2), 2, F(3, 2))
        with pytest.raises(DomainError, match=r"^parameter excluded: q=0$"):
            fn(F(3, 2), 2, F(0))
        with pytest.raises(DomainError, match=r"^parameter excluded: m=-1$"):
            fn(F(3, 2), 4, F(-1))


# each generator's refusals, in the order it checks its arguments: the first
# failing argument is named, with the value as it was passed
_FAMILIES = maps_with_both_periodic(F(1), F(-1)).families
_REFUSED = [
    (lambda: _FAMILIES[0].map_at(F(1)), "parameter excluded: s=1"),
    (lambda: _FAMILIES[1].map_at(F(0)), "parameter excluded: s=0"),
    (lambda: _FAMILIES[2].map_at(F(-1)), "parameter excluded: s=-1"),
    (lambda: kb_pair_family(7, F(0), F(1), F(1)), "parameter excluded: row=7"),
    (lambda: kb_pair_family(1, F(0), F(1), F(1)), "parameter excluded: p=0"),
    (lambda: kb_pair_family(1, F(2), F(1), F(0)), "parameter excluded: s1=1"),
    (lambda: kb_pair_family(5, F(2), F(2), F(-1)), "parameter excluded: s2=-1"),
    (lambda: kb_pair_family(4, F(2), F(-1), F(1)), "parameter excluded: s2=1"),
    (lambda: two_point_intersection_kb(4, F(0), F(2), F(3)), "parameter excluded: p=0"),
    (lambda: two_point_intersection_kb(0, F(1), F(2), F(3)), "parameter excluded: case=0"),
    (lambda: two_point_intersection_kb(4, F(1), F(2), F(3)), "parameter excluded: case=4"),
    (lambda: two_point_intersection_kb(3, F(1), F(1), F(-1)), "maps coincide up to sign"),
    (lambda: two_point_intersection_kb(2, F(1), F(2), F(-1)), "parameter excluded: s2=-1"),
    (lambda: triples_fixed_point(F(0), 3, F(0)), "parameter excluded: p=0"),
    (lambda: triples_fixed_point(F(2), 3, F(0)), "parameter excluded: n=3"),
    (lambda: triples_period2(F(-1, 2), 3, F(0)), "parameter excluded: p=-1/2"),
    (lambda: triples_period2(F(2), 0, F(1)), "parameter excluded: n=0"),
    (lambda: triples_period3(F(0), 4, 3, F(0)), "parameter excluded: i=4"),
    (lambda: triples_period3(F(0), 1, 3, F(0)), "parameter excluded: tau=0"),
    (lambda: triples_period3(F(1), 1, 3, F(0)), "parameter excluded: n=3"),
    (lambda: triples_period3(F(1), 2, 1, F(1)), "parameter excluded: q=1"),
    (lambda: triples_period3(F(1), 3, 4, F(-1)), "parameter excluded: m=-1"),
    (lambda: two_point_intersection_mixed(F(-1), 2), "parameter excluded: sign=2"),
    (lambda: two_point_intersection_mixed(F(-1), 1), "parameter excluded: p=-1"),
    (lambda: two_point_intersection_period3(F(0), 2, 1, 2), "parameter excluded: sign=2"),
    (lambda: two_point_intersection_period3(F(0), 2, 1, 1), "parameter excluded: (i,j)=(2,1)"),
    (lambda: two_point_intersection_period3(F(0), 1, 2, 1), "parameter excluded: tau=0"),
]


@pytest.mark.parametrize("call,message", _REFUSED,
                         ids=[f"{i}-{m.replace('parameter excluded: ', '')}" for i, (_, m) in enumerate(_REFUSED)])
def test_generator_refusals_name_the_first_bad_argument(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("points,i,j,sign,m", [
    ((F(0), F(1), F(2)), 1, 2, 1, "0"),
    ((F(2), F(2), F(3)), 1, 2, 1, "1"),
    ((F(2), F(3), F(-2)), 1, 3, 1, "-1"),
    ((F(2), F(3), F(2)), 1, 3, -1, "-1"),
])
def test_period3_intersection_refuses_a_degenerate_cycle_ratio(monkeypatch, points, i, j, sign, m):
    # no valid tau gives x_i = 0 or x_i = +-x_j, so the guard is reached
    # through a stand-in family
    monkeypatch.setattr(simultaneous, "period3_family", lambda tau: Period3Family(tau, F(-2), *points))
    with pytest.raises(DomainError, match=f"^parameter excluded: m_tau={m}$"):
        two_point_intersection_period3(F(1), i, j, sign)


def test_triples_period2_examples():
    t = triples_period2(F(1, 2), 1, F(1))
    assert (t.k, t.b, t.c) == (F(3), F(-1, 2), F(-7, 4))
    t = triples_period2(F(1), 2, F(-1))
    assert (t.k, t.b, t.c) == (F(-2), F(1), F(-3))
    t = triples_period2(F(-1), 4, F(3))
    assert (t.k, t.b, t.c) == (F(3, 4), F(-5, 12), F(-1))
    check_triple(t)
    with pytest.raises(DomainError):
        triples_period2(F(-1, 2), 1, F(1))


def test_triples_period3_examples():
    t = triples_period3(F(1), 2, 1, F(16))
    assert (t.k, t.b, t.c) == (F(-15), F(1), F(-29, 16))
    assert t.shared_point == F(-1, 4)
    t = triples_period3(F(1, 2), 1, 2, F(9))
    assert (t.k, t.b, t.c) == (F(8), F(-289, 16), F(-421, 144))
    assert t.shared_point == F(17, 12)
    t = triples_period3(F(-1, 2), 3, 4, F(2))
    assert (t.k, t.b, t.c) == (F(4, 3), F(-5, 96), F(-29, 16))
    check_triple(t)
    with pytest.raises(DomainError):
        triples_period3(F(1), 2, 1, F(1))  # q = 1 excluded


def test_triples_verify_periods_sampled(rng):
    params = sample_rationals(rng, 12, 9, nonzero=True)
    for p in sample_rationals(rng, 8, 9, nonzero=True):
        for n in (1, 2, 4):
            for q in params:
                try:
                    check_triple(triples_fixed_point(p, n, q))
                except DomainError:
                    continue
        if p != F(-1, 2):
            for n in (1, 2, 4):
                for q in params:
                    try:
                        check_triple(triples_period2(p, n, q))
                    except DomainError:
                        continue
    for tau in sample_rationals(rng, 6, 6, exclude=(F(0), F(-1))):
        for i in (1, 2, 3):
            for n in (1, 2, 4):
                for q in params[:4]:
                    try:
                        check_triple(triples_period3(tau, i, n, q))
                    except DomainError:
                        continue


def test_orbit_intersection_examples():
    got = orbit_intersection(QuadraticMap(F(-13)), KBMap(F(24, 7), F(-300, 7)), F(3))
    assert got == {F(3), F(-4)}
    got = orbit_intersection(
        QuadraticMap(F(-301, 144)), KBMap(F(-115, 252), F(31855, 36288)), F(5, 12)
    )
    assert got == {F(5, 12), F(-23, 12)}
    got = orbit_intersection(QuadraticMap(F(-3, 4)), KBMap(F(5, 3), F(-3, 2)), F(3, 2))
    assert got == {F(3, 2)}
    with pytest.raises(DomainError, match="not a common periodic point"):
        orbit_intersection(QuadraticMap(F(0)), KBMap(F(1), F(1)), F(2))


def test_two_point_intersection_mixed():
    t = two_point_intersection_mixed(F(3), 1)
    assert (t.k, t.b, t.c) == (F(24, 7), F(-300, 7), F(-13))
    t = two_point_intersection_mixed(F(3), -1)
    assert (t.k, t.b, t.c) == (F(-24, 7), F(300, 7), F(-13))
    for bad in (F(0), F(-1, 2), F(-1)):
        with pytest.raises(DomainError):
            two_point_intersection_mixed(bad, 1)


def test_two_point_intersection_mixed_size_two(rng):
    for p in sample_rationals(rng, 25, 15, exclude=(F(0), F(-1, 2), F(-1))):
        for sign in (1, -1):
            t = two_point_intersection_mixed(p, sign)
            got = orbit_intersection(t.quadratic(), t.kb(), p)
            assert got == {p, -p - 1}
            assert len(got) == 2


@pytest.mark.parametrize("p", GUARD_SIDES, ids=["below", "above"])
@pytest.mark.parametrize("sign", [1, -1])
def test_two_point_intersection_mixed_on_both_sides_of_old_guard(p, sign):
    p = F(p)
    t = two_point_intersection_mixed(p, sign)
    assert exact_period(t.kb(), p) == 4 and exact_period(t.quadratic(), p) == 2
    assert set(cycle_from(t.kb(), p, 4)) == {p, -p - 1, -p, p + 1}
    assert orbit_intersection(t.quadratic(), t.kb(), p) == {p, -p - 1}


def test_two_point_intersection_period3():
    t = two_point_intersection_period3(F(2), 2, 3, -1)
    assert (t.k, t.b, t.c) == (F(-115, 252), F(31855, 36288), F(-301, 144))
    t = two_point_intersection_period3(F(1), 1, 2, 1)
    got = orbit_intersection(t.quadratic(), t.kb(), t.shared_point)
    assert got == {F(5, 4), F(-1, 4)}


def test_two_point_intersection_period3_cycle_structure(rng):
    # the KB cycle is (x_i, x_i/m, -x_i, -x_i/m)
    from ratdyn.classification import period3_family
    from ratdyn.dynamics import orbit
    from ratdyn.core import ProjectivePoint

    for tau in sample_rationals(rng, 12, 8, exclude=(F(0), F(-1))):
        fam = period3_family(tau)
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            for sign in (1, -1):
                try:
                    t = two_point_intersection_period3(tau, i, j, sign)
                except DomainError:
                    continue
                xi, xj = fam.points[i - 1], fam.points[j - 1]
                m = F(sign) * xi / xj
                rep = orbit(t.kb(), ProjectivePoint.from_rational(xi))
                cyc = [q.to_rational() for q in rep.cycle]
                assert cyc == [xi, xi / m, -xi, -xi / m]
                got = orbit_intersection(t.quadratic(), t.kb(), xi)
                assert got == {xi, xj}


def test_kb_pair_rows():
    q = kb_pair_family(3, F(3, 5), F(2), F(1, 3))
    assert (q.k1, q.b1, q.k2, q.b2) == (F(4, 3), F(-3, 10), F(-3, 4), F(27, 20))
    q = kb_pair_family(1, F(1), F(2), F(3))
    assert (q.k1, q.b1, q.k2, q.b2) == (F(-1), F(2), F(-2), F(3))
    assert exact_period(q.first(), F(1)) == 1 and exact_period(q.second(), F(1)) == 1
    q = kb_pair_family(4, F(1), F(2), F(2))
    assert (q.k1, q.b1, q.k2, q.b2) == (F(-1), F(2), F(1), F(-2))
    assert exact_period(q.first(), F(1)) == 1 and exact_period(q.second(), F(1)) == 2
    with pytest.raises(DomainError):
        kb_pair_family(7, F(1), F(2), F(2))
    with pytest.raises(DomainError):
        kb_pair_family(3, F(1), F(-1), F(2))  # s1 = -1 excluded for period 4


def test_kb_pair_rows_verify_periods(rng):
    ss = sample_rationals(rng, 10, 8, exclude=(F(0), F(1), F(-1)))
    for p in sample_rationals(rng, 6, 8, nonzero=True):
        for row in (1, 2, 3, 4, 5, 6):
            for s1, s2 in zip(ss, reversed(ss)):
                quad = kb_pair_family(row, p, s1, s2)
                assert exact_period(quad.first(), p) == quad.periods[0]
                assert exact_period(quad.second(), p) == quad.periods[1]


def test_fixed_point_rows_have_singleton_intersection(rng):
    # any row with a fixed-point side meets the other orbit only in {p}
    ss = sample_rationals(rng, 8, 8, exclude=(F(0), F(1), F(-1)))
    for p in sample_rationals(rng, 4, 8, nonzero=True):
        for row in (1, 4, 5):
            for s1, s2 in zip(ss, reversed(ss)):
                quad = kb_pair_family(row, p, s1, s2)
                got = orbit_intersection(quad.first(), quad.second(), p)
                assert got == {p}


def test_two_point_intersection_kb_cases(rng):
    q = two_point_intersection_kb(3, F(3, 5), F(2), F(1, 3))
    assert orbit_intersection(q.first(), q.second(), F(3, 5)) == {F(3, 5), F(-3, 5)}
    q = two_point_intersection_kb(1, F(1), F(2), F(3))
    assert (q.k1, q.b1, q.k2, q.b2) == (F(1), F(-2), F(2), F(-3))
    assert orbit_intersection(q.first(), q.second(), F(1)) == {F(1), F(-1)}
    with pytest.raises(DomainError, match="maps coincide up to sign"):
        two_point_intersection_kb(3, F(1), F(2), F(-2))

    ss = sample_rationals(rng, 8, 8, exclude=(F(0), F(1), F(-1)))
    for p in sample_rationals(rng, 4, 8, nonzero=True):
        for case in (1, 2, 3):
            for s1, s2 in zip(ss, reversed(ss)):
                try:
                    quad = two_point_intersection_kb(case, p, s1, s2)
                except DomainError:
                    continue
                got = orbit_intersection(quad.first(), quad.second(), p)
                assert got == {p, -p}


def test_maps_with_both_periodic_finite():
    res = maps_with_both_periodic(F(1), F(2))
    assert not res.infinite
    got = {(e.map.k, e.map.b) for e in res.maps}
    assert got == {
        (F(-5, 3), F(8, 3)),
        (F(5, 3), F(-8, 3)),
        (F(4, 3), F(-10, 3)),
        (F(-4, 3), F(10, 3)),
    }
    # the period-4 entry has the cycle (1, 2, -1, -2)
    m = KBMap(F(-4, 3), F(10, 3))
    assert exact_period(m, F(1)) == 4 and exact_period(m, F(2)) == 4


def test_maps_with_both_periodic_infinite():
    res = maps_with_both_periodic(F(3, 5), F(-3, 5))
    assert res.infinite and len(res.families) == 3
    sample = res.families[2].map_at(F(2))
    assert (sample.k, sample.b) == (F(4, 3), F(-3, 10))
    assert maps_with_both_periodic(F(1), F(1)).infinite
    with pytest.raises(DomainError):
        maps_with_both_periodic(F(0), F(1))


def test_maps_with_both_periodic_families_verify(rng):
    res = maps_with_both_periodic(F(2, 3), F(-2, 3))
    for fam in res.families:
        for s in sample_rationals(rng, 20, 10, exclude=fam.excluded):
            m = fam.map_at(s)
            assert exact_period(m, F(2, 3)) == fam.period
            assert exact_period(m, F(-2, 3)) == fam.period


def test_maps_with_both_periodic_scan_confirms_completeness(rng):
    # desk-scale confirmation: enumerate a (t1, t2) box and check that every
    # map with both values periodic is in the returned list
    from ratdyn.core import enumerate_rationals

    a, b = F(1), F(2)
    res = maps_with_both_periodic(a, b)
    listed = {(e.map.k, e.map.b) for e in res.maps}
    box = [t for t in enumerate_rationals(4) if t != 0]
    found = set()
    for t1 in box:
        for t2 in box:
            m = KBMap(t1, t2)
            if exact_period(m, a) is not None and exact_period(m, b) is not None:
                found.add((t1, t2))
    assert found == {p for p in listed if max(
        abs(p[0].numerator), p[0].denominator, abs(p[1].numerator), p[1].denominator
    ) <= 4}


def test_quadratics_with_periodic_point_examples():
    entries = quadratics_with_periodic_point(F(101, 40))
    assert [(e.c, e.period) for e in entries] == [
        (F(-6161, 1600), 1),
        (F(-15841, 1600), 2),
        (F(-7841, 1600), 3),
    ]
    assert entries[0].cycle == (F(101, 40),)
    assert entries[1].cycle == (F(101, 40), F(-141, 40))
    assert entries[2].cycle == (F(101, 40), F(59, 40), F(-109, 40))

    entries = quadratics_with_periodic_point(F(0))
    assert [(e.c, e.period) for e in entries] == [(F(0), 1), (F(-1), 2)]
    assert entries[1].cycle == (F(0), F(-1))

    entries = quadratics_with_periodic_point(F(1, 2))
    assert entries[0] == entries[0].__class__(F(1, 4), 1, (F(1, 2),))


def test_quadratics_share_point_degenerate_query():
    # q = -1/2: the period-1 and period-2 candidate c values coincide
    entries = quadratics_with_periodic_point(F(-1, 2))
    assert [(e.c, e.period) for e in entries] == [(F(-3, 4), 1)]


def test_quadratics_with_periodic_point_bounded(rng):
    # at most three entries, each verified by iteration
    for q in sample_rationals(rng, 60, 30):
        entries = quadratics_with_periodic_point(q)
        assert len(entries) <= 3
        cs = [e.c for e in entries]
        assert len(cs) == len(set(cs))
        for e in entries:
            assert exact_period(QuadraticMap(e.c), q) == e.period
            assert e.cycle[0] == q and len(e.cycle) == e.period


def _three_cubic_taus(q):
    # every tau outside {0, -1} with x1, x2 or x3 (tau) = q, one Poly cubic each
    return [t for cubic in period3_tau_cubics(q) for t in rational_roots(cubic)
            if t not in (0, -1) and q in period3_family(t).points]


def _three_cubic_entries(q):
    candidates = [(q - q * q, 1), (-(q * q + q + 1), 2)]
    candidates += [(period3_family(t).c, 3) for t in _three_cubic_taus(q)]
    entries, seen = [], set()
    for c, period in candidates:
        m = QuadraticMap(c)
        if c not in seen and exact_period(m, q) == period:
            seen.add(c)
            entries.append(SharedMapEntry(c, period, cycle_from(m, q, period)))
    return entries


def test_x1_cubic_matches_three_cubic_route():
    # sigma(tau) = -1/(tau+1) permutes x1, x2, x3 at fixed c, so the x1 cubic
    # alone gives every c, in the same order
    qs = list(enumerate_rationals(40))
    entries = [quadratics_with_periodic_point(q) for q in qs]
    assert entries == [_three_cubic_entries(q) for q in qs]
    assert (len(qs), sum(map(len, entries))) == (1959, 3928)
    period3 = {e.c: e.cycle for es in entries for e in es if e.period == 3}
    assert period3
    for c, cycle in period3.items():
        taus = [t for q in cycle for t in _three_cubic_taus(q) if period3_family(t).c == c]
        assert quad_witness(c, 3) == min(taus)
