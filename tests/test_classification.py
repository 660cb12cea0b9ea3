from fractions import Fraction as F

import pytest

from ratdyn import classification
from ratdyn.classification import (
    kb_map_with_fixed_and_period2,
    kb_period4_cycle,
    kb_period4_family,
    kb_periodic_points,
    kb_witness,
    period3_family,
    period3_taus,
    quad_period3_cycle,
    quad_periodic_points,
    quad_witness,
)
from ratdyn.dynamics import KBMap, QuadraticMap, apply_map, exact_period
from ratdyn.dynatomic import period4_dynatomic_factors, periodic_points_exact, rational_roots
from ratdyn.core import ProjectivePoint, enumerate_rationals
from ratdyn.errors import DomainError
from ratdyn.simultaneous import quadratics_with_periodic_point, triples_period2
from tests.conftest import sample_rationals


def test_quad_examples():
    assert quad_periodic_points(F(-3, 4), 1) == {F(3, 2), F(-1, 2)}
    assert quad_periodic_points(F(-3), 2) == {F(1), F(-2)}
    assert quad_period3_cycle(F(-29, 16)) == (F(5, 4), F(-1, 4), F(-7, 4))


def test_quad_fixed_point_edge_cases():
    # coinciding fixed point at c = 1/4 is returned once (set semantics)
    assert quad_periodic_points(F(1, 4), 1) == {F(1, 2)}
    # c = -3/4 has sigma = 0: the would-be period-2 point is a fixed point
    assert quad_periodic_points(F(-3, 4), 2) == frozenset()
    assert quad_periodic_points(F(1), 1) == frozenset()


def test_quad_period3_family_examples():
    fam = period3_family(F(1))
    assert fam.c == F(-29, 16)
    assert fam.points == (F(5, 4), F(-1, 4), F(-7, 4))
    fam = period3_family(F(2))
    assert fam.c == F(-301, 144)
    assert fam.points == (F(19, 12), F(5, 12), F(-23, 12))
    fam = period3_family(F(1, 2))
    assert fam.c == F(-421, 144) and fam.x1 == F(17, 12)
    for bad in (F(0), F(-1)):
        with pytest.raises(DomainError, match="parameter excluded"):
            period3_family(bad)


def test_period3_c_is_tau_minus_x1_minus_its_square():
    # x2 = tau - x1 and c = x2 - x1^2, so q = x1(tau) has c = tau - q - q^2,
    # the c of the shared-point oracle and of quad_witness at n = 3: checked
    # against the family's c on the 11 tau of every q of height <= 40 and
    # on q = x1(tau) planted from every tau of height <= 30
    found = [(q, t) for q in enumerate_rationals(40) for t in period3_taus(q)]
    planted = [(period3_family(t).x1, t) for t in enumerate_rationals(30) if t not in (0, -1)]
    assert len(found) == 11
    for q, t in found + planted:
        c = period3_family(t).c
        assert t - q - q * q == c and t in period3_taus(q)
        assert c in {e.c for e in quadratics_with_periodic_point(q) if e.period == 3}
        assert period3_family(quad_witness(c, 3)).c == c


def test_every_row_of_both_tables_keeps_its_point_at_its_period(rng):
    # each row walked by exact_period at sampled points and row parameters,
    # apart from the generators that read it: quad rows 1 and 2 at p, row 3
    # at p = x1(tau) written out here, KB rows 1, 2, 4 at (p, s); then each
    # excluded value, where the row's map or point breaks down, and the
    # message that refuses it
    ps = sample_rationals(rng, 40, 30, nonzero=True) + [F(1), F(-2), F(1, 3)]
    ss = sample_rationals(rng, 40, 30) + [F(2), F(-2), F(1, 2), F(-1, 2)]
    for n, (row, excluded) in classification._QUAD_ROWS.items():
        for t in ps:
            if t in excluded:
                continue
            p = (t**3 + 2 * t**2 + t + 1) / (2 * t * (t + 1)) if n == 3 else t
            assert exact_period(QuadraticMap(row(p, t)), p) == n, (n, t)
    assert classification._QUAD_ROWS[1][1] == ()
    assert classification._QUAD_ROWS[2][1] == (F(-1, 2),)
    assert exact_period(QuadraticMap(classification._quad_row(2, F(-1, 2))), F(-1, 2)) == 1
    with pytest.raises(DomainError, match=r"^parameter excluded: p=-1/2$"):
        triples_period2(F(-1, 2), 1, F(1))
    assert classification._QUAD_ROWS[3][1] == (0, -1)
    for tau in (F(0), F(-1)):  # the poles of x1
        with pytest.raises(DomainError, match=f"^parameter excluded: tau={tau}$"):
            period3_family(tau)

    for n, (_, row, _, _, excluded) in classification._ROWS.items():
        for p in ps:
            for s in ss:
                if s in excluded:
                    continue
                k, b = classification._kb_row(n, p, s, "s")
                assert exact_period(KBMap(k, b), p) == n, (n, p, s)
        for s in excluded:
            try:
                assert 0 in row(F(2), F(s)), (n, s)  # k = 0 or b = 0: no KB map
            except ZeroDivisionError:  # or a pole of the row
                pass
            with pytest.raises(DomainError, match=f"^parameter excluded: s={s}$"):
                classification._kb_row(n, F(2), F(s), "s")
    assert sorted(classification._ROWS) == [1, 2, 4]
    for m in (F(1), F(-1)):  # s = -1/m = -+1
        with pytest.raises(DomainError, match=f"^parameter excluded: m={m}$"):
            kb_period4_family(m)


def test_quad_period3_family_is_cyclically_permuted(rng):
    for tau in sample_rationals(rng, 60, 25, exclude=(F(0), F(-1))):
        fam = period3_family(tau)
        m = QuadraticMap(fam.c)
        x1, x2, x3 = fam.points
        f = lambda z: z * z + fam.c
        assert f(x1) == x2 and f(x2) == x3 and f(x3) == x1


def test_kb_examples():
    assert kb_periodic_points(F(3), F(-1, 2), 1) == {F(1, 2), F(-1, 2)}
    assert kb_periodic_points(F(-5, 6), F(-3, 2), 2) == {F(3), F(-3)}
    assert kb_periodic_points(F(4, 3), F(-10, 3), 4) == {F(2), F(1), F(-2), F(-1)}


def test_kb_degenerate_k_values():
    assert kb_periodic_points(F(1), F(5), 1) == frozenset()
    assert kb_periodic_points(F(-1), F(5), 2) == frozenset()


def test_kb_period4_family_examples():
    fam = kb_period4_family(F(2))
    assert (fam.k, fam.b) == (F(4, 3), F(-2, 15))
    assert fam.points == (F(1, 5), F(-2, 5), F(-1, 5), F(2, 5))
    fam = kb_period4_family(F(3))
    assert (fam.k, fam.b, fam.points[0]) == (F(3, 4), F(-3, 80), F(1, 10))
    with pytest.raises(DomainError, match="parameter excluded"):
        kb_period4_family(F(1))


def test_kb_period4_family_cycle_order(rng):
    for m in sample_rationals(rng, 40, 15, exclude=(F(0), F(1), F(-1))):
        fam = kb_period4_family(m)
        kbm = KBMap(fam.k, fam.b)
        pt = ProjectivePoint.from_rational(fam.points[0])
        for expected in fam.points[1:] + (fam.points[0],):
            pt = apply_map(kbm, pt)
            assert pt.to_rational() == expected


def _kb_period4_by_quartic(k, b):
    # the dynatomic route: rational roots of the quartic factor of Phi*_4
    quartic, _ = period4_dynatomic_factors(k, b)
    return frozenset(r for r in rational_roots(quartic) if exact_period(KBMap(k, b), r) == 4)


def test_kb_period4_closed_form_matches_quartic_roots():
    rats = [r for r in enumerate_rationals(6) if r != 0]
    pairs = [(k, b) for k in rats for b in rats]
    for m in enumerate_rationals(6):
        if m not in (0, 1, -1):
            fam = kb_period4_family(m)
            assert set(fam.points) <= kb_periodic_points(fam.k, fam.b, 4)
            pairs += [(fam.k, fam.b), (fam.k, 4 * fam.b), (-fam.k, fam.b)]
    found = 0
    for k, b in pairs:
        pts = kb_periodic_points(k, b, 4)
        assert pts == _kb_period4_by_quartic(k, b), (k, b)
        found += bool(pts)
    assert found >= 2 * 44  # each family map and its b -> 4b rescaling


def test_kb_fixed_and_period2_examples():
    m = kb_map_with_fixed_and_period2(F(1), F(2))
    assert (m.k, m.b) == (F(-5, 3), F(8, 3))
    # classification identities: b/(1-k) = q1^2 and b/(k+1) = -q2^2
    assert m.b / (1 - m.k) == F(1) and m.b / (m.k + 1) == F(-4)
    m = kb_map_with_fixed_and_period2(F(2), F(1))
    assert (m.k, m.b) == (F(5, 3), F(-8, 3))
    assert m.b / (1 - m.k) == F(4) and m.b / (m.k + 1) == F(-1)
    with pytest.raises(DomainError, match="degenerate pair"):
        kb_map_with_fixed_and_period2(F(1), F(1))
    with pytest.raises(DomainError, match="degenerate pair"):
        kb_map_with_fixed_and_period2(F(2), F(-2))


def test_kb_fixed_and_period2_periods(rng):
    pairs = zip(
        sample_rationals(rng, 25, 12, nonzero=True),
        sample_rationals(rng, 25, 12, nonzero=True),
    )
    for q1, q2 in pairs:
        if q1 * q1 == q2 * q2:
            continue
        m = kb_map_with_fixed_and_period2(q1, q2)
        assert exact_period(m, q1) == 1
        assert exact_period(m, q2) == 2


def test_quad_agrees_with_dynatomic_oracle(rng):
    for c in sample_rationals(rng, 50, 50):
        m = QuadraticMap(c)
        for n in (1, 2, 3):
            assert quad_periodic_points(c, n) == periodic_points_exact(m, n), (c, n)


def test_kb_agrees_with_dynatomic_oracle(rng):
    ks = sample_rationals(rng, 50, 30, nonzero=True)
    bs = sample_rationals(rng, 50, 30, nonzero=True)
    for k, b in zip(ks, bs):
        m = KBMap(k, b)
        for n in (1, 2, 4):
            assert kb_periodic_points(k, b, n) == periodic_points_exact(m, n), (k, b, n)


def test_kb_no_period3(rng):
    ks = sample_rationals(rng, 30, 12, nonzero=True)
    bs = sample_rationals(rng, 30, 12, nonzero=True)
    for k, b in zip(ks, bs):
        assert periodic_points_exact(KBMap(k, b), 3) == frozenset()


def test_witnesses():
    assert quad_witness(F(-3, 4), 1) == F(1)
    assert quad_witness(F(1, 4), 1) == F(0)
    assert quad_witness(F(-3), 2) == F(3, 2)
    tau = quad_witness(F(-29, 16), 3)
    assert tau is not None and period3_family(tau).c == F(-29, 16)
    assert quad_witness(F(5), 1) is None

    assert kb_witness(F(3), F(-1, 2), 1) == F(1, 2)
    assert kb_witness(F(-5, 6), F(-3, 2), 2) == F(3)
    w = kb_witness(F(4, 3), F(-10, 3), 4)
    assert 2 * w / (w * w - 1) == F(4, 3)


@pytest.mark.parametrize("k,b,n,name", [
    (F(0), F(1), 1, "k"), (F(1, 2), F(0), 1, "b"), (F(3), F(0), 2, "b"),
    (F(0), F(1), 2, "k"), (F(0), F(1), 4, "k"), (F(2), F(0), 4, "b"), (F(0), F(0), 1, "k"),
])
def test_kb_witness_refuses_what_kbmap_refuses(k, b, n, name):
    # read off kb_periodic_points, every n refuses k = 0 or b = 0 as KBMap does
    with pytest.raises(DomainError, match=f"^parameter excluded: {name}=0$"):
        kb_witness(k, b, n)


def test_kb_period4_cycle_cycle_order():
    assert kb_period4_cycle(F(4, 3), F(-10, 3)) == (F(2), F(1), F(-2), F(-1))
    assert kb_period4_cycle(F(5), F(1)) is None


def test_period4_excludes_shorter_periods(rng):
    # one map never carries both a period-4 rational point and a rational
    # point of period 1 or 2
    for m in sample_rationals(rng, 25, 10, exclude=(F(0), F(1), F(-1))):
        fam = kb_period4_family(m)
        assert kb_periodic_points(fam.k, fam.b, 1) == frozenset()
        assert kb_periodic_points(fam.k, fam.b, 2) == frozenset()
        for s in sample_rationals(rng, 3, 6, nonzero=True):
            assert kb_periodic_points(fam.k, fam.b * s * s, 1) == frozenset()
            assert kb_periodic_points(fam.k, fam.b * s * s, 2) == frozenset()


def test_square_class_scaling_matches_conjugation(rng):
    # scaling b by s^2 scales every periodic point by s (the point sets are
    # symmetric under negation, so the sign of s is immaterial)
    base_k, base_b = F(4, 3), F(-2, 15)
    base_pts = kb_periodic_points(base_k, base_b, 4)
    for s in sample_rationals(rng, 10, 6, nonzero=True):
        scaled = kb_periodic_points(base_k, base_b * s * s, 4)
        assert scaled == {s * x for x in base_pts}
