#!/usr/bin/env python3
"""Exact orbits of the two degree-2 families.

Walks through applying z^2 + c and kz + b/z on P^1(Q), detecting cycles,
reading off exact periods, and the linear-conjugacy helpers.
"""

from fractions import Fraction as F

from ratdyn import (
    INFINITY,
    KBMap,
    ProjectivePoint,
    QuadraticMap,
    exact_period,
    kb_conjugate_equivalent,
    normalize_quadratic,
    orbit,
)


def show_orbit(m, p):
    rep = orbit(m, ProjectivePoint.from_rational(F(p)))
    tail = [str(q.to_rational()) for q in rep.tail]
    cycle = [str(q.to_rational() if not q.is_infinity else "inf") for q in rep.cycle]
    print(f"  {m.describe():28s} start {p!s:>5}: tail={tail} cycle={cycle}")


print("== cycles of z^2 - 13 and its 4-cycle partner ==")
show_orbit(QuadraticMap(F(-13)), 3)
show_orbit(KBMap(F(24, 7), F(-300, 7)), 3)
print("   both orbits pass through 3 and -4, and nothing else is shared.")

print("\n== preperiodic vs periodic vs wandering ==")
show_orbit(QuadraticMap(F(-2)), 0)        # tail (0, -2), then fixed at 2
# 2 lies past the escape radius 1 of z^2, so no step is taken; from 1,
# z^2 - 6 steps once to -5, past its escape radius 3
for m, p in [(QuadraticMap(F(0)), 2), (QuadraticMap(F(-6)), 1)]:
    rep = orbit(m, ProjectivePoint.from_rational(F(p)), max_steps=5)
    print(f"  {m.describe():28s} start {p!s:>5} with a 5-point budget: status={rep.status},",
          [str(q.to_rational()) for q in rep.tail])

print("\n== exact periods ==")
for m, p in [
    (QuadraticMap(F(-7, 4)), F(1, 2)),
    (KBMap(F(4, 3), F(-10, 3)), F(2)),
    (QuadraticMap(F(0)), F(0)),
]:
    print(f"  {m.describe():28s} point {p}: exact period {exact_period(m, p)}")
print(f"  infinity is fixed for every map: {exact_period(KBMap(F(2), F(3)), INFINITY)}")

print("\n== conjugating a general quadratic to z^2 + c ==")
for triple in [(F(1), F(0), F(-13)), (F(2), F(2), F(1)), (F(1), F(-1), F(0))]:
    c = normalize_quadratic(*triple)
    print(f"  {triple[0]}z^2 + {triple[1]}z + {triple[2]}  ->  z^2 + ({c})")

print("\n== KB maps conjugate exactly when k matches and b differs by a square ==")
print("  (5, 3) ~ (5, 12):", kb_conjugate_equivalent(KBMap(F(5), F(3)), KBMap(F(5), F(12))))
print("  (5, 3) ~ (5, 6): ", kb_conjugate_equivalent(KBMap(F(5), F(3)), KBMap(F(5), F(6))))
base, scaled = KBMap(F(4, 3), F(-2, 15)), KBMap(F(4, 3), F(-10, 3))
print("  scaling b by 25 stretches the 4-cycle by 5:")
show_orbit(base, F(1, 5))
show_orbit(scaled, F(1))
