import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ratdyn.dynamics import KBMap, QuadraticMap, step

# 2-cycle points {p, -p-1} of z^2 - (p^2+p+1) just below and just above
# 10**150, the former absolute height guard of every orbit walk
GUARD_SIDES = [10**150 - 2, 10**151]


def sample_rationals(rng, count, bound, nonzero=False, exclude=()):
    """Seeded sample of reduced rationals with height <= bound."""
    out = []
    while len(out) < count:
        n = rng.randint(-bound, bound)
        d = rng.randint(1, bound)
        r = Fraction(n, d)
        if max(abs(r.numerator), r.denominator) > bound:
            continue
        if nonzero and r == 0:
            continue
        if r in exclude:
            continue
        out.append(r)
    return out


@pytest.fixture
def rng():
    return random.Random(20110)


def rationals(max_height, nonzero=False):
    """Hypothesis strategy for rationals n/d with |n|, d <= max_height."""
    r = st.builds(Fraction, st.integers(-max_height, max_height), st.integers(1, max_height))
    return r.filter(lambda x: x != 0) if nonzero else r


RANDOM_MAPS = st.one_of(
    st.builds(QuadraticMap, rationals(60)),
    st.builds(KBMap, rationals(60, nonzero=True), rationals(60, nonzero=True)),
)


def step_walk(m, z, max_steps, guard=None):
    """An orbit walk on ``step`` alone, blind to the map's local region:
    the pairs visited from the rational z in order, and the index the last
    step returned to, or None when no repeat came within max_steps points
    (or, with ``guard``, before a point's height passed it)."""
    rec, pair, index = m._record, Fraction(z).as_integer_ratio(), {}
    while len(index) < max_steps:
        index[pair] = len(index)
        if guard is not None and max(abs(pair[0]), pair[1]) > guard:
            break
        pair = step(rec, *pair)
        if pair in index:
            return list(index), index[pair]
    return list(index), None
