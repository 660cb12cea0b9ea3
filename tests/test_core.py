from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ratdyn.core import (
    INFINITY,
    ProjectivePoint,
    count_rationals,
    enumerate_rationals,
    format_point,
    format_rational,
    height,
    normalize_rational,
    parse_point,
    parse_rational,
    rational_pairs,
    rational_sqrt,
)
from ratdyn.errors import DomainError


def test_normalize_examples():
    assert normalize_rational(6, -4) == F(-3, 2)
    assert normalize_rational(0, 5) == F(0, 1)
    assert normalize_rational(101, 40) == F(101, 40)


def test_normalize_zero_denominator():
    with pytest.raises(DomainError, match="division by zero"):
        normalize_rational(1, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(lambda d: d != 0))
def test_normalize_sign_invariance(n, d):
    assert normalize_rational(n, d) == normalize_rational(-n, -d)


def test_height_examples():
    assert height(F(101, 40)) == 101
    assert height(F(-3, 2)) == 3
    assert height(F(0)) == 1


def test_rational_sqrt_examples():
    # 625/49 arises as 1 + k^2 for k = 24/7
    assert F(24, 7) ** 2 + 1 == F(625, 49)
    assert rational_sqrt(F(625, 49)) == F(25, 7)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(-4)) is None


@given(st.fractions(max_denominator=10**4))
def test_sqrt_of_square_roundtrip(r):
    s = rational_sqrt(r * r)
    assert s is not None and s * s == r * r and s >= 0


def test_enumerate_small_sets():
    assert list(enumerate_rationals(1)) == [F(-1), F(0), F(1)]
    two = list(enumerate_rationals(2))
    assert len(two) == 7
    assert set(two) == {F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)}
    assert len(list(enumerate_rationals(3))) == 15


def test_enumerate_order_is_height_then_num_then_den():
    seq = list(enumerate_rationals(3))
    keys = [(height(r), r.numerator, r.denominator) for r in seq]
    assert keys == sorted(keys)


@pytest.mark.parametrize("bound", [1, 2, 7, 25, 50])
def test_enumerate_matches_bruteforce_oracle(bound):
    # independent nested-loop oracle over all (n, d) pairs
    oracle = {
        F(n, d)
        for n in range(-bound, bound + 1)
        for d in range(1, bound + 1)
        if max(abs(F(n, d).numerator), F(n, d).denominator) <= bound
    }
    seq = list(enumerate_rationals(bound))
    assert len(seq) == len(set(seq))  # duplicate-free
    assert set(seq) == oracle
    assert list(rational_pairs(bound)) == [r.as_integer_ratio() for r in seq]
    assert count_rationals(bound) == len(oracle)


def test_parse_format_roundtrip():
    for text in ["0", "1", "-1", "3/2", "-101/40", "7"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("6/4") == F(3, 2)


@pytest.mark.parametrize("bad", ["1.5", "1 /2", "3/-2", "3/0", "", "+3", "1/2/3", "inf"])
def test_parse_rejects_bad_grammar(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


def test_point_canonicalization():
    assert ProjectivePoint(2, -4) == ProjectivePoint(-1, 2)
    assert ProjectivePoint(-3, 0) == INFINITY
    assert INFINITY == ProjectivePoint(1, 0)
    p = ProjectivePoint(6, 4)
    assert (p.x, p.y) == (3, 2)
    # idempotent
    assert ProjectivePoint(p.x, p.y) == p


def test_point_rejects_origin():
    with pytest.raises(DomainError):
        ProjectivePoint(0, 0)


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_point_sign_identification(x, y):
    if x == 0 and y == 0:
        return
    assert ProjectivePoint(x, y) == ProjectivePoint(-x, -y)


def test_point_text_grammar():
    assert parse_point("inf") == INFINITY
    assert format_point(INFINITY) == "inf"
    assert parse_point("-3/2") == ProjectivePoint(-3, 2)
    assert format_point(ProjectivePoint(-3, 2)) == "-3/2"


def _trial_division_totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def test_count_rationals_matches_trial_division_totients():
    # count_rationals sums the totients by a recursion on bound // d; the
    # reference factors each h
    expected, total = {}, 3
    for h in range(2, 10**4 + 1):
        total += 4 * _trial_division_totient(h)
        expected[h] = total
    expected[1] = 3
    for bound in list(range(1, 200)) + [1000, 1200, 4096, 9973, 10**4]:
        assert count_rationals(bound) == expected[bound], bound


def test_count_rationals_pinned_values():
    # values of the former O(bound) totient sieve; 10**6 is the largest
    # height a scan admits
    assert count_rationals(1200) == 1751143
    assert count_rationals(10**4) == 121589943
    assert count_rationals(10**6) == 1215854209567
