"""Property tests of the canonical form of Q(L): equal values are one value.

Examples are drawn by Hypothesis with a derandomized, fixed budget, so a
run always tries the same values and the tier-1 time stays bounded.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from feuler import scalar  # noqa: E402
from feuler.scalar import (  # noqa: E402
    LambdaPoly, LambdaRat, _igcd, _imul, _iprim, _iquo, _itrim, _prs_gcd, lrat)
from feuler.xpoly import XPoly  # noqa: E402
from genutil import times_one_minus_l  # noqa: E402

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.lists(coeffs, max_size=4).map(LambdaPoly)
nonzero_polys = polys.map(lambda p: p if p else LambdaPoly([1]))
lrats = st.builds(LambdaRat, polys, nonzero_polys)
nonzero_lrats = lrats.filter(bool)


def one_minus_l_pow(e):
    return LambdaPoly(times_one_minus_l([1], e))


def times_one_minus_l_pow(p, k):
    return LambdaPoly(times_one_minus_l(p.coeffs, k))


# p (1 - L)^k / (1 - L)^e with k <= 3 and e <= 8, through the general
# constructor: both denominators of an operation on two of these are powers
# of (1 - L), the gcd-free path
power_lrats = st.builds(
    lambda p, k, e: LambdaRat(times_one_minus_l_pow(p, k), one_minus_l_pow(e)),
    polys, st.integers(0, 3), st.integers(0, 8))
xpolys = st.lists(lrats, max_size=4).map(XPoly)
# nonzero int polynomials of degree <= 20, coefficients up to 2^70
int_polys = st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=21).map(_itrim).filter(bool)

seeded = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def assert_same(u, v):
    assert u == v
    assert str(u) == str(v)
    assert hash(u) == hash(v)


def check_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    if a:
        assert a * a.inverse() == 1


@seeded
@given(lrats, lrats, lrats)
def test_field_axioms(a, b, c):
    check_field_axioms(a, b, c)


@seeded
@given(power_lrats, power_lrats, power_lrats)
def test_field_axioms_over_powers_of_one_minus_l(a, b, c):
    check_field_axioms(a, b, c)


@seeded
@given(lrats, lrats)
def test_difference_of_squares_routes_agree(a, b):
    assert_same((a + b) * (a - b), a * a - b * b)


@seeded
@given(lrats, nonzero_lrats)
def test_multiply_then_divide_restores(a, b):
    assert_same((a * b) / b, a)


@seeded
@given(xpolys, lrats)
def test_shift_there_and_back_restores(p, y):
    assert_same(p.shift(y).shift(-y), p)


def check_canonical(v):
    den = v.den.coeffs
    assert all(c.denominator == 1 for c in den)
    g = 0
    for c in den:
        g = gcd(g, c.numerator)
    assert g == 1
    assert next(c for c in den if c) > 0


@seeded
@given(lrats, lrats)
def test_denominator_is_primitive_with_positive_lowest_term(a, b):
    for v in (a, a + b, a * b, a - b):
        check_canonical(v)


@seeded
@given(power_lrats, power_lrats)
def test_powers_of_one_minus_l_stay_canonical(a, b):
    for v in (a, a + b, a * b, a - b):
        check_canonical(v)
        # the general constructor reduces num / den by a gcd; a value the
        # gcd-free path left unreduced would come out different
        assert_same(LambdaRat(v.num, v.den), v)


@seeded
@given(polys, nonzero_polys, st.integers(1, 4), st.integers(0, 4))
def test_cancelling_sum_over_a_power_of_one_minus_l(n, m, k, extra):
    # n / (1 - L)^e + (m (1 - L)^k - n) / (1 - L)^e = m / (1 - L)^(e - k)
    e = k + extra
    rest = [c - d for c, d in zip_longest(times_one_minus_l(m.coeffs, k), n.coeffs, fillvalue=0)]
    a = LambdaRat(n, one_minus_l_pow(e))
    b = LambdaRat(LambdaPoly(rest), one_minus_l_pow(e))
    assert_same(a + b, LambdaRat(m, one_minus_l_pow(e - k)))


@seeded
@given(polys, nonzero_lrats, coeffs, lrats)
def test_polynomials_and_constants_hash_like_their_plain_types(p, b, f, a):
    v = lrat(p) * b / b
    assert v.is_poly
    assert v == p and v.num == p
    assert hash(v) == hash(p)
    w = (a + f) - a
    assert w == f and w == lrat(f)
    assert hash(w) == hash(f) == hash(LambdaPoly([f]))
    assert {f: "found"}[w] == "found"


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(int_polys, int_polys, int_polys)
def test_heuristic_gcd_finds_a_planted_factor_like_prs(a, b, c):
    # operands a*c and b*c, degree up to 40; their gcd holds c
    pa = _iprim(_imul(a, c))[1]
    pb = _iprim(_imul(b, c))[1]
    g = _igcd(pa, pb)
    assert list(g) == list(_prs_gcd(pa, pb))
    assert _iquo(g, _iprim(c)[1]) is not None
    qa, qb = _iquo(pa, g), _iquo(pb, g)
    assert qa is not None and qb is not None
    assert len(_prs_gcd(qa, qb)) == 1


def test_heuristic_gcd_falls_back_to_prs(monkeypatch):
    # no candidate is accepted, so after six points the PRS decides
    monkeypatch.setattr(scalar, "_iquo", lambda a, b: None)
    assert list(scalar._igcd((2, 3, 1), (3, 4, 1))) == [1, 1]
