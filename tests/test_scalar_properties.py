"""Property tests of the canonical form of Q(L): equal values are one value.

Examples are drawn by Hypothesis with a derandomized, fixed budget, so a
run always tries the same values and the tier-1 time stays bounded.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from feuler.scalar import LambdaPoly, LambdaRat, lrat  # noqa: E402
from feuler.xpoly import XPoly  # noqa: E402

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.lists(coeffs, max_size=4).map(LambdaPoly)
nonzero_polys = polys.map(lambda p: p if p else LambdaPoly([1]))
lrats = st.builds(LambdaRat, polys, nonzero_polys)
nonzero_lrats = lrats.filter(bool)
xpolys = st.lists(lrats, max_size=4).map(XPoly)

seeded = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def assert_same(u, v):
    assert u == v
    assert str(u) == str(v)
    assert hash(u) == hash(v)


@seeded
@given(lrats, lrats, lrats)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    if a:
        assert a * a.inverse() == 1


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


@seeded
@given(lrats, lrats)
def test_denominator_is_primitive_with_positive_lowest_term(a, b):
    for v in (a, a + b, a * b, a - b):
        den = v.den.coeffs
        assert all(c.denominator == 1 for c in den)
        g = 0
        for c in den:
            g = gcd(g, c.numerator)
        assert g == 1
        assert next(c for c in den if c) > 0


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
