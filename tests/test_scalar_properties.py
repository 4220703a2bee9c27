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
from feuler.cli import latex_lrat, latex_xpoly  # noqa: E402
from feuler.scalar import (  # noqa: E402
    LAMBDA, ONE, ZERO, LambdaPoly, LambdaRat, _igcd, _imul, _iprim, _iquo, _itrim, _prs_gcd, dot,
    lrat)
from feuler.xpoly import XPoly  # noqa: E402
from genutil import check_canonical, times_one_minus_l  # noqa: E402

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.lists(coeffs, max_size=4).map(LambdaPoly)
nonzero_polys = polys.map(lambda p: p if p.coeffs else LambdaPoly([1]))
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
# p / (r (1 - L)^e) with r from a short list, so that the terms of a sum
# often share r and differ in e
other_dens = st.sampled_from([[1], [1, 1], [2, -1], [1, 0, 1], [3, 1, 1]])
mixed_lrats = st.builds(
    lambda p, r, e: LambdaRat(p, LambdaPoly(times_one_minus_l(r, e))),
    polys, other_dens, st.integers(0, 5))
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


@seeded
@given(lrats, lrats)
def test_denominator_is_primitive_with_positive_lowest_term(a, b):
    for v in (a, a + b, a * b, a - b):
        check_canonical(v)


# p / ((1 - L)^k (1 + L)^i (2 - L)^j): a stored split whose r is 1, a
# single factor or a product of them, next to any power of (1 - L)
def over_split(p, k, i, j):
    den = times_one_minus_l([1], k)
    for factor, times in (([1, 1], i), ([2, -1], j)):
        for _ in range(times):
            den = _imul(den, factor)
    return LambdaRat(p, LambdaPoly(den))


split_lrats = st.builds(over_split, polys, st.integers(0, 4), st.integers(0, 2), st.integers(0, 2))


@seeded
@given(split_lrats, split_lrats, split_lrats, st.integers(-3, 3))
def test_every_operation_stores_the_canonical_split(a, b, c, n):
    outs = [a, a + b, a - b, -a, a * b, a * 3, dot([(2, a, b), (-1, b, c), (3, c, ONE)]),
            LambdaRat(a.num, b.den), LambdaRat(b.den, c.den)]
    if a:
        outs += [a.inverse(), b / a, a ** n, LambdaRat(b.den, a.num)]
    elif n >= 0:
        outs.append(a ** n)
    for v in outs:
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
    v = LambdaRat(p) * b / b
    assert v.is_poly
    assert v == LambdaRat(p) and v.num.coeffs == p.coeffs
    w = (a + f) - a
    assert w == f and w == lrat(f)
    assert hash(w) == hash(f)
    assert {f: "found"}[w] == "found"
    # an XPoly constant finds the dict entry of the LambdaRat it equals,
    # and the other way round
    const = XPoly.const(w)
    assert const == w and hash(const) == hash(w)
    assert {w: "found"}[const] == "found" and {const: "found"}[w] == "found"
    u = LambdaRat(p) * f
    assert u == LambdaRat([c * f for c in p.coeffs])
    assert {XPoly.const(u): "found"}[u] == "found"


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


@seeded
@given(int_polys, st.integers(1, 6))
def test_negative_content_splits_like_floor_division(a, k):
    # a negative lowest term puts a negative content, -1 included (mostly at
    # k = 1), into _iprim's result; it must equal dividing by the content
    sign = -1 if next(v for v in a if v) > 0 else 1
    a = [sign * k * v for v in a]
    g = 0
    for v in a:
        g = gcd(g, v)
    assert _iprim(a) == (-g, [v // -g for v in a])


def pairwise(terms):
    acc = ZERO
    for w, x, y in terms:
        acc = acc + w * x * y
    return acc


# rational points of L; a value with a pole at one skips it
POINTS = (Fraction(7, 11), Fraction(-13, 17), Fraction(19, 5))


def check_dot(terms):
    v = dot(terms)
    assert_same(v, pairwise(terms))
    check_canonical(v)
    assert_same(LambdaRat(v.num, v.den), v)
    # + reduces through the same kernel, so the fold alone would miss a
    # kernel fault; values at points of L in Fraction arithmetic share none
    for t in POINTS:
        try:
            want = sum(w * x.evaluate(t) * y.evaluate(t) for w, x, y in terms)
        except scalar.PoleError:
            continue
        assert v.evaluate(t) == want
    return v


def triples(values):
    # weights zero and negative too; values may be zero
    return st.lists(st.tuples(st.integers(-4, 4), values, values), max_size=6)


@seeded
@given(triples(st.one_of(lrats, power_lrats, mixed_lrats)))
def test_dot_is_the_pairwise_fold(terms):
    check_dot(terms)


@seeded
@given(triples(st.one_of(power_lrats, mixed_lrats)))
def test_dot_cancels_to_zero(terms):
    # the terms, then the same terms negated in reverse order
    v = check_dot(terms + [(-w, x, y) for w, x, y in reversed(terms)])
    assert v is ZERO or (v == ZERO and str(v) == "0")


@seeded
@given(polys, nonzero_polys, st.integers(1, 4), st.integers(0, 4), power_lrats)
def test_dot_strips_a_cancelled_power_of_one_minus_l(n, m, k, extra, f):
    # n / (1 - L)^e + (m (1 - L)^k - n) / (1 - L)^e = m / (1 - L)^(e - k),
    # times f, with the second term split over two weights
    e = k + extra
    rest = [c - d for c, d in zip_longest(times_one_minus_l(m.coeffs, k), n.coeffs, fillvalue=0)]
    a = LambdaRat(n, one_minus_l_pow(e))
    b = LambdaRat(LambdaPoly(rest), one_minus_l_pow(e))
    v = check_dot([(1, a, f), (3, b, f), (-2, b, f)])
    assert_same(v, LambdaRat(m, one_minus_l_pow(e - k)) * f)


def test_dot_of_nothing_is_zero():
    assert dot([]) is ZERO
    assert dot([(0, ONE, ONE), (5, ZERO, LAMBDA), (-1, LAMBDA, ZERO)]) is ZERO


@seeded
@given(triples(power_lrats))
def test_dot_over_powers_of_one_minus_l_runs_no_gcd(terms):
    def no_gcd(a, b):
        raise AssertionError("a polynomial gcd ran over powers of (1 - L)")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_igcd", no_gcd)
        v = dot(terms)
    assert_same(v, check_dot(terms))


# Denominators (1 - L)^e * r with r a product of up to three of these
# factors, repeats allowed: 1 + L, 2 - L, 1 + L^2 and 3 + L.  Distinct r
# of one sum often share a factor, like (1 + L)(2 - L) beside 1 + L, so
# their common denominator is an lcm and not the product.
R_FACTORS = ([1, 1], [2, -1], [1, 0, 1], [3, 1])
r_picks = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(lambda k: tuple(sorted(k)))


def r_product(picks):
    r = [1]
    for i in picks:
        r = _imul(r, R_FACTORS[i])
    return r


def over_r(p, picks, e):
    return LambdaRat(p, LambdaPoly(times_one_minus_l(r_product(picks), e)))


@st.composite
def distinct_r_terms(draw):
    # three to five products whose operands carry distinct r, each next to
    # a polynomial, a value over a power of (1 - L) or another such operand
    terms = []
    for picks in draw(st.lists(r_picks, min_size=3, max_size=5, unique=True)):
        x = draw(st.builds(over_r, nonzero_polys, st.just(picks), st.integers(0, 3)).filter(
            lambda v: scalar._parts(v.q)[1] == tuple(r_product(picks))))
        y = draw(st.one_of(polys.map(LambdaRat), power_lrats, mixed_lrats))
        terms.append((draw(st.integers(-4, 4)), x, y))
    return terms


# three to five terms over products of up to six factors: half the budget
seeded_large = settings(seeded, max_examples=30)


@seeded_large
@given(distinct_r_terms())
def test_dot_over_three_or_more_distinct_r_is_the_pairwise_fold(terms):
    check_dot(terms)


@seeded_large
@given(distinct_r_terms(), polys, st.integers(0, 3))
def test_dot_whose_r_parts_cancel_to_a_polynomial(terms, p, e):
    # the terms plus (t - their sum) for t = p / (1 - L)^e: every r cancels
    t = LambdaRat(p, one_minus_l_pow(e))
    v = check_dot(terms + [(1, t - pairwise(terms), ONE)])
    assert_same(v, t)
    assert len(scalar._parts(v.q)[1]) == 1


def test_dot_puts_distinct_r_over_their_lcm():
    # 1/((1 - L)(1 + L)) + 1/((1 + L)(2 - L)) - 1/(2 - L)
    #   = (2 - 2L + L^2) / ((1 - L)(1 + L)(2 - L)):
    # the factor 1 + L that two of the r share is taken once
    a = over_r([1], (0,), 1)
    b = over_r([1], (0, 1), 0)
    c = over_r([1], (1,), 0)
    v = check_dot([(1, a, ONE), (1, b, ONE), (-1, c, ONE)])
    assert (v.a, v.b, v.p) == (1, 1, (2, -2, 1))
    assert v.q == tuple(_imul(times_one_minus_l([1], 1), r_product((0, 1))))


# ---------------------------------------------------------------------------
# The printers against a reference that walks the Fraction coefficients of
# the .num/.den views, as the plain and LaTeX printers once did.

def ref_lpoly_str(p: LambdaPoly) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = f"{mag}*L"
        else:
            body = f"{mag}*L^{k}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def ref_str(v: LambdaRat) -> str:
    if v.is_poly:
        return ref_lpoly_str(v.num)
    return f"({ref_lpoly_str(v.num)}) / ({ref_lpoly_str(v.den)})"


def ref_embed_str(v: LambdaRat) -> str:
    num = ref_lpoly_str(v.num)
    if v.is_poly:
        return num
    if sum(1 for c in v.num.coeffs if c) == 1:
        return f"{num}/({ref_lpoly_str(v.den)})"
    return f"({num})/({ref_lpoly_str(v.den)})"


def ref_xpoly_str(p: XPoly) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c.is_zero:
            continue
        if c.is_poly and len(c.num.coeffs) == 1 and c.num.coeffs[0] > 0:
            parts.append(f"{c.num.coeffs[0]}*x^{k}")
        else:
            parts.append(f"({ref_embed_str(c)})*x^{k}")
    return " + ".join(parts)


def ref_latex_fraction(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    sign = "-" if fr < 0 else ""
    return f"{sign}\\frac{{{abs(fr.numerator)}}}{{{fr.denominator}}}"


def ref_latex_lpoly(p: LambdaPoly) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = ref_latex_fraction(mag)
        else:
            lam = "\\lambda" if k == 1 else f"\\lambda^{{{k}}}"
            body = lam if mag == 1 else ref_latex_fraction(mag) + lam
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def ref_latex_lrat(v: LambdaRat) -> str:
    if v.is_poly:
        return ref_latex_lpoly(v.num)
    return f"\\frac{{{ref_latex_lpoly(v.num)}}}{{{ref_latex_lpoly(v.den)}}}"


def ref_latex_xpoly(p: XPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c.is_zero:
            continue
        xpow = "" if k == 0 else ("x" if k == 1 else f"x^{{{k}}}")
        body = ref_latex_lrat(c)
        if xpow:
            if c == 1:
                body = xpow
            else:
                if not c.is_poly or len([t for t in c.num.coeffs if t]) > 1:
                    body = f"\\left({body}\\right){xpow}"
                else:
                    body = f"{body}\\,{xpow}"
        parts.append(body)
    return " + ".join(parts)


# units and their negatives, scaled by contents with denominators, over
# general and (1 - L)^e denominators
units = st.sampled_from([ONE, -ONE, LAMBDA, -LAMBDA, LAMBDA ** 3, ONE - LAMBDA])
printed = st.builds(lambda v, f: v * f, st.one_of(lrats, power_lrats, units),
                    st.sampled_from([1, 1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 5)]))
printed_xpolys = st.lists(printed, max_size=4).map(XPoly)


def check_printed(v: LambdaRat):
    assert str(v) == ref_str(v)
    assert v.embed_str() == ref_embed_str(v)
    assert str(LambdaRat(v.num)) == ref_lpoly_str(v.num)
    assert latex_lrat(v) == ref_latex_lrat(v)


@seeded
@given(printed)
def test_scalars_print_like_the_fraction_reference(v):
    check_printed(v)


@seeded
@given(power_lrats, power_lrats)
def test_results_over_powers_of_one_minus_l_print_like_the_reference(a, b):
    for v in (a + b, a * b, a - b):
        check_printed(v)


@seeded
@given(printed_xpolys)
def test_xpolys_print_like_the_fraction_reference(p):
    assert str(p) == ref_xpoly_str(p)
    assert latex_xpoly(p) == ref_latex_xpoly(p)


@seeded
@given(coeffs)
def test_rationals_print_like_the_fraction_reference(f):
    assert latex_lrat(f) == ref_latex_fraction(f)
    assert str(lrat(f)) == str(f)
