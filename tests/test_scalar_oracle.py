"""SymPy as an independent oracle for Q(L) arithmetic and the numbers.

Every value is mapped into SymPy's rational function field through its
ints (a, b, p, e, r), so the oracle shares no arithmetic with feuler.
"""

import random
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

from feuler.frobenius import fe_numbers  # noqa: E402
from feuler.scalar import ONE, ZERO, LambdaRat, _imul, dot, lrat  # noqa: E402
from genutil import (  # noqa: E402
    assert_same, check_canonical, num_coeffs, one_minus_l_pow, r_product, rand_lpoly, rand_lrat,
    times_one_minus_l)

K, L = field("L", QQ)


def sympy_poly(cs):
    return sum((QQ(c.numerator, c.denominator) * L ** i for i, c in enumerate(cs)), K.zero)


def to_sympy(v):
    out = sympy_poly(num_coeffs(v)) / ((1 - L) ** v.e * sympy_poly(v.r))
    # SymPy cancels common factors: a denominator it shortens was unreduced
    assert out.denom.degree() == v.e + len(v.r) - 1, v
    return out


def _power_pair(rng, i):
    # both denominators (1 - L)^e with e <= 8, cycling through four kinds:
    # sums that cancel (1 - L)^k, products where a polynomial numerator
    # carries (1 - L)^k against the other denominator, a polynomial
    # against e > 0, and two unrelated exponents
    e = rng.randint(1, 8)
    # each num / (1 - L)^e goes through the general constructor, which reduces it
    na = rand_lpoly(rng, max_deg=4, zero_ok=False)
    a = LambdaRat(na, one_minus_l_pow(e))
    kind = i % 4
    if kind == 0:
        k = rng.randint(1, e)
        common = times_one_minus_l(rand_lpoly(rng, max_deg=3, zero_ok=False), k)
        nb = [c - d for c, d in zip_longest(common, na, fillvalue=0)]
        return a, LambdaRat(nb, one_minus_l_pow(e))
    if kind == 1:
        k = rng.randint(1, 8)
        nb = times_one_minus_l(rand_lpoly(rng, max_deg=3, zero_ok=False), k)
        return a, LambdaRat(nb)
    if kind == 2:
        return a, LambdaRat(rand_lpoly(rng, max_deg=4))
    return a, LambdaRat(rand_lpoly(rng, max_deg=4), one_minus_l_pow(rng.randint(0, 8)))


def _pair(rng, i):
    # 67 pairs of a value and a nonzero constant (the constant factor
    # path), 67 over one denominator (the equal-denominator path: adding a
    # polynomial keeps a reduced denominator) and 66 plain pairs; past
    # those 200, pairs over powers of (1 - L) (the gcd-free path)
    if i >= 200:
        return _power_pair(rng, i)
    a = rand_lrat(rng, max_deg=3)
    if i % 3 == 0:
        return a, lrat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)))
    if i % 3 == 1:
        return a, a + LambdaRat(rand_lpoly(rng, max_deg=3))
    return a, rand_lrat(rng, max_deg=3)


def test_field_operations_match_sympy():
    rng = random.Random(3017)
    for i in range(320):
        a, b = _pair(rng, i)
        sa, sb = to_sympy(a), to_sympy(b)
        assert to_sympy(a + b) == sa + sb
        assert to_sympy(a - b) == sa - sb
        assert to_sympy(a * b) == sa * sb
        if b:
            assert to_sympy(a / b) == sa / sb
        k = rng.randint(-3, 4) if a else rng.randint(1, 4)
        assert to_sympy(a ** k) == (sa ** k if k >= 0 else (1 / sa) ** -k)


def _dot_operand(rng):
    # a general value, a value over (1 - L)^e, or their product, whose
    # denominator is r (1 - L)^e with r prime to 1 - L
    kind = rng.randrange(3)
    v = rand_lrat(rng, max_deg=3) if kind != 1 else lrat(1)
    if kind:
        e = rng.randint(0, 6)
        v = v * LambdaRat(rand_lpoly(rng, max_deg=3, zero_ok=kind == 1), one_minus_l_pow(e))
    return v


def test_dot_matches_sympy():
    # 100 seeded sums of up to 7 products over mixed denominators, some
    # of them repeated with the opposite weight so that terms cancel
    rng = random.Random(1210)
    for _ in range(100):
        terms = [(rng.randint(-4, 4), _dot_operand(rng), _dot_operand(rng))
                 for _ in range(rng.randint(0, 5))]
        if terms and rng.random() < 0.3:
            w, x, y = rng.choice(terms)
            terms.append((-w, x, y))
        want = sum((w * to_sympy(x) * to_sympy(y) for w, x, y in terms), K.zero)
        assert to_sympy(dot(terms)) == want
    # 60 more whose operands carry three or more distinct r from products of
    # 1 + L, 2 - L, 1 + L^2 and 3 + L, some of them sharing a factor; a
    # third of them end with the term that cancels every r
    for i in range(60):
        terms = [(rng.randint(-4, 4) or 1, _over_r(rng, picks), _dot_operand(rng))
                 for picks in _distinct_r_picks(rng)]
        want = sum((w * to_sympy(x) * to_sympy(y) for w, x, y in terms), K.zero)
        if i % 3 == 0:
            t = LambdaRat(rand_lpoly(rng, max_deg=3), one_minus_l_pow(rng.randint(0, 3)))
            rest = t - sum((w * x * y for w, x, y in terms), lrat(0))
            terms.append((1, rest, lrat(1)))
            want += to_sympy(rest)
            assert want == to_sympy(t)
        assert to_sympy(dot(terms)) == want


def _distinct_r_picks(rng):
    # three to five distinct multisets of up to three factors
    count = rng.randint(3, 5)
    picks = set()
    while len(picks) < count:
        picks.add(tuple(sorted(rng.randrange(4) for _ in range(rng.randint(1, 3)))))
    return sorted(picks)


def _over_r(rng, picks):
    # a numerator that shares no factor with r, over (1 - L)^e * r; the
    # input is built with feuler's own product, the check is SymPy's
    r = r_product(picks)
    while True:
        v = LambdaRat(rand_lpoly(rng, max_deg=3, zero_ok=False),
                      times_one_minus_l(r, rng.randint(0, 3)))
        if v.r == tuple(r):
            return v


def test_sums_over_distinct_r_match_sympy():
    # two-term + over distinct r, sharing a factor or not, is reduced by
    # the same step as dot
    rng = random.Random(1211)
    for _ in range(100):
        a, b = (_over_r(rng, picks) for picks in _distinct_r_picks(rng)[:2])
        assert to_sympy(a + b) == to_sympy(a) + to_sympy(b)
        assert to_sympy(a - b) == to_sympy(a) - to_sympy(b)


def from_sympy(f):
    # rebuilt from SymPy's reduced numerator and denominator
    def poly(p):
        cs = dict(p)
        return [Fraction(int(cs[(i,)].numerator), int(cs[(i,)].denominator))
                if (i,) in cs else 0 for i in range(p.degree() + 1)]
    return LambdaRat(poly(f.numer), poly(f.denom))


def _factors(rng):
    # a product of up to three of 1 + L, 2 - L, 1 + L^2, 3 + L, times
    # (1 - L)^e with e <= 3
    e = rng.randint(0, 3)
    return times_one_minus_l(r_product([rng.randrange(4) for _ in range(rng.randint(0, 3))]), e)


def _scaled(rng, coeffs):
    # coeffs times a rational of either sign
    f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
    return [f * c for c in coeffs]


def test_constructor_cancels_shared_factors_like_sympy():
    # num / den sharing factors, the denominator's content of either sign,
    # a third of the denominators carrying L or L^2; every reduction is
    # _reduce's, checked against SymPy's and against the value rebuilt
    # from SymPy's reduced form
    rng = random.Random(1212)
    for i in range(150):
        shared = _factors(rng)
        num = _imul(_imul(rand_lpoly(rng, max_deg=3, zero_ok=False), shared),
                    _factors(rng))
        den = _imul(_factors(rng), shared)
        if i % 3 == 0:
            den = [0] * rng.randint(1, 2) + den
            if rng.random() < 0.5:
                num = [0] + num
        num, den = _scaled(rng, num), _scaled(rng, den)
        v = LambdaRat(num, den)
        check_canonical(v)
        want = sympy_poly(num) / sympy_poly(den)
        assert to_sympy(v) == want
        assert_same(v, from_sympy(want))
        assert_same(v, LambdaRat(num) / LambdaRat(den))


def test_products_cancel_across_operands_like_sympy():
    # x = A ry (1 - L)^j / (rx (1 - L)^e) and y = B rx (1 - L)^k / (ry (1 - L)^f),
    # j <= f and k <= e: x's numerator cancels y's denominator and y's
    # numerator cancels x's, with rx and ry over disjoint factors so that
    # neither operand cancels on its own
    rng = random.Random(1213)
    for _ in range(150):
        picks = list(range(4))
        rng.shuffle(picks)
        cut = rng.randint(1, 3)
        rx, ry = r_product(picks[:cut]), r_product(picks[cut:])
        e, f = rng.randint(0, 4), rng.randint(0, 4)

        def operand(r_num, k, r_den, d):
            a = rand_lpoly(rng, max_deg=2, zero_ok=False)
            num = times_one_minus_l(_imul(a, r_num), k)
            return LambdaRat(_scaled(rng, num), times_one_minus_l(r_den, d))

        x = operand(ry, rng.randint(0, f), rx, e)
        y = operand(rx, rng.randint(0, e), ry, f)
        xy = x * y
        check_canonical(xy)
        want = to_sympy(x) * to_sympy(y)
        assert to_sympy(xy) == want
        assert_same(xy, y * x)
        assert_same(xy, from_sympy(want))


_WALK_R = ([1], [1, 1], [2, -1], [1, 0, 1])  # 1, 1 + L, 2 - L, 1 + L^2


def _walk_terms(rng):
    # 3 to 8 products over (1 - L)^e * r, r one of _WALK_R and e one of 0,
    # 2, 5 and 9: gaps of 2 or more, so that the walk lifts more than one
    # factor before a fused pass, and most sums repeat an (r, e)
    terms = []
    for _ in range(rng.randint(3, 8)):
        den = times_one_minus_l(rng.choice(_WALK_R), rng.choice((0, 2, 5, 9)))
        x = LambdaRat(rand_lpoly(rng, max_deg=3, zero_ok=False), den)
        y = LambdaRat(rand_lpoly(rng, max_deg=2, zero_ok=False))
        terms.append((rng.randint(-4, 4) or 1, x, y))
    return terms


def _cancelling_pair(rng, r):
    # w * n / ((1 - L)^2 r) and -w * n (1 - L)^3 / ((1 - L)^5 r): equal
    # values over two exponents, so the walk's running sum of this r is
    # zero once it has lifted the first by three factors and added the
    # second
    num = rand_lpoly(rng, max_deg=3, zero_ok=False)
    w = rng.randint(1, 4)
    lo = LambdaRat(num, times_one_minus_l(r, 2))
    hi = LambdaRat(num, times_one_minus_l(r, 5))
    return [(w, lo, ONE), (-w, hi, LambdaRat(one_minus_l_pow(3)))]


def test_horner_walk_matches_sympy_and_the_fold():
    # sums over mixed r and spread, repeated exponents; half of them hold
    # a pair that cancels partway through the walk, which then goes on
    # to a term over (1 - L)^9 and the same r, and a third are repeated
    # with the negated sum appended, so that they cancel at the end
    rng = random.Random(1214)
    for i in range(100):
        terms = _walk_terms(rng)
        if i % 2:
            r = rng.choice(_WALK_R)
            terms += _cancelling_pair(rng, r)
            den = times_one_minus_l(r, 9)
            terms.append((1, LambdaRat(rand_lpoly(rng, max_deg=3, zero_ok=False), den), ONE))
            rng.shuffle(terms)
        want = sum((w * to_sympy(x) * to_sympy(y) for w, x, y in terms), K.zero)
        fold = sum((w * x * y for w, x, y in terms), lrat(0))
        got = dot(terms)
        check_canonical(got)
        assert to_sympy(got) == want
        assert_same(got, fold)
        if i % 3 == 0:
            zero = dot(terms + [(-1, fold, ONE)])
            check_canonical(zero)
            assert_same(zero, ZERO)
    # the pair alone cancels to zero, and so does each r's pair in one sum
    pairs = [t for r in _WALK_R for t in _cancelling_pair(rng, r)]
    assert_same(dot(pairs[:2]), ZERO)
    assert_same(dot(pairs), ZERO)


def test_one_term_reduction_cancels_against_r():
    # (1 + L) n / (1 + L) is n; so is any r (1 - L)^k n over r (1 - L)^e,
    # as a constructed value and as a product, dot's one-term case
    assert_same(LambdaRat([3, 5, 2], [1, 1]), LambdaRat([3, 2]))
    rng = random.Random(1215)
    for _ in range(80):
        r = rng.choice(_WALK_R[1:])
        n = rand_lpoly(rng, max_deg=3, zero_ok=False)
        e = rng.randint(0, 3)
        num = _scaled(rng, times_one_minus_l(_imul(n, r), rng.randint(0, e)))
        den = _scaled(rng, times_one_minus_l(r, e))
        want = sympy_poly(num) / sympy_poly(den)
        v = LambdaRat(num, den)
        check_canonical(v)
        assert v.r == (1,)
        assert to_sympy(v) == want
        assert_same(v, from_sympy(want))
        product = LambdaRat(num) * LambdaRat(1, den)
        check_canonical(product)
        assert_same(product, v)


@pytest.mark.parametrize("c", [3, -4, Fraction(-5, 6), 0, True, lrat(Fraction(7, 2))],
                         ids=["int", "negative", "fraction", "zero", "true", "constant"])
def test_constant_factor_scales_the_content(c):
    # the number on either side; checked against SymPy and against dot's
    # one-term reduction of the same product, a route that does not scale
    # the content directly; zero times anything is zero
    rng = random.Random(1216)
    sc = to_sympy(lrat(c))
    for i in range(60):
        v = rand_lrat(rng, max_deg=3)
        if i % 2:
            v = v * LambdaRat(rand_lpoly(rng, max_deg=2), one_minus_l_pow(rng.randint(0, 4)))
        for got in (v * c, c * v):
            check_canonical(got)
            assert to_sympy(got) == to_sympy(v) * sc
            assert_same(got, dot([(1, v, lrat(c))]))
        if not (v and c):
            assert_same(v * c, ZERO)
            assert_same(c * v, ZERO)
    with pytest.raises(TypeError):
        v * 1.5


def _positive_order_numbers(s: int, n_max: int) -> list:
    # coefficients of t^m/m! in ((e^t - L)/(1 - L))^s
    scale = (1 - L) ** -s
    return [scale * sum((comb(s, j) * (-L) ** (s - j) * j ** m for j in range(s + 1)), K.zero)
            for m in range(n_max + 1)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_numbers_invert_the_generating_series(r):
    n_max = 12
    a = _positive_order_numbers(r, n_max)
    h = [to_sympy(v) for v in fe_numbers(n_max, r)]
    for n in range(n_max + 1):
        total = sum((comb(n, k) * a[n - k] * h[k] for k in range(n + 1)), K.zero)
        assert total == (K.one if n == 0 else K.zero), n


@pytest.mark.parametrize("s", [1, 2])
def test_negative_order_numbers_are_series_coefficients(s):
    n_max = 12
    assert [to_sympy(v) for v in fe_numbers(n_max, -s)] == _positive_order_numbers(s, n_max)
