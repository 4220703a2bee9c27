"""Polynomials in x over Q(L): arithmetic, shift, dilation, printing."""

import pickle
import random
from fractions import Fraction

from feuler.frobenius import fe_poly
from feuler.scalar import LAMBDA, NEG_INF, ONE, LambdaRat
from feuler.xpoly import X, XPoly

from genutil import rand_lrat, rand_xpoly

L = LAMBDA


def test_canonical_string():
    h1 = LambdaRat([-1], [1, -1])
    p = XPoly([h1, 0, 1])
    assert str(p) == "1*x^2 + (-1/(1 - 1*L))*x^0"
    assert str(X) == "1*x^1"
    assert str(XPoly([])) == "0"
    assert str(XPoly([Fraction(3, 2), -2])) == "(-2)*x^1 + 3/2*x^0"
    assert str(XPoly([0, L])) == "(1*L)*x^1"
    assert str(XPoly([LambdaRat([1, 1], [1, -2, 1])])) == "((1 + 1*L)/(1 - 2*L + 1*L^2))*x^0"


def test_degree_and_leading():
    assert XPoly([]).degree == NEG_INF
    assert XPoly([0]).degree == NEG_INF
    assert (X ** 3).degree == 3
    assert (X ** 3).coeffs[-1] == ONE
    assert (2 * X).coeffs[-1] == 2


def test_shift_basics():
    p = (X + 1) ** 2
    assert p == X ** 2 + 2 * X + 1
    assert (X ** 2).shift(1) == p
    q = X ** 2 + L * X
    assert q.shift(0) is q
    assert q.shift(2).shift(-2) == q


def test_shift_composes_additively():
    rng = random.Random(11)
    for _ in range(20):
        p = rand_xpoly(rng, 5)
        a = rand_lrat(rng)
        b = rand_lrat(rng)
        assert p.shift(a).shift(b) == p.shift(a + b)


def test_shift_agrees_with_evaluation():
    rng = random.Random(12)
    for _ in range(20):
        p = rand_xpoly(rng, 5)
        a = rand_lrat(rng)
        pt = rand_lrat(rng)
        assert p.shift(a).evaluate(pt) == p.evaluate(pt + a)


def test_derivative():
    p = X ** 4 + 3 * X ** 2 + L * X + 7
    assert p.derivative() == 4 * X ** 3 + 6 * X + L
    assert p.derivative().derivative() == 12 * X ** 2 + 6
    d = p
    for _ in range(5):
        d = d.derivative()
    assert d == XPoly([])
    assert XPoly([7]).derivative() == XPoly([]) == XPoly([]).derivative()


def test_taylor_expansion():
    # p(x + a) = sum_k p^(k)(x) a^k / k!
    rng = random.Random(13)
    from math import factorial
    for _ in range(10):
        p = rand_xpoly(rng, 6)
        a = rand_lrat(rng)
        total = XPoly([])
        apow, dk = ONE, p
        for k in range(0, (p.degree if p else 0) + 1 if p.coeffs else 1):
            total = total + dk * (apow * Fraction(1, factorial(k)))
            apow, dk = apow * a, dk.derivative()
        assert total == p.shift(a)


def test_ring_axioms_random():
    rng = random.Random(15)
    for _ in range(25):
        p = rand_xpoly(rng, 4)
        q = rand_xpoly(rng, 4)
        r = rand_xpoly(rng, 4)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p - p == XPoly([])
        assert (p + q) + r == p + (q + r)


def test_scalar_ops():
    p = X ** 2 + 1
    assert p * Fraction(1, 2) == XPoly([Fraction(1, 2), 0, Fraction(1, 2)])
    assert L * p == XPoly([L, 0, L])
    assert p * 0 == XPoly([])


def test_evaluate_at_lambda_point():
    p = X ** 2 - 1
    v = p.evaluate(L)
    assert v == L ** 2 - 1
    assert p.evaluate(1).is_zero


def test_memoized_polynomial_is_printed_once():
    p = fe_poly(7, 3)
    text = str(p)
    assert str(p) is text
    assert str(XPoly(p.coeffs)) == text
    # suite --jobs pickles the round-trip inputs, printed or not
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p) and str(back) == text
    fresh = XPoly([1, L])
    back = pickle.loads(pickle.dumps(fresh))
    assert back == fresh and str(back) == "(1*L)*x^1 + 1*x^0" == str(fresh)
