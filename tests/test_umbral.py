"""Series functionals and operators: pairing, product, reciprocal, Appell.

A series g acts on p as the operator g(t)p(x) through ``appell_expand``,
whose coefficient list is that of g(t)p(x).
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from feuler.scalar import LAMBDA, ONE, lrat
from feuler.umbral import (
    NotInvertibleError,
    TruncationError,
    TruncSeries,
    appell_expand,
    appell_sequence,
)
from feuler.xpoly import X, XPoly

from genutil import rand_lrat, rand_xpoly

L = LAMBDA
N = 8


def rand_series(rng, trunc=N, invertible=False):
    cs = [rand_lrat(rng, 1) for _ in range(trunc + 1)]
    if invertible and cs[0].is_zero:
        cs[0] = ONE
    return TruncSeries(cs)


def exponential(y, trunc=N):
    # e^{yt}: the divided coefficients are the powers of y
    y = lrat(y)
    return TruncSeries([y ** k for k in range(trunc + 1)])


def t_power(k, trunc=N):
    # t^k: divided coefficient k! at k
    return TruncSeries([0] * k + [factorial(k)], trunc)


def operate(g, p):
    """g(t)p(x), read off appell_expand."""
    return XPoly(appell_expand(g, p))


def test_pairing_against_monomials():
    # <t^k | x^n> = n! when k = n, else 0
    for k in range(5):
        f = TruncSeries.one(6).mul_t_power(k)
        assert f == t_power(k, 6)
        for n in range(6):
            got = f.functional(X ** n)
            assert got == (factorial(n) if n == k else 0)


def test_exponential_functional_evaluates():
    # <e^{yt} | p(x)> = p(y)
    rng = random.Random(21)
    for _ in range(20):
        p = rand_xpoly(rng, N)
        y = rand_lrat(rng)
        assert exponential(y).functional(p) == p.evaluate(y)


def test_exponential_operates_as_shift():
    rng = random.Random(22)
    for _ in range(20):
        p = rand_xpoly(rng, N)
        y = rand_lrat(rng)
        assert operate(exponential(y), p) == p.shift(y)


def test_t_power_operates_as_derivative():
    rng = random.Random(23)
    for _ in range(10):
        p = rand_xpoly(rng, N)
        for k in range(4):
            assert operate(t_power(k), p) == p.derivative(k)


def test_product_of_exponentials():
    a = exponential(2)
    b = exponential(Fraction(1, 3))
    assert a * b == exponential(Fraction(7, 3))
    assert a * TruncSeries.one(N) == a


def test_mul_t_power_is_series_product():
    rng = random.Random(24)
    for _ in range(15):
        f = rand_series(rng)
        k = rng.randint(0, N)
        assert f.mul_t_power(k) == f * t_power(k)


def test_adjunction():
    # <f g | p> = <f | g(t) p>
    rng = random.Random(25)
    for _ in range(20):
        f = rand_series(rng)
        g = rand_series(rng)
        p = rand_xpoly(rng, N)
        assert (f * g).functional(p) == f.functional(operate(g, p))


def test_operator_composition():
    rng = random.Random(26)
    for _ in range(15):
        f = rand_series(rng)
        g = rand_series(rng)
        p = rand_xpoly(rng, N)
        assert operate(f * g, p) == operate(f, operate(g, p))


def test_recip():
    rng = random.Random(27)
    for _ in range(15):
        f = rand_series(rng, invertible=True)
        assert f * f.recip() == TruncSeries.one(N)
    y = rand_lrat(rng)
    assert exponential(y).recip() == exponential(-y)
    with pytest.raises(NotInvertibleError):
        t_power(1).recip()


def test_pow():
    rng = random.Random(28)
    f = rand_series(rng, invertible=True)
    assert f ** 0 == TruncSeries.one(N)
    assert f ** 3 == f * f * f
    assert f ** -2 == f.recip() * f.recip()
    assert (f ** -2) * (f ** 2) == TruncSeries.one(N)


def test_truncation_guards():
    f = TruncSeries.one(3)
    p = X ** 5
    with pytest.raises(TruncationError):
        f.functional(p)
    with pytest.raises(TruncationError):
        appell_expand(f, p)
    with pytest.raises(TruncationError):
        appell_sequence(f, 5)


def test_binary_ops_truncate_to_shorter_operand():
    assert (exponential(1, 9) * exponential(2, 4)).trunc == 4


def test_appell_sequence_for_shifted_powers():
    # g = e^t gives s_n = e^{-t} x^n = (x - 1)^n
    seq = appell_sequence(exponential(1, 6), 6)
    for n, s in enumerate(seq):
        assert s == (X - 1) ** n
        assert s.coeffs[-1] == ONE


def test_appell_sequence_trivial_basis():
    seq = appell_sequence(TruncSeries.one(5), 5)
    for n, s in enumerate(seq):
        assert s == X ** n


def test_appell_expand_round_trip():
    rng = random.Random(31)
    for _ in range(15):
        g = rand_series(rng, invertible=True)
        p = rand_xpoly(rng, N)
        if p.is_zero:
            continue
        seq = appell_sequence(g, N)
        coeffs = appell_expand(g, p)
        assert len(coeffs) == p.degree + 1
        total = XPoly([])
        for c, s in zip(coeffs, seq):
            total = total + c * s
        assert total == p


def test_appell_expand_is_dual_to_the_sequence():
    rng = random.Random(32)
    g = rand_series(rng, invertible=True)
    seq = appell_sequence(g, 6)
    for n in range(7):
        coeffs = appell_expand(g, seq[n])
        for k, c in enumerate(coeffs):
            assert c == (1 if k == n else 0)


def test_str_display():
    s = TruncSeries([1, ONE - L, 0, 2], 3)
    text = str(s)
    assert text.endswith("(order 3)")
    assert "t^3" in text
    assert str(TruncSeries([0, 0], 1)) == "0 (order 1)"
