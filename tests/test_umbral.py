"""Series functionals and operators: pairing, product, reciprocal, Appell.

A series g acts on p as the operator g(t)p(x) through ``appell_expand``,
whose coefficient list is that of g(t)p(x).  Series are built through
``genutil.series`` and compared by their coefficients.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from feuler import umbral
from feuler.scalar import LAMBDA, ONE, lrat
from feuler.umbral import NotInvertibleError, TruncationError, TruncSeries, appell_expand
from feuler.xpoly import X, XPoly

from genutil import appell_sequence, rand_lrat, rand_xpoly, series

L = LAMBDA
N = 8


def rand_series(rng, trunc=N, invertible=False):
    cs = [rand_lrat(rng, 1) for _ in range(trunc + 1)]
    if invertible and cs[0].is_zero:
        cs[0] = ONE
    return series(cs)


def exponential(y, trunc=N):
    # e^{yt}: the divided coefficients are the powers of y
    y = lrat(y)
    return series([y ** k for k in range(trunc + 1)])


def t_power(k, trunc=N):
    # t^k: divided coefficient k! at k
    return series([0] * k + [factorial(k)], trunc)


def operate(g, p):
    """g(t)p(x), read off appell_expand."""
    return XPoly(appell_expand(g, p))


def test_pairing_against_monomials():
    # <t^k | x^n> = n! when k = n, else 0
    for k in range(5):
        f = TruncSeries.one(6).mul_t_power(k)
        assert f.coeffs == t_power(k, 6).coeffs
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
        dk = p
        for k in range(4):
            assert operate(t_power(k), p) == dk
            dk = dk.derivative()


def test_product_of_exponentials():
    a = exponential(2)
    b = exponential(Fraction(1, 3))
    assert (a * b).coeffs == exponential(Fraction(7, 3)).coeffs
    assert (a * TruncSeries.one(N)).coeffs == a.coeffs


def test_mul_t_power_is_series_product():
    rng = random.Random(24)
    for _ in range(15):
        f = rand_series(rng)
        k = rng.randint(0, N)
        assert f.mul_t_power(k).coeffs == (f * t_power(k)).coeffs


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
        assert (f * f.recip()).coeffs == TruncSeries.one(N).coeffs
    y = rand_lrat(rng)
    assert exponential(y).recip().coeffs == exponential(-y).coeffs
    with pytest.raises(NotInvertibleError):
        t_power(1).recip()


def power_inverting_first(f, k):
    """f^-k in the other order: the reciprocal of f, then binary powering."""
    base, out = f.recip(), TruncSeries.one(f.trunc)
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def test_pow(monkeypatch):
    rng = random.Random(28)
    f = rand_series(rng, invertible=True)
    assert (f ** 0).coeffs == TruncSeries.one(N).coeffs
    assert (f ** 1).coeffs == f.coeffs
    assert (f ** 3).coeffs == (f * f * f).coeffs
    assert (f ** -2).coeffs == (f.recip() * f.recip()).coeffs
    assert ((f ** -2) * (f ** 2)).coeffs == TruncSeries.one(N).coeffs
    # random denominators, not only powers of 1 - L
    for k in range(1, 6):
        for _ in range(3):
            f = rand_series(rng, trunc=6, invertible=True)
            assert (f ** -k).coeffs == power_inverting_first(f, k).coeffs, k

    products = []
    orig = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__", lambda a, b: products.append(1) or orig(a, b))
    for f in (t_power(1), series([0, 1, 2, 3])):
        for k in (1, 2, 5):
            with pytest.raises(NotInvertibleError):
                f ** -k
    assert products == []


# denominators mixing powers of 1 - L with 1 + L and 2 - L
DENOMINATORS = (ONE, (1 - L) ** 3, 1 + L, 2 - L, (1 + L) * (2 - L) * (1 - L))


def mixed_series(rng, trunc=6, order=0):
    """A series t^order u over mixed denominators, u a unit."""
    cs = [rand_lrat(rng, 1) / rng.choice(DENOMINATORS) for _ in range(trunc + 1)]
    cs[order] = cs[order] or ONE + L
    return series([0] * order + cs[order:], trunc)


def repeated_product(f, k):
    out = TruncSeries.one(f.trunc)
    for _ in range(k):
        out = out * f
    return out


def test_pow_matches_repeated_products():
    rng = random.Random(33)
    for _ in range(4):
        f = mixed_series(rng)
        for n in range(-5, 6):
            if n >= 0:
                assert (f ** n).coeffs == repeated_product(f, n).coeffs, n
            else:
                assert ((f ** n) * repeated_product(f, -n)).coeffs \
                    == TruncSeries.one(f.trunc).coeffs, n
        assert f.recip().coeffs == (f ** -1).coeffs


def test_pow_of_a_series_without_reciprocal(monkeypatch):
    # t^v u for a unit u has no power but the zeroth, which is one; every
    # other power fails before any product
    products = []
    orig = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__", lambda a, b: products.append(1) or orig(a, b))
    rng = random.Random(34)
    zero = series([0, 0, 0])
    for f in [mixed_series(rng, order=order) for order in (1, 2, 3)] + [zero]:
        for n in range(-7, 8):
            if n:
                with pytest.raises(NotInvertibleError):
                    f ** n
        assert (f ** 0).coeffs == TruncSeries.one(f.trunc).coeffs
    assert products == []


def test_pow_takes_one_dot_per_coefficient(monkeypatch):
    # one dot per coefficient past the constant term and no series product,
    # whatever |n| is
    dots, products = [], []
    orig_dot, orig_mul = umbral.dot, TruncSeries.__mul__
    monkeypatch.setattr(umbral, "dot", lambda terms: dots.append(1) or orig_dot(terms))
    monkeypatch.setattr(TruncSeries, "__mul__", lambda a, b: products.append(1) or orig_mul(a, b))
    # the Frobenius-Euler series (e^t - L)/(1 - L) at large |n|, whose powers
    # stay small; a random series at small |n|
    fe = series([ONE] + [(1 - L).inverse()] * 16)
    for f, n in ((fe, 3), (fe, -3), (fe, 1200), (fe, -1200),
                 (mixed_series(random.Random(35), trunc=8), 3),
                 (mixed_series(random.Random(36), trunc=8), -3)):
        dots.clear()
        f ** n
        assert len(dots) == f.trunc, n
    assert products == []


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
    s = series([1, ONE - L, 0, 2], 3)
    text = str(s)
    assert text.endswith("(order 3)")
    assert "t^3" in text
    assert str(series([0, 0], 1)) == "0 (order 1)"


def test_series_come_from_the_library_alone():
    # no public constructor: a series is fe_series, TruncSeries.one, or built
    # from them
    with pytest.raises(TypeError):
        TruncSeries([1, 2])
    with pytest.raises(TypeError):
        TruncSeries([1, 2], 3)
    with pytest.raises(TypeError):
        TruncSeries()
