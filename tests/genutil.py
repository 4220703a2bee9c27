"""Seeded random value generators and helpers shared by the test modules.

A polynomial in L is a list of ascending coefficients with no trailing
zero; values are built as ``LambdaRat(num, den)`` and read back through
their ints ``(a, b, p, e, r)``.
"""

from fractions import Fraction
from math import comb, gcd

from feuler.scalar import ZERO, LambdaRat, _imul, _itrim, _parts, lrat
from feuler.umbral import TruncationError, TruncSeries
from feuler.xpoly import XPoly

# 1 + L, 2 - L, 1 + L^2 and 3 + L: products of them are denominators r prime
# to 1 - L, and distinct products often share a factor
R_FACTORS = ([1, 1], [2, -1], [1, 0, 1], [3, 1])


def times_one_minus_l(coeffs, k):
    """The coefficients of coeffs * (1 - L)^k, one factor at a time."""
    out = list(coeffs)
    for _ in range(k):
        out = [c - d for c, d in zip(out + [0], [0] + out)]
    return out


def one_minus_l_pow(e):
    """The coefficients of (1 - L)^e."""
    return times_one_minus_l([1], e)


def r_product(picks):
    """The coefficients of the product of R_FACTORS[i] over i in picks."""
    r = [1]
    for i in picks:
        r = _imul(r, R_FACTORS[i])
    return r


def num_coeffs(v):
    """The numerator (a / b) * p of a LambdaRat, as Fractions."""
    return [Fraction(v.a * c, v.b) for c in v.p]


def den_coeffs(v):
    """The denominator (1 - L)^e * r of a LambdaRat, as one int list."""
    return times_one_minus_l(v.r, v.e)


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
        assert a / a == 1


def rand_lpoly(rng, max_deg=2, zero_ok=True):
    deg = rng.randint(0, max_deg)
    p = _itrim([rng.randint(-5, 5) for _ in range(deg + 1)])
    if not zero_ok and not p:
        return [1]
    return p


def rand_lrat(rng, max_deg=2):
    num = rand_lpoly(rng, max_deg)
    den = rand_lpoly(rng, max_deg, zero_ok=False)
    scale = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return LambdaRat(num, den) * scale


def rand_xpoly(rng, max_deg=6):
    deg = rng.randint(0, max_deg)
    return XPoly([rand_lrat(rng) for _ in range(deg + 1)])


def series(coeffs, trunc=None):
    """The series with divided coefficients coeffs, each coerced to Q(L),
    cut or padded with zeros to trunc + 1 of them (all kept by default)."""
    cs = [lrat(c) for c in coeffs]
    if trunc is None:
        trunc = len(cs) - 1
    cs = cs[:trunc + 1] + [ZERO] * (trunc + 1 - len(cs))
    return TruncSeries._raw(tuple(cs))


def appell_sequence(g, n_max):
    """First n_max+1 members of the Appell sequence attached to g.

    s_n = g(t)^{-1} x^n, so the leading coefficient of s_n is 1/g(0);
    it is 1 (monic) exactly when g has constant term 1.
    """
    if n_max > g.trunc:
        raise TruncationError(
            f"need {n_max} series coefficients, kept {g.trunc}")
    h = g.recip().coeffs
    return [XPoly([comb(n, m) * h[n - m] for m in range(n + 1)]) for n in range(n_max + 1)]


def check_canonical(v):
    """Assert the canonical form of a LambdaRat: the content a / b in
    lowest terms with b > 0, and numerator and denominator primitive int
    polynomials with a positive lowest nonzero coefficient.  The stored
    split (1 - L)^e * r of the denominator has e >= 0 and r primitive,
    prime to 1 - L, with a positive lowest coefficient, and it is the
    split that recognising the whole denominator finds."""
    assert v.b > 0 and gcd(v.a, v.b) == 1
    assert isinstance(v.e, int) and v.e >= 0
    assert isinstance(v.r, tuple) and sum(v.r) != 0 and v.r[-1] != 0
    assert all(type(c) is int for c in v.p + v.r)
    q = den_coeffs(v)
    assert (v.e, v.r) == _parts(tuple(q))
    for p in (v.r, q, v.p):
        if p:
            assert gcd(*p) == 1
            assert next(c for c in p if c) > 0
    if not v.p:
        assert (v.a, v.b, v.e, v.r) == (0, 1, 0, (1,))
