"""Field arithmetic and canonical forms in Q(L)."""

import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import feuler
from feuler import cli, frobenius, scalar, suite, umbral, xpoly
from feuler.scalar import (
    LAMBDA,
    ONE,
    ZERO,
    LambdaPoly,
    LambdaRat,
    PoleError,
    lrat,
)
from genutil import check_canonical

L = LAMBDA


def rand_poly(rng, max_deg=3, zero_ok=True):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
    p = LambdaPoly(coeffs)
    if not zero_ok and not p.coeffs:
        return LambdaPoly([1])
    return p


def rand_lrat(rng, max_deg=3):
    return LambdaRat(rand_poly(rng, max_deg), rand_poly(rng, max_deg, zero_ok=False))


def test_gcd_reduction():
    # (L^2 - 1)/(L - 1) reduces to L + 1
    v = LambdaRat(LambdaPoly([-1, 0, 1]), LambdaPoly([-1, 1]))
    assert v == L + 1
    assert v.den.coeffs == (1,)
    assert str(v) == "1 + 1*L"


def test_denominator_normalization():
    # -1/(1 - L): denominator keeps its positive first coefficient
    v = LambdaRat(LambdaPoly([-1]), LambdaPoly([1, -1]))
    assert str(v) == "(-1) / (1 - 1*L)"
    assert v.embed_str() == "-1/(1 - 1*L)"
    # same value built with both signs flipped
    w = LambdaRat(LambdaPoly([1]), LambdaPoly([-1, 1]))
    assert v == w
    assert str(w) == "(-1) / (1 - 1*L)"


def test_canonical_string_of_compound_value():
    one_minus = ONE - L
    v = (ONE + L) / one_minus ** 2
    assert str(v) == "(1 + 1*L) / (1 - 2*L + 1*L^2)"
    # a second construction route lands on the same bytes
    w = LambdaRat(LambdaPoly([1, 1]), LambdaPoly([1, -2, 1]))
    assert str(w) == str(v)
    assert v == w


def test_zero_and_polynomial_invariants():
    z = L - L
    assert z.is_zero
    assert z == 0
    assert str(z) == "0"
    assert z.den.coeffs == (1,)
    assert z.num.coeffs == ()
    p = (L + 2) * (L - 2) + 4
    assert p.is_poly
    assert p == L ** 2


def test_evaluate():
    v = (ONE + L) / (ONE - L) ** 2
    assert v.evaluate(Fraction(-1)) == 0
    assert v.evaluate(3) == 1
    assert v.evaluate(Fraction(1, 2)) == Fraction(6)
    with pytest.raises(PoleError):
        v.evaluate(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        LambdaRat(LambdaPoly([1]), LambdaPoly([]))
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def _record(side):
    # the same side as a LambdaPoly record
    return LambdaPoly(side if isinstance(side, (list, tuple)) else [side])


def test_construction_splits_ints_and_fractions_directly():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        # int lists with a content to take out
        (([2, 4], [2, -2]), (1 + 2 * L) / (1 - L)),
        # Fraction lists over distinct denominators
        (([half, -third], [Fraction(1, 4), Fraction(-1, 4)]), (2 - Fraction(4, 3) * L) / (1 - L)),
        # mixed int and Fraction, trailing zeros on both sides, a tuple
        (([1, half, 0, 0], (3, Fraction(3, 2), 0)), ONE / 3),
        # a negative denominator content goes into the numerator
        (([1, 2], [-2, 2]), (1 + 2 * L) / (2 * L - 2)),
        (([1], (-3, 0, 1)), -ONE / (3 - L ** 2)),
        # plain scalars and a common factor that cancels
        ((3, Fraction(-6, 5)), lrat(Fraction(-5, 2))),
        (([-1, 0, 1], [-1, 1]), 1 + L),
        # a zero numerator, trimmed or not
        (([0, 0], [1, 1]), ZERO),
        (([], [Fraction(2, 7)]), ZERO),
        ((0, 5), ZERO),
    ]
    for (num, den), want in cases:
        v = LambdaRat(num, den)
        check_canonical(v)
        assert v == want and str(v) == str(want), (num, den)
        adapted = LambdaRat(_record(num), _record(den))
        check_canonical(adapted)
        assert (v.a, v.b, v.p, v.e, v.r) == (adapted.a, adapted.b, adapted.p, adapted.e, adapted.r)
    assert LambdaRat([0], [1]) == ZERO and not LambdaRat([0], [1]).p
    for den in ([], [0, 0], 0, Fraction(0), LambdaPoly([0])):
        with pytest.raises(ZeroDivisionError):
            LambdaRat([1, 2], den)


def test_lambdapoly_is_the_record_the_benchmark_reads():
    # What remains of LambdaPoly: perfbench builds LambdaRat(LambdaPoly(ints),
    # LambdaPoly(ints)) and reads .num.coeffs and .den.coeffs, tuples of Fraction.
    assert feuler.LambdaPoly is LambdaPoly
    assert set(vars(LambdaPoly)) - {"__module__", "__doc__", "__qualname__"} == {
        "__slots__", "__init__", "coeffs"}
    assert LambdaPoly.__slots__ == ("coeffs",)
    assert LambdaPoly([1, Fraction(1, 2), 0]).coeffs == (Fraction(1), Fraction(1, 2))
    v = LambdaRat(LambdaPoly([3, 6]), LambdaPoly([2, -4, 2]))
    assert v == 3 * (1 + 2 * L) / (2 * (1 - L) ** 2)
    for view, want in ((v.num, (Fraction(3, 2), Fraction(3))), (v.den, (1, -2, 1))):
        assert type(view) is LambdaPoly and type(view.coeffs) is tuple
        assert view.coeffs == want and all(type(c) is Fraction for c in view.coeffs)
    assert ZERO.num.coeffs == () and ZERO.den.coeffs == (Fraction(1),)
    # values enter Q(L) through LambdaRat(num, den) only
    for enter in (lrat, xpoly.XPoly.const, lambda p: ONE + p, lambda p: xpoly.XPoly([p])):
        with pytest.raises(TypeError):
            enter(LambdaPoly([1, 2]))
    assert LambdaPoly([1]) != ONE
    # and no other module of the package names it
    for mod in (xpoly, umbral, frobenius, suite, cli):
        assert "LambdaPoly" not in open(mod.__file__, encoding="utf-8").read(), mod.__name__


def test_powers():
    v = (ONE - L) ** 3
    assert v == ONE - 3 * L + 3 * L ** 2 - L ** 3
    assert (v ** 0) == 1
    w = v ** -2
    assert w * v ** 2 == 1
    assert L ** 0 == 1


def test_mixed_coercion():
    assert L + 1 == 1 + L
    assert 2 * L == L + L
    assert (L / 2) * 2 == L
    assert 1 - L == -(L - 1)
    assert Fraction(1, 2) + L == L + Fraction(1, 2)
    assert 3 / (ONE - L) == lrat(3) / (1 - L)


def test_field_axioms_random():
    rng = random.Random(91)
    for _ in range(60):
        a = rand_lrat(rng)
        b = rand_lrat(rng)
        c = rand_lrat(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if not a.is_zero:
            assert a * a.inverse() == 1
            assert (a / a) == 1


def test_canonical_invariants_random():
    rng = random.Random(92)
    for _ in range(80):
        a = rand_lrat(rng)
        den = a.den.coeffs
        # integer coefficients with content 1
        assert all(c.denominator == 1 for c in den)
        first = next(c for c in den if c)
        assert first > 0
        # reduced: multiplying back out must not grow the denominator
        b = rand_lrat(rng)
        if b.is_zero:
            continue
        prod = a * b
        back = prod / b
        assert back == a
        assert back.num.coeffs == a.num.coeffs
        assert back.den.coeffs == a.den.coeffs


def test_evaluate_is_a_homomorphism():
    rng = random.Random(93)
    points = [Fraction(0), Fraction(2), Fraction(-3), Fraction(5, 2)]
    for _ in range(40):
        a = rand_lrat(rng)
        b = rand_lrat(rng)
        for pt in points:
            try:
                av, bv = a.evaluate(pt), b.evaluate(pt)
            except PoleError:
                continue
            assert (a + b).evaluate(pt) == av + bv
            assert (a * b).evaluate(pt) == av * bv


def test_equal_values_print_identically():
    rng = random.Random(94)
    for _ in range(40):
        a = rand_lrat(rng)
        b = rand_lrat(rng)
        lhs = (a + b) * (a - b)
        rhs = a * a - b * b
        assert lhs == rhs
        assert str(lhs) == str(rhs)
        assert hash(lhs) == hash(rhs)


def test_polynomials_in_l_print_ascending():
    assert str(LambdaRat([])) == "0"
    assert str(LambdaRat([1, -2, 1])) == "1 - 2*L + 1*L^2"
    assert str(LambdaRat([0, Fraction(-1, 2)])) == "-1/2*L"
    assert str(LambdaRat([Fraction(3, 2), 0, 0, 2])) == "3/2 + 2*L^3"


def test_one_minus_l_rows_are_alternating_binomials():
    for e in range(201):
        want = tuple(-comb(e, k) if k & 1 else comb(e, k) for k in range(e + 1))
        assert scalar._one_minus_l_pow(e) == want, e


def test_every_polynomial_gcd_is_taken_in_reduce(monkeypatch):
    # one canonicaliser: construction, products and sums all reduce
    # through _reduce, so no other function calls _igcd but _reduce's
    # memo of common denominators, which only _reduce calls; no other
    # module holds a binding that the spies would miss, but frobenius
    # holds the memo to clear it; the caches start cold, so the test
    # holds when it runs alone
    callers = Counter()
    den_callers = Counter()
    igcd, common_den = scalar._igcd, scalar._common_den

    def spy(a, b):
        callers[sys._getframe(1).f_code.co_name] += 1
        return igcd(a, b)

    def den_spy(rs):
        den_callers[sys._getframe(1).f_code.co_name] += 1
        return common_den(rs)

    for mod in (xpoly, umbral, suite, cli):
        assert not hasattr(mod, "_igcd"), mod.__name__
        assert not hasattr(mod, "_common_den"), mod.__name__
    assert not hasattr(frobenius, "_igcd")
    monkeypatch.setattr(scalar, "_igcd", spy)
    monkeypatch.setattr(scalar, "_common_den", den_spy)
    frobenius.clear_caches()
    assert suite.run_suite(6, 3, 3).ok
    assert callers["_reduce"] and callers["_common_den"]
    assert set(callers) <= {"_reduce", "_common_den", "_igcd"}, callers
    assert set(den_callers) == {"_reduce"}, den_callers


def test_stored_split_is_read_not_recognised(monkeypatch):
    # dot, + and a negative-order series read each operand's stored (e, r);
    # only a denominator that arrives whole, in LambdaRat(num, den) or as
    # the numerator that inverse turns over, is split by _parts
    x = LambdaRat(LambdaPoly([1, 2]), LambdaPoly([1, -2, 1]))
    y = LambdaRat(LambdaPoly([3, 0, 1]), LambdaPoly([1, 0, -1]))
    calls = []
    parts = scalar._parts
    monkeypatch.setattr(scalar, "_parts", lambda q: calls.append(q) or parts(q))
    frobenius.clear_caches()
    assert scalar.dot([(2, x, y), (-1, y, y), (3, x, ONE)]) == 2 * x * y - y * y + 3 * x
    assert x + y - x == y
    frobenius.fe_series(-3, 16)
    assert calls == []
    assert y.inverse() * y == ONE
    assert calls == [(3, 0, 1)]


def test_values_and_polynomials_survive_pickling():
    # suite --jobs sends the round-trip inputs to its workers pickled
    rng = random.Random(15)
    values = [ZERO, ONE, L, 1 / (1 - L) ** 3, LambdaRat(LambdaPoly([1]), LambdaPoly([2, 1, -1]))]
    values += [rand_lrat(rng) for _ in range(20)]
    for v in values + [xpoly.XPoly(values), xpoly.XPoly([]), frobenius.fe_poly(6, -2)]:
        w = pickle.loads(pickle.dumps(v))
        assert w == v and str(w) == str(v) and hash(w) == hash(v)
