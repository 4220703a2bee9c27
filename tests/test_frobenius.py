"""Frobenius-Euler numbers/polynomials against independent routes.

Every nontrivial value is checked against a second derivation that does
not share code with the implementation: series reciprocals, literal
multinomial sums, operator iteration, a plain-Fraction Euler polynomial
recurrence, and three routes to the numbers in Q(L) arithmetic: the
order-1 generating-function recurrence, the binomial convolution of rows
of lower order, and the closed form of negative orders.
"""

import importlib
import pickle
import pkgutil
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial

import pytest

from feuler.scalar import LAMBDA, ONE, ZERO, LambdaPoly, LambdaRat, dot, lrat
from feuler.umbral import TruncSeries, appell_expand
from feuler.xpoly import X, XPoly
import feuler
from feuler import frobenius
from feuler.frobenius import (
    BasisExpansion,
    delta_pow_at_zero,
    fe_numbers,
    fe_poly,
    fe_series,
    from_fe_basis,
    j_lambda,
    lowering_coeff,
    stirling_lambda,
    surjection_sum,
    to_fe_basis,
)

from feuler.suite import DEFAULT_SEED, roundtrip_inputs
from genutil import appell_sequence, rand_lrat, rand_xpoly

L = LAMBDA
ONE_MINUS = ONE - L


# ---------------------------------------------------------------------------
# independent oracles

def euler_polys(n_max):
    """Euler polynomials E_n(x) from the 2/(e^t+1) recurrence, Fractions only."""
    a = [Fraction(1)]
    for n in range(1, n_max + 1):
        a.append(-sum(comb(n, k) * a[k] for k in range(n)) / 2)
    return [[comb(n, l) * a[n - l] for l in range(n + 1)] for n in range(n_max + 1)]


def stirling2(n, k):
    """Classical S(n,k) by the standard recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in compositions(total - v, parts - 1):
            yield (v,) + rest


def surjections_enumerated(l, m):
    """Sum of multinomial(l; k_1..k_m) over the compositions of l into m parts >= 1."""
    if m == 0:
        return 1 if l == 0 else 0
    total = 0
    for cuts in combinations(range(1, l), m - 1):
        parts = [b - a for a, b in zip((0,) + cuts, cuts + (l,))]
        if not all(parts):
            continue
        denom = 1
        for k in parts:
            denom *= factorial(k)
        total += factorial(l) // denom
    return total


def one_step_j(p):
    return (p.shift(1) - L * p) * ONE_MINUS.inverse()


def order_one_row(n_max):
    """Order-1 numbers from (e^t - L) * sum H_n t^n/n! = 1 - L, in Q(L):
    H_n = sum_{k<n} C(n,k) H_k / (L - 1)."""
    inv = (L - ONE).inverse()
    row = [ONE]
    for n in range(1, n_max + 1):
        acc = ZERO
        for k in range(n):
            acc = acc + comb(n, k) * row[k]
        row.append(acc * inv)
    return row


def halving_row(r, n_max, rows):
    """Order-r numbers, r >= 1, as the binomial convolution of the rows of
    orders r // 2 and r - r // 2; rows maps orders to rows already built
    and holds the order-1 row."""
    if r not in rows:
        left, right = halving_row(r // 2, n_max, rows), halving_row(r - r // 2, n_max, rows)
        rows[r] = [sum((comb(n, i) * left[i] * right[n - i] for i in range(n + 1)), ZERO)
                   for n in range(n_max + 1)]
    return rows[r]


def one_minus_l_valuation(c):
    """Largest v with (1 - L)^v dividing the nonzero int sequence c."""
    v = 0
    while not sum(c):
        # c = (1 - L) q gives c_i = q_i - q_(i-1), so q_i = c_0 + ... + c_i
        c = list(accumulate(c))[:-1]
        v += 1
    return v


# ---------------------------------------------------------------------------

def test_first_numbers_frozen():
    h = fe_numbers(3)
    assert h[0] == 1
    assert h[1] == LambdaRat(LambdaPoly([-1]), LambdaPoly([1, -1]))
    assert str(h[1]) == "(-1) / (1 - 1*L)"
    assert h[2] == (ONE + L) / ONE_MINUS ** 2
    assert h[3] == -(ONE + 4 * L + L ** 2) / ONE_MINUS ** 3
    h2 = fe_numbers(2, r=2)
    assert h2[0] == 1
    assert h2[1] == -2 / ONE_MINUS
    assert h2[2] == (4 + 2 * L) / ONE_MINUS ** 2
    assert fe_numbers(4, r=0) == [1, 0, 0, 0, 0]


def test_numbers_match_series_reciprocal():
    n = 8
    for r in (-2, -1, 0, 1, 2, 3):
        got = fe_numbers(n, r)
        want = fe_series(r, n).recip().coeffs
        assert tuple(got) == want, f"order {r}"


def test_high_order_numbers_match_series_powering():
    # the series side powers g(t) by repeated squaring
    for r in (4, 5, 7, 1200):
        assert tuple(fe_numbers(10, r)) == fe_series(-r, 10).coeffs, f"order {r}"


def test_numbers_match_series_powering_for_orders_up_to_60():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(st.integers(-60, 60), st.integers(0, 20))
    def check(r, n):
        assert tuple(fe_numbers(n, r)) == fe_series(-r, n).coeffs

    check()


def test_order_one_numbers_match_generating_function_recurrence():
    assert fe_numbers(60, 1) == order_one_row(60)


def test_numbers_match_halving_convolution():
    rows = {1: order_one_row(16)}
    for r in (2, 3, 4, 5, 7, 1200):
        assert fe_numbers(16, r) == halving_row(r, 16, rows), r


def test_negative_orders_match_closed_form():
    # H_n^{(-s)}(L) = (1 - L)^{-s} (E - L)^s x^n at x = 0
    for s in (1, 2, 3, 4, 5, 6, 7, 400, 1200):
        scale = ONE_MINUS.inverse() ** s
        assert fe_numbers(10, -s) == [delta_pow_at_zero(n, s) * scale for n in range(11)], s
    # rows longer than their order, whose numerators carry factors (1 - L)
    for s in (1, 3):
        scale = ONE_MINUS.inverse() ** s
        assert fe_numbers(300, -s) == [delta_pow_at_zero(n, s) * scale for n in range(301)], s


def test_closed_form_numerator_valuation_at_one():
    # (E - L)^s = ((E - 1) + (1 - L))^s and (E - 1)^m x^n at 0 is m! S(n, m),
    # nonzero for 1 <= m <= n: the lowest power of (1 - L) left is
    # (1 - L)^(s - min(s, n)); at s = 0 the value is 0^n
    # (the content taken out of the numerator is an integer, so it does not
    # change the valuation)
    for n in range(41):
        assert delta_pow_at_zero(n, 0) == (ONE if n == 0 else ZERO)
        for s in range(1, 41):
            assert one_minus_l_valuation(delta_pow_at_zero(n, s).p) == max(s - n, 0), (n, s)


def test_tables_make_no_arithmetic_in_q_l(monkeypatch):
    def refuse(*args):
        raise AssertionError("arithmetic in Q(L)")

    # cold, so that every row is built under the patch
    frobenius.clear_caches()
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LambdaRat, name, refuse)
    fe_numbers(30, 1)
    fe_numbers(12, -20)
    fe_poly(16, 4)


def test_numbers_match_literal_multinomial_convolution():
    h1 = fe_numbers(5)
    for r in (2, 3):
        for n in range(6):
            acc = ZERO
            for parts in compositions(n, r):
                m = factorial(n)
                for p in parts:
                    m //= factorial(p)
                term = lrat(m)
                for p in parts:
                    term = term * h1[p]
                acc = acc + term
            assert acc == fe_numbers(n, r)[n]


def test_polys_monic_of_degree_n():
    for r in (-3, -1, 0, 1, 2, 4):
        for n in range(7):
            p = fe_poly(n, r)
            assert p.degree == n
            assert p.coeffs[-1] == ONE


def test_first_polys_frozen():
    assert fe_poly(0) == XPoly([1])
    assert fe_poly(1) == X - ONE_MINUS.inverse()
    assert str(fe_poly(1)) == "1*x^1 + (-1/(1 - 1*L))*x^0"
    assert fe_poly(1, -1) == X + ONE_MINUS.inverse()
    assert fe_poly(2) == X ** 2 - (2 / ONE_MINUS) * X + (ONE + L) / ONE_MINUS ** 2


def test_polys_match_appell_sequence():
    for r in (-2, 1, 3):
        seq = appell_sequence(fe_series(r, 7), 7)
        for n in range(8):
            assert seq[n] == fe_poly(n, r), f"order {r}, degree {n}"


def test_derivative_ladder():
    for r in (-3, -1, 0, 2, 4):
        for n in range(1, 8):
            assert fe_poly(n, r).derivative() == n * fe_poly(n - 1, r)


def test_j_lambda_matches_operator_iteration():
    rng = random.Random(41)
    for _ in range(10):
        p = rand_xpoly(rng, 5)
        q = p
        for s in range(4):
            assert j_lambda(p, s) == q
            q = one_step_j(q)
    assert j_lambda(p, 0) == p
    # a negative power undoes the positive one
    for s in range(4):
        assert j_lambda(j_lambda(p, s), -s) == p, s


def test_j_ladder_connects_orders():
    for r in (-2, -1, 0, 1, 3):
        for n in range(7):
            assert j_lambda(fe_poly(n, r)) == fe_poly(n, r - 1)
    # J^r on x^n lands on the order -r polynomial
    for r in range(4):
        for n in range(7):
            assert j_lambda(X ** n, r) == fe_poly(n, -r)


def test_j_at_zero_is_the_constant_term_of_j():
    # the numbers eq22 reads: J H_m^{(r)} at 0, against the shift operator
    # applied to the polynomial and against j_lambda on the rows of order -1
    for r in (-40, -3, -1, 0, 1, 2, 5, 40):
        for m in range(9):
            p = fe_poly(m, r)
            assert frobenius._j_at_zero(m, r) == one_step_j(p).coeff(0), (m, r)
            assert frobenius._j_at_zero(m, r) == j_lambda(p).coeff(0), (m, r)


def test_duality_pairing():
    for r in (1, 2):
        g = fe_series(r, 5)
        for n in range(6):
            p = fe_poly(n, r)
            for k in range(6):
                got = g.mul_t_power(k).functional(p)
                assert got == (factorial(n) if k == n else 0)


def test_series_slices_match_a_fresh_power(monkeypatch):
    # fe_series slices one power per order, built at 16, 32 or 64 terms;
    # the reference is the power built at the truncation asked for
    inv = (ONE - L).inverse()
    for r in range(-3, 7):
        for trunc in range(41):
            fresh = TruncSeries._raw((ONE,) + (inv,) * trunc) ** r
            assert fe_series(r, trunc).coeffs == fresh.coeffs, (r, trunc)
    built = []
    power = TruncSeries.__pow__
    monkeypatch.setattr(TruncSeries, "__pow__", lambda f, n: built.append(f.trunc) or power(f, n))
    frobenius.clear_caches()
    for trunc in (0, 16, 17, 32, 33, 5):
        fe_series(-3, trunc)
    frobenius.clear_caches()
    assert built == [16, 32, 64]


def test_delta_power_matches_operator_iteration():
    assert delta_pow_at_zero(2, 2) == 4 - 2 * L
    assert delta_pow_at_zero(0, 0) == 1
    for n in range(6):
        q = X ** n
        for k in range(6):
            assert delta_pow_at_zero(n, k) == q.evaluate(0), (n, k)
            q = q.shift(1) - L * q


def test_stirling_values():
    assert stirling_lambda(2, 2) == 2 - L
    assert stirling_lambda(0, 0) == 1
    assert stirling_lambda(3, 0) == 0
    for n in range(7):
        for k in range(7):
            s = stirling_lambda(n, k)
            assert s.is_poly
            assert s.evaluate(1) == stirling2(n, k)


def test_surjection_sum_values():
    assert surjection_sum(0, 0) == 1
    assert surjection_sum(3, 2) == 6
    assert surjection_sum(4, 2) == 14
    assert surjection_sum(2, 3) == 0
    for l in range(9):
        for m in range(9):
            want = factorial(m) * stirling2(l, m)
            assert surjection_sum(l, m) == want
        if l:
            assert surjection_sum(l, 1) == 1
            assert surjection_sum(l, l) == factorial(l)


def test_surjection_sum_matches_enumeration():
    for l in range(15):
        want = [surjections_enumerated(l, m) for m in range(16)]
        for m in range(16):
            assert surjection_sum(l, m) == want[m], (l, m)
            # every entry of the row the weights read, not only its last
            assert frobenius._surjection_row(l, m) == want[:m + 1], (l, m)


def test_surjection_sum_large_l():
    # inclusion-exclusion: 3^l - 3 * 2^l + 3 onto a 3-set
    assert surjection_sum(2000, 3) == 3 ** 2000 - 3 * 2 ** 2000 + 3


def test_lowering_coeff_values():
    inv = ONE_MINUS.inverse()
    assert lowering_coeff(0, 0) == 1
    assert lowering_coeff(1, 1) == inv
    assert lowering_coeff(2, 1) == 2 * inv
    assert lowering_coeff(2, 2) == 2 * inv + 2 * inv ** 2


def test_lowering_coeff_reads_one_row_of_surjection_counts(monkeypatch):
    # one weight reads one row surj(l, 0..M), M = min(s, l), not one row per
    # count; the wrapper returns the true row, so the memo keeps true values
    calls = []
    row = frobenius._surjection_row
    monkeypatch.setattr(frobenius, "_surjection_row",
                        lambda l, m_max: calls.append((l, m_max)) or row(l, m_max))
    frobenius.clear_caches()
    assert lowering_coeff(7, 9) * ONE_MINUS ** 7 == factorial(7) * stirling_lambda(9, 7)
    assert calls == [(9, 7)]


def test_lowering_coeff_is_scaled_stirling():
    for s in range(7):
        for l in range(7):
            lhs = lowering_coeff(s, l) * ONE_MINUS ** s
            rhs = factorial(s) * stirling_lambda(l, s)
            assert lhs == rhs, (s, l)


def test_basis_expansion_of_the_basis_itself():
    for r in (0, 1, 3):
        for n in range(6):
            e = to_fe_basis(fe_poly(n, r), r)
            assert e.order == r
            for k, c in enumerate(e.coefficients):
                assert c == (1 if k == n else 0)


def test_basis_round_trip_random():
    rng = random.Random(42)
    for _ in range(15):
        p = rand_xpoly(rng, 7)
        if p.is_zero:
            continue
        r = rng.randint(0, 4)
        e = to_fe_basis(p, r)
        assert from_fe_basis(e) == p


def test_recombination_is_the_sum_over_the_tables():
    # from_fe_basis is J^(-r) of sum_k c_k x^k; the oracle is the definition,
    # sum_k c_k H_k^{(r)}, over the polynomial tables
    rng = random.Random(46)
    for r in range(-3, 5):
        drawn = [(), (0,), (3, 0, -1), (Fraction(1, 2), 0, Fraction(-5, 3), 0, 0),
                 (2, Fraction(7, 4), L, 0)]
        for _ in range(4):
            cs = tuple(rand_lrat(rng) for _ in range(rng.randint(1, 7)))
            drawn += [cs, cs + (ZERO,) * rng.randint(1, 3)]
        for cs in drawn:
            oracle = sum((fe_poly(k, r) * c for k, c in enumerate(cs)), XPoly([]))
            assert from_fe_basis(BasisExpansion(r, cs)) == oracle, (r, cs)


def test_basis_matches_functional_route():
    rng = random.Random(43)
    for _ in range(12):
        p = rand_xpoly(rng, 6)
        if p.is_zero:
            continue
        r = rng.randint(0, 3)
        direct = to_fe_basis(p, r).coefficients
        dual = appell_expand(fe_series(r, max(p.degree, 0)), p)
        assert list(direct) == dual


def evaluation_formula_oracle(p, r):
    # to_fe_basis as it was before the formula was expanded: the order-k
    # derivative, its values at j = 0..r, one dot over j, then / k!
    if p.is_zero:
        return BasisExpansion(r, ())
    inv = ONE_MINUS.inverse() ** r
    weights = [(-LAMBDA) ** (r - j) * inv for j in range(r + 1)]
    out = []
    dk = p
    for k in range(p.degree + 1):
        acc = dot((comb(r, j), w, dk.evaluate(j)) for j, w in enumerate(weights))
        out.append(acc * Fraction(1, factorial(k)))
        dk = dk.derivative()
    return BasisExpansion(r, tuple(out))


def test_basis_expansion_matches_the_derivative_evaluation_oracle():
    for p, r in roundtrip_inputs(DEFAULT_SEED, 100):
        assert to_fe_basis(p, r) == evaluation_formula_oracle(p, r)
    # coefficients over 1, (1 - L)^e, 1 + L, 2 - L and general denominators
    rng = random.Random(44)
    dens = [ONE, ONE_MINUS ** 3, ONE + L, 2 - L, (ONE + L) * (2 - L) * ONE_MINUS]
    for r in range(6):
        for _ in range(4):
            p = XPoly([rand_lrat(rng) / rng.choice(dens) for _ in range(rng.randint(1, 7))])
            assert to_fe_basis(p, r) == evaluation_formula_oracle(p, r)
        for p in (XPoly([]), XPoly.const(3), XPoly.const(L / (ONE + L)), X):
            assert to_fe_basis(p, r) == evaluation_formula_oracle(p, r)


def test_basis_expansion_is_an_immutable_value():
    def expand():
        return to_fe_basis(X ** 3 - XPoly.const(LAMBDA) * X, 2)

    e, again = expand(), expand()
    assert e is not again
    assert e == again and hash(e) == hash(again)
    assert {e: "found"}[again] == "found"
    assert e == BasisExpansion(2, e.coefficients)
    assert e != BasisExpansion(3, e.coefficients)
    # a named tuple of its two fields, printed with their names
    assert tuple(e) == (e.order, e.coefficients)
    assert hash(e) == hash((e.order, e.coefficients))
    assert repr(e) == f"BasisExpansion(order=2, coefficients={e.coefficients!r})"
    with pytest.raises(AttributeError):
        e.order = 3
    assert e.order == 2
    assert pickle.loads(pickle.dumps(e)) == e


def test_zero_polynomial_expansion():
    e = to_fe_basis(XPoly([]), 2)
    assert e.coefficients == ()
    assert from_fe_basis(e) == XPoly([])
    # negative orders, the zero polynomial among the inputs, against the
    # series route
    rng = random.Random(45)
    for r in (-1, -3, -6):
        for p in (XPoly([]), X, X ** 6 - XPoly.const(L) * X, rand_xpoly(rng, 7)):
            e = to_fe_basis(p, r)
            assert list(e.coefficients) == appell_expand(fe_series(r, max(p.degree, 0)), p)
            assert from_fe_basis(e) == p


def test_euler_specialization():
    # at L = -1 the order-1 polynomials are the Euler polynomials
    want = euler_polys(5)
    for n in range(6):
        got = [c.evaluate(-1) for c in fe_poly(n).coeffs]
        assert got == want[n]


def test_lambda_zero_specialization():
    # at L = 0 the order-r polynomial collapses to (x - r)^n
    for r in range(4):
        for n in range(7):
            got = [c.evaluate(0) for c in fe_poly(n, r).coeffs]
            want = [comb(n, i) * Fraction(-r) ** (n - i) for i in range(n + 1)]
            assert got == want


def test_number_denominators_are_powers_of_one_minus_lambda():
    for r in range(1, 5):
        for n, h in enumerate(fe_numbers(8, r)):
            d = len(h.den.coeffs) - 1
            if d <= 0:
                continue
            assert h.den.coeffs == ((ONE - LAMBDA) ** d).num.coeffs


def test_order_one_numbers_are_eulerian_polynomials_up_to_60():
    # A_n(L) / (L - 1)^n with A_n from the integer Eulerian recurrence;
    # A_n(1) = n! != 0, so the fraction is already reduced and its
    # canonical form is (-1)^n A_n(L) over (1 - L)^n
    row = [1]
    h = fe_numbers(60, 1)
    for n in range(61):
        if n:
            row = [(k + 1) * (row[k] if k < len(row) else 0)
                   + (n - k) * (row[k - 1] if k else 0) for k in range(n)]
        sign = -1 if n % 2 else 1
        assert h[n].num.coeffs == tuple(Fraction(sign * a) for a in row), n
        assert h[n].den.coeffs == tuple(Fraction((-1) ** k * comb(n, k)) for k in range(n + 1)), n


def _memos_in_namespaces():
    # every object with cache_clear bound in a feuler module or in a class
    # defined there; __main__ is left out, since importing it runs the CLI
    found = set()
    for info in pkgutil.iter_modules(feuler.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"feuler.{info.name}")
        spaces = [vars(module)] + [vars(v) for v in vars(module).values()
                                   if isinstance(v, type) and v.__module__ == module.__name__]
        for space in spaces:
            for v in space.values():
                v = getattr(v, "__func__", v)  # a static or class method's function
                if hasattr(v, "cache_clear"):
                    found.add(v)
    return found


def test_clear_caches_empties_every_memo():
    def values():
        # the last is a sum over two distinct r, 1 + L and 2 - L
        return (fe_numbers(6, 3), fe_poly(6, 2), fe_numbers(6, -2), stirling_lambda(6, 3),
                lowering_coeff(3, 5), fe_series(2, 6).coeffs, frobenius._split_sum_numbers(4, 2, 1),
                frobenius._j_at_zero(5, 3), LambdaRat(1, [1, 1]) + LambdaRat(1, [2, -1]))

    before = values()
    # a memoized polynomial is the same object on every call
    assert fe_poly(5, 2) is fe_poly(5, 2)
    memos = frobenius._MEMOS
    assert _memos_in_namespaces() == set(memos)
    assert all(m.cache_info().currsize for m in memos)
    frobenius.clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
    assert values() == before


def test_clear_caches_frees_what_a_large_row_held():
    # read from tracemalloc, not RSS: the allocator keeps freed pages
    frobenius.clear_caches()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fe_numbers(400, 1)
        held, _ = tracemalloc.get_traced_memory()
        frobenius.clear_caches()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - start > 10 * 2**20, held - start
    assert left - start < 2**20, left - start
