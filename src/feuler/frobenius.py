"""Frobenius-Euler numbers and polynomials of any integer order.

H_n^{(r)}(x|L) is the Appell sequence attached to the invertible series
g(t) = ((e^t - L)/(1 - L))^r over Q(L).  The numbers of every integer
order come from one integer recurrence for their numerators over
(1 - L)^n, Carlitz's Eulerian recurrence at order 1 (see ``_row``), with
no arithmetic in Q(L).  The order-lowering operator J: p(x) -> (p(x+1) -
L p(x))/(1 - L) steps between orders, and its powers connect the
polynomials to the L-analogue of the Stirling numbers of the second kind.

Every memo is a ``functools.lru_cache`` listed in ``_MEMOS``, scalar's
memo of the rows of (1 - L)^e among them, except the rows of numbers,
which live in ``_ROWS`` (order -> the row and its last numerator) and are
extended on demand; ``clear_caches()`` empties all of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .scalar import (LAMBDA, ONE, ZERO, LambdaRat, _iprim, _itrim, _one_minus_l_pow, _strip,
                     dot)
from .umbral import TruncSeries
from .xpoly import XPoly

_INV = (ONE - LAMBDA).inverse()

_ROWS = {}


def _row(r: int, n_max: int) -> list:
    """The cached row H_0^{(r)}(L), H_1^{(r)}(L), ..., extended to n_max.

    G = ((1 - L)/(e^t - L))^r, the generating function of the row,
    satisfies dG/dt = -r G/(1 - L) - L dG/dL, so the integer polynomials
    N_n = (1 - L)^n H_n^{(r)} follow N_0 = 1 and
    N_n = -(r + (n - 1)L) N_{n-1} - L(1 - L) N_{n-1}', that is
    c_k = -(r + k) a_k + (k - n) a_{k-1} with a = N_{n-1}.  At r = 1,
    (-1)^n N_n is the Eulerian polynomial A_n.  Each entry is N_n over
    (1 - L)^n with the common factors (1 - L) stripped: the numerator is
    then prime to the denominator and the value canonical.  _ROWS[r]
    holds the row and the last numerator, from which it is extended.
    """
    row, num = _ROWS.setdefault(r, ([ONE], [1]))
    if len(row) > n_max:
        return row
    for n in range(len(row), n_max + 1):
        num = _itrim([(k - n) * b - (r + k) * a
                      for k, (a, b) in enumerate(zip(num + [0], [0] + num))])
        if not num:
            row.append(ZERO)
            continue
        p, e = _strip(num, n)
        a, p = _iprim(p)
        row.append(LambdaRat._make(a, 1, tuple(p), e))
    _ROWS[r] = (row, num)
    return row


def clear_caches():
    """Empty every memo: the rows of numbers and the lru_caches in _MEMOS."""
    _ROWS.clear()
    for memo in _MEMOS:
        memo.cache_clear()


def fe_numbers(n_max: int, r: int = 1) -> list:
    """Numbers H_0^{(r)}(L) .. H_{n_max}^{(r)}(L), any integer order."""
    return _row(r, n_max)[: n_max + 1]


@lru_cache(maxsize=None)
def fe_poly(n: int, r: int = 1) -> XPoly:
    """The monic degree-n polynomial H_n^{(r)}(x|L)."""
    row = _row(r, n)
    # row entries have integer content (b == 1), which C(n, l) scales, and r = 1
    return XPoly([LambdaRat._make(comb(n, l) * h.a, 1, h.p, h.e)
                  for l, h in enumerate(reversed(row[:n + 1]))])


def fe_series(r: int, trunc: int) -> TruncSeries:
    """The series ((e^t - L)/(1 - L))^r that the order-r sequence inverts, sliced
    from one power per order: its coefficient k does not depend on trunc."""
    full = _longest_series(r, max(16, 1 << (trunc - 1).bit_length()))
    return TruncSeries._raw(full.coeffs[:trunc + 1])


@lru_cache(maxsize=None)
def _longest_series(r: int, trunc: int) -> TruncSeries:
    return TruncSeries._raw((ONE,) + (_INV,) * trunc) ** r


def _shift_weights(s: int) -> list:
    """w_j = (-L)^{s-j} / (1-L)^s for j = 0..s, the weights of the shifts
    p(x + j) in J^s, so J^s p = sum_j C(s,j) w_j p(x + j).  L^(s-j) is prime
    to (1 - L)^s, so each is built in canonical form."""
    return [LambdaRat._make((-1) ** (s - j), 1, (0,) * (s - j) + (1,), s) for j in range(s + 1)]


def j_lambda(p: XPoly, s: int = 1) -> XPoly:
    """s-fold application of J: p(x) -> (p(x+1) - L p(x))/(1 - L).

    J^s p = sum_j C(s,j) w_j p(x + j), w_j from ``_shift_weights``; with the
    shifts expanded its x^k coefficient is Theorem 1's evaluation formula
    sum_{j<=s} sum_{m>=k} C(s,j) C(m,k) j^(m-k) w_j c_m (0^0 = 1), one dot.
    """
    if s < 0:
        raise ValueError("negative power of the lowering operator")
    weights = _shift_weights(s)
    cs = p.coeffs
    return XPoly._trimmed([dot((comb(s, j) * comb(m, k) * j ** (m - k), w, cs[m])
                               for j, w in enumerate(weights)
                               for m in range(k, len(cs) if j else k + 1))
                           for k in range(len(cs))])


@lru_cache(maxsize=None)
def _delta_coeffs(n: int, k: int) -> tuple:
    # integer coefficients in L of sum_j C(k,j)(-L)^{k-j} j^n, with 0^0 = 1:
    # the coefficient of L^m is C(k,m)(-1)^m (k-m)^n, the m-th entry of the
    # row of (1 - L)^k times (k-m)^n; the last, 0^n, is zero for n > 0 and
    # left out, so the tuple ends in a nonzero coefficient
    row = _one_minus_l_pow(k)
    return tuple(row[m] * (k - m) ** n for m in range(k + 1 if n == 0 else k))


def delta_pow_at_zero(n: int, k: int) -> LambdaRat:
    """k-th power of the difference p(x) -> p(x+1) - L p(x), on x^n, at 0."""
    c = _delta_coeffs(n, k)
    if not c:
        return ZERO
    a, p = _iprim(c)
    return LambdaRat._make(a, 1, tuple(p))


def stirling_lambda(n: int, k: int) -> LambdaRat:
    """L-analogue of the Stirling numbers of the second kind.

    S_L(n,k) = (1/k!) sum_j C(k,j)(-L)^{k-j} j^n; at L = 1 these are the
    classical S(n,k).
    """
    return delta_pow_at_zero(n, k) * Fraction(1, factorial(k))


@lru_cache(maxsize=None)
def surjection_sum(l: int, m: int) -> int:
    """Sum of multinomial(l; k_1..k_m) over compositions of l into m parts >= 1.

    That is the number of surjections from an l-set onto an m-set, built
    row by row in l from surj(l, m) = m (surj(l-1, m-1) + surj(l-1, m)).
    """
    if m > l:
        return 0
    row = [1] + [0] * m
    for _ in range(l):
        for j in range(m, 0, -1):
            row[j] = j * (row[j - 1] + row[j])
        row[0] = 0
    return row[m]


@lru_cache(maxsize=None)
def lowering_coeff(s: int, l: int) -> LambdaRat:
    """Weight of C(n,l) H_{n-l}^{(r)} when an order-r sequence is lowered s steps.

    sum_{m <= min(s, l)} C(s,m) (1-L)^{-m} * surjection_sum(l, m); every
    term past that bound vanishes, since C(s,m) = 0 for m > s and no
    l-set maps onto a larger set.
    """
    return dot((comb(s, m) * surjection_sum(l, m), ONE,
                LambdaRat._make(1, 1, (1,), m)) for m in range(min(s, l) + 1))


@lru_cache(maxsize=None)
def _split_sum_numbers(n: int, r: int, s: int) -> LambdaRat:
    # sum_l C(n,l) lowering_coeff(s, l) H_{n-l}^{(r)}(L); both looked up when it runs
    row = fe_numbers(n, r)
    return dot((comb(n, l), lowering_coeff(s, l), row[n - l]) for l in range(n + 1))


# held here, not looked up by name, so that clear_caches reaches the caches
# even when a module attribute has been rebound to a wrapper; the last is
# scalar's memo of the rows of (1 - L)^e
_MEMOS = (fe_poly, _longest_series, _delta_coeffs, surjection_sum, lowering_coeff,
          _split_sum_numbers, _one_minus_l_pow)


class BasisExpansion(namedtuple("BasisExpansion", "order coefficients")):
    """Coefficients of a polynomial in the order-r basis H_k^{(r)}(x|L).

    A named tuple of the order and the coefficient tuple, so an immutable
    value: equal order and coefficients compare and hash equal.
    """

    __slots__ = ()


def to_fe_basis(p: XPoly, r: int) -> BasisExpansion:
    """Expand p in the order-r basis: g(t) = (e^t - L)/(1 - L) acts as J on
    polynomials, so C_k = <g^r t^k | p>/k! is the x^k coefficient of J^r p."""
    return BasisExpansion(r, j_lambda(p, r).coeffs)


def from_fe_basis(expansion: BasisExpansion) -> XPoly:
    """Recombine basis coefficients into the polynomial they expand."""
    cs = expansion.coefficients
    polys = [fe_poly(k, expansion.order).coeffs for k in range(len(cs))]
    return XPoly._trimmed([dot((1, cs[k], polys[k][m]) for k in range(m, len(cs)))
                           for m in range(len(cs))])
