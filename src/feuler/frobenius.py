"""Frobenius-Euler numbers and polynomials of any integer order.

H_n^{(r)}(x|L) is the Appell sequence attached to the invertible series
g(t) = ((e^t - L)/(1 - L))^r over Q(L).  The numbers of every integer
order come from one integer recurrence, each numerator over a power of
(1 - L) from the one before, Carlitz's Eulerian recurrence at order 1
(see ``_row``), with no arithmetic in Q(L).  The order-lowering operator
J: p(x) -> (p(x+1) - L p(x))/(1 - L) is g(D); its powers J^s read the
rows of order -s, step between orders, change the order-r basis both
ways (``to_fe_basis`` is J^r, ``from_fe_basis`` J^(-r), both through
``j_lambda``), and connect the polynomials to the L-analogue of the
Stirling numbers of the second kind.

Every memo is a ``functools.lru_cache`` listed in ``_MEMOS``, scalar's
memos of the rows of (1 - L)^e and of common denominators among them;
the rows of numbers are one of them, a list per order that ``_row``
extends on demand from its last entry.  ``clear_caches()`` empties all
of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .scalar import (LAMBDA, ONE, ZERO, LambdaRat, _common_den, _iprim, _itrim,
                     _one_minus_l_pow, _strip, dot)
from .umbral import TruncSeries
from .xpoly import XPoly

_INV = (ONE - LAMBDA).inverse()


@lru_cache(maxsize=None)
def _rows(r: int) -> list:
    # the row of order r as built so far, which _row extends in place
    return [ONE]


def _row(r: int, n_max: int) -> list:
    """The cached row H_0^{(r)}(L), H_1^{(r)}(L), ..., extended to n_max.

    G = ((1 - L)/(e^t - L))^r, the generating function of the row,
    satisfies dG/dt = -r G/(1 - L) - L dG/dL, so H_n = -r H_{n-1}/(1 - L)
    - L dH_{n-1}/dL.  Each step reads the last entry, a p / (1 - L)^e:
    H_n = a N / (1 - L)^(e+1) with N = -(r + eL) p - L(1 - L) p', that is
    c_k = (k - e - 1) p_{k-1} - (r + k) p_k.  At r = 1 the numerators are
    the Eulerian polynomials up to sign.  Each entry is N over (1 - L)^(e+1)
    with the common factors (1 - L) stripped, at most those of one step,
    and the content taken: the numerator is then prime to the denominator
    and the value canonical.  A zero entry (order 0) stays zero.
    """
    row = _rows(r)
    for _ in range(len(row), n_max + 1):
        h = row[-1]
        p, e = h.p, h.e
        num = _itrim([(k - e - 1) * b - (r + k) * a
                      for k, (a, b) in enumerate(zip(p + (0,), (0,) + p))])
        if not num:
            row.append(ZERO)
            continue
        num, e = _strip(num, e + 1)
        a, num = _iprim(num)
        row.append(LambdaRat._make(a * h.a, 1, tuple(num), e))
    return row


def clear_caches():
    """Empty every memo in _MEMOS."""
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


def j_lambda(p: XPoly, s: int = 1) -> XPoly:
    """s-fold application of J: p(x) -> (p(x+1) - L p(x))/(1 - L), any integer s.

    J is g(D) for g(t) = (e^t - L)/(1 - L), and g(t)^s has the order -s
    numbers as its divided coefficients, so J^s x^m = H_m^{(-s)}(x|L) and
    the x^k coefficient of J^s p is sum_{m>=k} C(m,k) c_m H_{m-k}^{(-s)}(L):
    one dot of at most d - k terms over the row, the nonzero c_m listed
    once and the zero terms left out before C(m,k) is taken.  For s >= 0
    that is Theorem 1's evaluation formula with its sum over the shifts j
    done first.  fe_numbers is looked up by name when it runs, so a
    rebound module attribute is the row J reads.
    """
    cs = p.coeffs
    h = fe_numbers(len(cs) - 1, -s)
    terms = [m for m, c in enumerate(cs) if c]
    return XPoly._trimmed([dot((comb(m, k), cs[m], h[m - k])
                               for m in terms if m >= k and h[m - k])
                           for k in range(len(cs))])


@lru_cache(maxsize=None)
def _j_at_zero(m: int, r: int) -> LambdaRat:
    """(J H_m^{(r)})(0) = (H_m^{(r)}(1) - L H_m^{(r)}(0))/(1 - L), read off the
    order-r polynomial; fe_poly is looked up by name when it runs.

    J H_n^{(r)} is an Appell sequence, so its x^k coefficient is
    C(n, k) _j_at_zero(n - k, r).
    """
    p = fe_poly(m, r)
    return (p.evaluate(1) - LAMBDA * p.coeffs[0]) * _INV


def delta_pow_at_zero(n: int, k: int) -> LambdaRat:
    """k-th power of the difference p(x) -> p(x+1) - L p(x), on x^n, at 0."""
    # integer coefficients in L of sum_j C(k,j)(-L)^{k-j} j^n, with 0^0 = 1:
    # the coefficient of L^m is C(k,m)(-1)^m (k-m)^n, the m-th entry of the
    # row of (1 - L)^k times (k-m)^n; the last, 0^n, is zero for n > 0 and
    # left out, so the list ends in a nonzero coefficient
    row = _one_minus_l_pow(k)
    c = [row[m] * (k - m) ** n for m in range(k + 1 if n == 0 else k)]
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


def _surjection_row(l: int, m_max: int) -> list:
    # surj(l, 0), ..., surj(l, m_max) in one pass per element of the l-set,
    # each from surj(l, m) = m (surj(l-1, m-1) + surj(l-1, m))
    row = [1] + [0] * m_max
    for _ in range(l):
        for j in range(m_max, 0, -1):
            row[j] = j * (row[j - 1] + row[j])
        row[0] = 0
    return row


def surjection_sum(l: int, m: int) -> int:
    """Sum of multinomial(l; k_1..k_m) over compositions of l into m parts >= 1:
    the number of surjections from an l-set onto an m-set."""
    return _surjection_row(l, m)[m]


@lru_cache(maxsize=None)
def lowering_coeff(s: int, l: int) -> LambdaRat:
    """Weight of C(n,l) H_{n-l}^{(r)} when an order-r sequence is lowered s steps.

    sum_{m <= M} C(s,m) (1-L)^{-m} surj(l, m), M = min(s, l): every term
    past M vanishes, since C(s,m) = 0 for m > s and no l-set maps onto a
    larger set.  The counts are one row, looked up by name when it runs.
    """
    m_max = min(s, l)
    surj = _surjection_row(l, m_max)
    return dot((comb(s, m) * surj[m], ONE, LambdaRat._make(1, 1, (1,), m))
               for m in range(m_max + 1))


@lru_cache(maxsize=None)
def _split_sum_numbers(n: int, r: int, s: int) -> LambdaRat:
    # sum_l C(n,l) lowering_coeff(s, l) H_{n-l}^{(r)}(L); both looked up when it runs
    row = fe_numbers(n, r)
    return dot((comb(n, l), lowering_coeff(s, l), row[n - l]) for l in range(n + 1))


# held here, not looked up by name, so that clear_caches reaches the caches
# even when a module attribute has been rebound to a wrapper; the last two
# are scalar's memos of the rows of (1 - L)^e and of common denominators
_MEMOS = (_rows, fe_poly, _longest_series, _j_at_zero, lowering_coeff, _split_sum_numbers,
          _one_minus_l_pow, _common_den)


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
    """Recombine basis coefficients into the polynomial they expand: H_k^{(r)}
    is J^(-r) x^k, so sum_k c_k H_k^{(r)} is J^(-r) of sum_k c_k x^k."""
    return j_lambda(XPoly(expansion.coefficients), -expansion.order)
