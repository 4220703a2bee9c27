"""Frobenius-Euler numbers and polynomials of any integer order.

H_n^{(r)}(x|L) is the Appell sequence attached to the invertible series
g(t) = ((e^t - L)/(1 - L))^r over Q(L).  Order-1 numbers come from the
recurrence forced by (e^t - L) * sum H_n t^n/n! = 1 - L; higher orders
are binomial convolutions; negative orders fall out of the order-lowering
operator J: p(x) -> (p(x+1) - L p(x))/(1 - L), whose powers connect the
polynomials to the L-analogue of the Stirling numbers of the second kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .scalar import LAMBDA, ONE, ZERO, LambdaPoly, LambdaRat, lrat
from .umbral import TruncSeries
from .xpoly import XPoly

_ONE_MINUS_L = ONE - LAMBDA
_INV = _ONE_MINUS_L.inverse()
_L_MINUS_ONE_INV = (LAMBDA - ONE).inverse()


class FeulerCache:
    """Memoized tables of numbers (by order), polynomials (by n, order)
    and series (by order, truncation)."""

    def __init__(self):
        self._rows = {}
        self._polys = {}
        self._series = {}

    def clear(self):
        self._rows.clear()
        self._polys.clear()
        self._series.clear()

    def _row(self, r: int, n_max: int) -> list:
        row = self._rows.setdefault(r, [])
        if len(row) > n_max:
            return row
        if r == 0:
            if not row:
                row.append(lrat(1))
            row.extend([ZERO] * (n_max + 1 - len(row)))
        elif r == 1:
            if not row:
                row.append(lrat(1))
            for n in range(len(row), n_max + 1):
                acc = ZERO
                for k in range(n):
                    acc = acc + comb(n, k) * row[k]
                row.append(acc * _L_MINUS_ONE_INV)
        elif r > 1:
            prev = self._row(r - 1, n_max)
            base = self._row(1, n_max)
            for n in range(len(row), n_max + 1):
                acc = ZERO
                for i in range(n + 1):
                    pi = prev[i]
                    bj = base[n - i]
                    if not pi.is_zero and not bj.is_zero:
                        acc = acc + comb(n, i) * pi * bj
                row.append(acc)
        else:
            s = -r
            scale = _INV ** s
            for n in range(len(row), n_max + 1):
                row.append(delta_pow_at_zero(n, s) * scale)
        return row

    def number(self, n: int, r: int = 1) -> LambdaRat:
        return self._row(r, n)[n]

    def numbers(self, n_max: int, r: int = 1) -> list:
        return list(self._row(r, n_max)[: n_max + 1])

    def poly(self, n: int, r: int = 1) -> XPoly:
        key = (n, r)
        p = self._polys.get(key)
        if p is None:
            row = self._row(r, n)
            cs = [comb(n, l) * row[n - l] for l in range(n + 1)]
            p = XPoly(cs)
            self._polys[key] = p
        return p

    def series(self, r: int, trunc: int) -> TruncSeries:
        key = (r, trunc)
        g = self._series.get(key)
        if g is None:
            g = self._series[key] = fe_series(r, trunc)
        return g


_CACHE = FeulerCache()


def clear_caches():
    """Empty every memo: the shared tables and the lru_caches below."""
    _CACHE.clear()
    for memo in _MEMOS:
        memo.cache_clear()


def fe_numbers(n_max: int, r: int = 1) -> list:
    """Numbers H_0^{(r)}(L) .. H_{n_max}^{(r)}(L), any integer order."""
    return _CACHE.numbers(n_max, r)


def fe_poly(n: int, r: int = 1) -> XPoly:
    """The monic degree-n polynomial H_n^{(r)}(x|L)."""
    return _CACHE.poly(n, r)


def fe_series(r: int, trunc: int) -> TruncSeries:
    """The series ((e^t - L)/(1 - L))^r that the order-r sequence inverts."""
    base = TruncSeries._raw((ONE,) + (_INV,) * trunc, trunc)
    return base ** r


def cached_series(r: int, trunc: int) -> TruncSeries:
    """fe_series(r, trunc), memoized in the shared tables."""
    return _CACHE.series(r, trunc)


def j_lambda(p: XPoly, s: int = 1) -> XPoly:
    """s-fold application of J: p(x) -> (p(x+1) - L p(x))/(1 - L).

    Expanded in closed form: J^s p = (1-L)^{-s} sum_j C(s,j)(-L)^{s-j} p(x+j).
    """
    if s < 0:
        raise ValueError("negative power of the lowering operator")
    if s == 0:
        return p
    acc = XPoly([])
    for j in range(s + 1):
        w = comb(s, j) * (-LAMBDA) ** (s - j)
        acc = acc + p.shift(j) * w
    return acc * (_INV ** s)


@lru_cache(maxsize=None)
def _delta_coeffs(n: int, k: int) -> tuple:
    # integer coefficients in L of sum_j C(k,j)(-L)^{k-j} j^n, with 0^0 = 1
    out = [0] * (k + 1)
    for j in range(k + 1):
        base = j ** n if n else 1
        if base:
            m = k - j
            out[m] += comb(k, j) * base * (-1 if m & 1 else 1)
    return tuple(out)


def delta_pow_at_zero(n: int, k: int) -> LambdaRat:
    """k-th power of the difference p(x) -> p(x+1) - L p(x), on x^n, at 0."""
    return lrat(LambdaPoly(_delta_coeffs(n, k)))


def stirling_lambda(n: int, k: int) -> LambdaRat:
    """L-analogue of the Stirling numbers of the second kind.

    S_L(n,k) = (1/k!) sum_j C(k,j)(-L)^{k-j} j^n; at L = 1 these are the
    classical S(n,k).
    """
    return delta_pow_at_zero(n, k) * Fraction(1, factorial(k))


@lru_cache(maxsize=None)
def surjection_sum(l: int, m: int) -> int:
    """Sum of multinomial(l; k_1..k_m) over compositions of l into m parts >= 1.

    Enumerated literally over the compositions; equals the number of
    surjections from an l-set onto an m-set.
    """
    if m == 0:
        return 1 if l == 0 else 0
    if m > l:
        return 0
    fl = factorial(l)
    total = 0
    for cuts in combinations(range(1, l), m - 1):
        prev = 0
        denom = 1
        for c in cuts:
            denom *= factorial(c - prev)
            prev = c
        denom *= factorial(l - prev)
        total += fl // denom
    return total


@lru_cache(maxsize=None)
def _inv_pow(m: int) -> LambdaRat:
    return _INV ** m


@lru_cache(maxsize=None)
def _bracket(s: int, l: int, m_cap: int) -> LambdaRat:
    acc = ZERO
    for m in range(m_cap + 1):
        w = comb(s, m) * surjection_sum(l, m)
        if w:
            acc = acc + w * _inv_pow(m)
    return acc


def lowering_coeff(s: int, l: int, m_cap: int = None) -> LambdaRat:
    """Weight of C(n,l) H_{n-l}^{(r)} when an order-r sequence is lowered s steps.

    sum_{m<=m_cap} C(s,m) (1-L)^{-m} * surjection_sum(l, m); the cap
    defaults to min(s, l), past which every term vanishes anyway.
    """
    if m_cap is None:
        m_cap = min(s, l)
    return _bracket(s, l, m_cap)


# held here, not looked up by name, so that clear_caches reaches the caches
# even when a module attribute has been rebound to a wrapper
_MEMOS = (_delta_coeffs, surjection_sum, _inv_pow, _bracket)


@dataclass(frozen=True)
class BasisExpansion:
    """Coefficients of a polynomial in the order-r basis H_k^{(r)}(x|L)."""

    order: int
    coefficients: tuple

    def __iter__(self):
        return iter(self.coefficients)


def to_fe_basis(p: XPoly, r: int) -> BasisExpansion:
    """Expand p in the order-r basis by the finite evaluation formula.

    C_k = (1/(k! (1-L)^r)) sum_{j=0}^{r} C(r,j)(-L)^{r-j} (D^k p)(j).
    """
    if r < 0:
        raise ValueError("basis expansion needs a nonnegative order")
    if p.is_zero:
        return BasisExpansion(r, ())
    weights = [comb(r, j) * (-LAMBDA) ** (r - j) for j in range(r + 1)]
    points = [lrat(j) for j in range(r + 1)]
    inv_r = _INV ** r
    out = []
    dk = p
    for k in range(p.degree + 1):
        acc = ZERO
        for w, pt in zip(weights, points):
            acc = acc + w * dk.evaluate(pt)
        out.append(acc * inv_r * Fraction(1, factorial(k)))
        dk = dk.derivative()
    return BasisExpansion(r, tuple(out))


def from_fe_basis(expansion: BasisExpansion) -> XPoly:
    """Recombine basis coefficients into the polynomial they expand."""
    acc = XPoly([])
    for k, c in enumerate(expansion.coefficients):
        if not c.is_zero:
            acc = acc + c * fe_poly(k, expansion.order)
    return acc
