"""Truncated exponential series acting on polynomials.

A series f(t) = sum_k a_k t^k / k! is kept as the tuple of its divided
coefficients a_0..a_N alone; the truncation bound N is its length less
one.  In this representation multiplication is binomial convolution and
the pairing with polynomials is a plain dot product (<f | x^n> = a_n):
``functional`` is f as a linear functional on ``XPoly``.  As an operator
t^k acts on p as the k-th derivative, and ``appell_expand(g, p)`` is the
coefficient list of g(t)p(x), which is p in the Appell basis of g.
A series is built by ``_raw`` alone, from the coefficients it keeps:
the library's series are ``TruncSeries.one``, ``fe_series`` and what
products and powers make of them, compared through their ``coeffs``.

A power f^n of a unit f, n of either sign, comes from J.C.P. Miller's
recurrence (Knuth, TAOCP vol. 2, 4.7), read off f h' = n f' h for h = f^n:
b_0 = a_0^n and b_m = (a_0^-1 / m) sum_{k=1..m} C(m,k)((n+1)k - m) a_k b_{m-k}.
Each coefficient is one ``dot`` and a scaling, whatever |n| is, and at
n = -1 the recurrence is the reciprocal's.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .scalar import ONE, ZERO, LambdaRat, dot
from .xpoly import XPoly


class NotInvertibleError(ValueError):
    """A power n != 0 of a series whose constant term vanishes."""


class TruncationError(ValueError):
    """A computation needs more series coefficients than were kept."""


class TruncSeries:
    """Exponential power series truncated past degree ``trunc``."""

    __slots__ = ("coeffs",)

    def __new__(cls, *args, **kwargs):
        raise TypeError("TruncSeries has no public constructor: "
                        "series come from fe_series and TruncSeries.one")

    @classmethod
    def _raw(cls, coeffs: tuple) -> "TruncSeries":
        # trusted: a nonempty tuple of LambdaRat, one per kept degree
        self = object.__new__(cls)
        self.coeffs = coeffs
        return self

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries":
        return cls._raw((ONE,) + (ZERO,) * trunc)

    @property
    def trunc(self) -> int:
        """The truncation bound: the highest degree kept."""
        return len(self.coeffs) - 1

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        a, b = self.coeffs, other.coeffs
        out = tuple(dot((comb(m, k), a[k], b[m - k]) for k in range(m + 1)) for m in range(n + 1))
        return TruncSeries._raw(out)

    __rmul__ = __mul__

    def mul_t_power(self, k: int) -> "TruncSeries":
        """Product with t^k, which shifts divided coefficients upward."""
        cs = self.coeffs
        out = (ZERO,) * min(k, self.trunc + 1) + tuple(
            cs[m - k] * perm(m, k) if cs[m - k].p else ZERO for m in range(k, self.trunc + 1))
        return TruncSeries._raw(out)

    def recip(self) -> "TruncSeries":
        """Multiplicative inverse, the power -1; needs a nonzero constant term."""
        return self ** -1

    def __pow__(self, n: int):
        """f^n by Miller's recurrence (see the module docstring), for a unit f;
        a series with no constant term fails for n != 0 before any product."""
        a, top = self.coeffs, self.trunc
        if not n:
            return TruncSeries.one(top)
        if a[0].is_zero:
            raise NotInvertibleError("powers need a nonzero constant term")
        inv = a[0].inverse()
        out = [a[0] ** n]
        for m in range(1, top + 1):
            s = dot((comb(m, k) * ((n + 1) * k - m), a[k], out[m - k]) for k in range(1, m + 1))
            out.append(s * (inv * Fraction(1, m)))
        return TruncSeries._raw(tuple(out))

    def functional(self, p: XPoly) -> LambdaRat:
        """<f | p>: the linear functional with <t^k | x^n> = n! delta."""
        d = len(p.coeffs) - 1
        if d > self.trunc:
            raise TruncationError(
                f"need {d} series coefficients, kept {self.trunc}")
        return dot((1, a, c) for a, c in zip(self.coeffs, p.coeffs))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            body = c.embed_str()
            if k == 0:
                parts.append(body if c.is_poly else f"({body})")
            else:
                parts.append(f"({body})*t" if k == 1 else f"({body})/{k}!*t^{k}")
        return f"{' + '.join(parts) or '0'} (order {self.trunc})"


def appell_expand(g: TruncSeries, p: XPoly) -> list:
    """Coefficients of p in the Appell basis of g.

    C_k = <g(t) t^k | p> / k!, the coefficient of x^k in g(t)p(x),
    returned for k = 0..deg p, so that p = sum_k C_k s_k with
    s_k = g(t)^{-1} x^k.  The zero polynomial has no coefficients.
    """
    if p.is_zero:
        return []
    d = p.degree
    if d > g.trunc:
        raise TruncationError(f"need {d} series coefficients, kept {g.trunc}")
    a, cs = g.coeffs, p.coeffs
    return [dot((comb(n, k), a[n - k], cs[n]) for n in range(k, d + 1)) for k in range(d + 1)]
