"""Truncated exponential series acting on polynomials.

A series f(t) = sum_k a_k t^k / k! is kept as the tuple of its divided
coefficients a_0..a_N together with the truncation bound N.  In this
representation multiplication is binomial convolution and the pairing
with polynomials is a plain dot product (<f | x^n> = a_n): ``functional``
is f as a linear functional on ``XPoly``.  As an operator t^k acts on p
as the k-th derivative, and ``appell_expand(g, p)`` is the coefficient
list of g(t)p(x), which is p in the Appell basis of g.
"""

from __future__ import annotations

from math import comb

from .scalar import ONE, ZERO, LambdaRat, _coerce, dot, lrat
from .xpoly import XPoly


class NotInvertibleError(ValueError):
    """Reciprocal of a series whose constant term vanishes."""


class TruncationError(ValueError):
    """A computation needs more series coefficients than were kept."""


class TruncSeries:
    """Exponential power series truncated past degree ``trunc``."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=(), trunc=None):
        cs = [lrat(c) for c in coeffs]
        if trunc is None:
            trunc = len(cs) - 1
        if trunc < 0:
            raise ValueError("truncation bound must be >= 0")
        if len(cs) > trunc + 1:
            del cs[trunc + 1:]
        while len(cs) < trunc + 1:
            cs.append(ZERO)
        self.coeffs = tuple(cs)
        self.trunc = trunc

    @classmethod
    def _raw(cls, coeffs: tuple, trunc: int) -> "TruncSeries":
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.trunc = trunc
        return self

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries":
        return cls._raw((ONE,) + (ZERO,) * trunc, trunc)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.trunc))

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            s = _coerce(other)
            if s is NotImplemented:
                return NotImplemented
            return TruncSeries._raw(tuple(c * s for c in self.coeffs), self.trunc)
        n = min(self.trunc, other.trunc)
        a, b = self.coeffs, other.coeffs
        out = tuple(dot((comb(m, k), a[k], b[m - k]) for k in range(m + 1)) for m in range(n + 1))
        return TruncSeries._raw(out, n)

    __rmul__ = __mul__

    def mul_t_power(self, k: int) -> "TruncSeries":
        """Product with t^k, which shifts divided coefficients upward."""
        out = [ZERO] * (self.trunc + 1)
        for m in range(k, self.trunc + 1):
            c = self.coeffs[m - k]
            if not c.is_zero:
                # m! / (m-k)!
                f = 1
                for i in range(m - k + 1, m + 1):
                    f *= i
                out[m] = c * f
        return TruncSeries._raw(tuple(out), self.trunc)

    def recip(self) -> "TruncSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        a = self.coeffs
        if a[0].is_zero:
            raise NotInvertibleError("series of order >= 1 has no reciprocal")
        b0 = a[0].inverse()
        out = [b0]
        for n in range(1, self.trunc + 1):
            out.append(-b0 * dot((comb(n, k), a[k], out[n - k]) for k in range(1, n + 1)))
        return TruncSeries._raw(tuple(out), self.trunc)

    def __pow__(self, n: int):
        base = self
        if n < 0:
            base = self.recip()
            n = -n
        out = TruncSeries.one(base.trunc)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
            if len(parts) or k > 0 or not c.is_poly:
                body = f"({body})"
            if k == 0:
                parts.append(body)
            elif k == 1:
                parts.append(f"{body}*t")
            else:
                parts.append(f"{body}/{k}!*t^{k}")
        shown = " + ".join(parts) if parts else "0"
        return f"{shown} (order {self.trunc})"

    def __repr__(self):
        return f"TruncSeries({self})"


def appell_sequence(g: TruncSeries, n_max: int) -> list:
    """First n_max+1 members of the Appell sequence attached to g.

    s_n = g(t)^{-1} x^n, so the leading coefficient of s_n is 1/g(0);
    it is 1 (monic) exactly when g has constant term 1.
    """
    if n_max > g.trunc:
        raise TruncationError(
            f"need {n_max} series coefficients, kept {g.trunc}")
    h = g.recip().coeffs
    out = []
    for n in range(n_max + 1):
        cs = [comb(n, m) * h[n - m] for m in range(n + 1)]
        out.append(XPoly(cs))
    return out


def appell_expand(g: TruncSeries, p: XPoly) -> list:
    """Coefficients of p in the Appell basis of g.

    C_k = <g(t) t^k | p> / k!, the coefficient of x^k in g(t)p(x),
    returned for k = 0..deg p, so that p = sum_k C_k s_k.  The zero
    polynomial has no coefficients.
    """
    if p.is_zero:
        return []
    d = p.degree
    if d > g.trunc:
        raise TruncationError(f"need {d} series coefficients, kept {g.trunc}")
    a, cs = g.coeffs, p.coeffs
    return [dot((comb(n, k), a[n - k], cs[n]) for n in range(k, d + 1)) for k in range(d + 1)]
