"""Polynomials in x over the scalar field Q(L)."""

from __future__ import annotations

from math import comb

from .scalar import NEG_INF, ONE, ZERO, LambdaRat, _coerce, dot, lrat


class XPoly:
    """Polynomial in x with coefficients in Q(L), stored ascending.

    The coefficient tuple carries no trailing zero, so degree and leading
    coefficient read straight off the representation and equal values are
    structurally equal.  ``_text`` keeps the first ``str()``.
    """

    __slots__ = ("coeffs", "_text")

    def __init__(self, coeffs=()):
        cs = [lrat(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "XPoly":
        # trusted: trimmed tuple of LambdaRat
        self = object.__new__(cls)
        self.coeffs = coeffs
        return self

    @classmethod
    def _trimmed(cls, coeffs: list) -> "XPoly":
        # trusted: list of LambdaRat, trailing zeros dropped here
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        return cls._raw(tuple(coeffs))

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "XPoly":
        c = lrat(coeff)
        if c.is_zero:
            return cls._raw(())
        return cls._raw((ZERO,) * k + (c,))

    @classmethod
    def const(cls, value) -> "XPoly":
        return cls.monomial(0, value)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int) -> LambdaRat:
        """Coefficient of x^k."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def __add__(self, other):
        if not isinstance(other, XPoly):
            s = _coerce(other)
            if s is NotImplemented:
                return NotImplemented
            other = XPoly.monomial(0, s)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly._trimmed(out)

    __radd__ = __add__

    def __neg__(self):
        return XPoly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, XPoly):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            s = _coerce(other)
            if s is NotImplemented:
                return NotImplemented
            if s.is_zero:
                return XPoly._raw(())
            return XPoly._raw(tuple(c * s for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPoly._raw(())
        nb = len(b) - 1
        out = [dot((1, a[i], b[m - i]) for i in range(max(0, m - nb), min(m, len(a) - 1) + 1))
               for m in range(len(a) + nb)]
        return XPoly._trimmed(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = XPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def derivative(self) -> "XPoly":
        """The derivative with respect to x."""
        cs = self.coeffs
        return XPoly._raw(tuple(cs[k] * k for k in range(1, len(cs))))

    def shift(self, a) -> "XPoly":
        """p(x + a), expanded binomially so coefficients stay canonical."""
        a = lrat(a)
        if a.is_zero or not self.coeffs:
            return self
        n = len(self.coeffs) - 1
        apow = [ONE]
        for _ in range(n):
            apow.append(apow[-1] * a)
        cs = self.coeffs
        out = [dot((comb(m, k), cs[m], apow[m - k]) for m in range(k, n + 1))
               for k in range(n + 1)]
        return XPoly._trimmed(out)

    def evaluate(self, point) -> LambdaRat:
        """Value at a point of Q(L): the sum of c_m point^m."""
        point = lrat(point)
        powers = [ONE]
        for _ in range(len(self.coeffs) - 1):
            powers.append(powers[-1] * point)
        return dot((1, c, v) for c, v in zip(self.coeffs, powers))

    def __eq__(self, other):
        if isinstance(other, XPoly):
            return self.coeffs == other.coeffs
        s = _coerce(other)
        if s is NotImplemented:
            return NotImplemented
        if s.is_zero:
            return not self.coeffs
        return len(self.coeffs) == 1 and self.coeffs[0] == s

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else ZERO)
        return hash(self.coeffs)

    def __str__(self):
        if not hasattr(self, "_text"):
            parts = []
            for k in range(len(self.coeffs) - 1, -1, -1):
                c = self.coeffs[k]
                if c.is_zero:
                    continue
                body = c.embed_str()
                if c.p != (1,) or not c.is_poly or c.a < 0:  # not a positive constant
                    body = f"({body})"
                parts.append(f"{body}*x^{k}")
            self._text = " + ".join(parts) or "0"
        return self._text

    def __repr__(self):
        return f"XPoly({self})"


X = XPoly.monomial(1)
