"""Exact scalars: the field Q(L) of rational functions in L.

Every value is kept in a canonical form so that equality of mathematical
values coincides with structural (and textual) equality.

* ``LambdaRat`` stores a value as ``(a / b) * p / ((1 - L)^e * r)``:
  ``a`` and ``b`` are coprime ints, ``b > 0``, ``e >= 0``, and ``p`` and
  ``r`` are tuples of ints, ascending, each primitive (content 1) with a
  positive lowest nonzero coefficient; r is prime to 1 - L, and (1,) for
  every Frobenius-Euler value.  p is prime to the denominator, the value
  is a polynomial exactly when e == 0 and r == (1,), and zero is
  ``(0 / 1) * () / 1``.  The split is stored, so no operation recognises
  it again, and every value is read through ``(a, b, p, e, r)``;
  ``q``, the denominator as one tuple, is built from it only to print a
  denominator whole or to turn it into a numerator.  ``_parts`` splits
  only a denominator that arrives whole: in
  ``LambdaRat(num, den)``, and in ``inverse``, whose denominator is the
  old numerator.  Arithmetic reads and writes this form with ints only:
  gcd, exact division and convolution on the tuples, ``math.gcd`` on the
  content.  The polynomial gcd is heuristic (GCDHEU: one big-integer gcd
  of the two polynomials' values at a point, checked by exact division),
  with the primitive pseudo-remainder sequence as its fallback.  A
  product by a constant, an int, a Fraction or a constant ``LambdaRat``,
  scales the content; any other product is ``dot``'s one-term case;
  construction is one ``_reduce`` term, reduced as given; every gcd is
  taken in ``_reduce`` and its memo of common denominators.  A sum of
  terms over (1 - L)^e is taken in Horner order, smallest e first: each
  larger exponent k lifts the running sum by (1 - L)^(k - e) and adds
  the term in one pass.  Then (1 - L) is stripped from the numerator
  while its coefficients sum to zero, one synthetic division
  b_i = a_0 + ... + a_i each; by Gauss's lemma the quotient of a
  primitive polynomial by (1 - L) is primitive with the same lowest
  coefficient.  Only a nontrivial r costs a gcd, so no gcd runs over
  powers of (1 - L).
* ``dot`` is the n-ary kernel under every sum of products in the layers
  above (XPoly products, shifts and values, series products, J, the
  basis changes and the suite's split sums): the sum of w * x * y over
  (int w, LambdaRat x, LambdaRat y) triples, reduced once.  It multiplies
  the numerators, puts the contents over one common integer denominator
  and sums the terms of each r in Horner order; the sums of distinct r
  then go over one common denominator (1 - L)^E * R, R the lcm of the r,
  memoized by the tuple of r since it depends on the denominators only,
  and are summed the same way.  It takes the content, strips and reduces
  against R once, where a pairwise fold does all of that once per
  operation.  ``+`` is the two-term case, each operand with its own
  (e, r).  The result is the pairwise fold's, since the canonical form
  is unique.
* Values enter through ``LambdaRat(num, den)``, each side an int, a
  Fraction or a sequence of them, ascending in L: ``_split`` puts the
  coefficients over the lcm of their denominators and takes the content,
  on ints.  ``lrat`` takes an int or a Fraction only.  ``LambdaPoly`` is
  a bare record of Fraction coefficients with no trailing zero, and no
  behaviour, kept for the benchmark alone: ``LambdaRat(num, den)`` reads
  it like a sequence, and ``.num`` and ``.den`` return it
  (``(a / b) * p`` and ``q``).
* One term walker, ``_render``, prints every polynomial in L from the
  ints ``(a, b, p)``, plain or LaTeX: ``str``, ``embed_str``, ``XPoly``
  and the CLI's LaTeX.  Hashes come from ``(a, b, p, e, r)``, a
  constant's as the rational it equals, so equal values among
  ``LambdaRat``, ``XPoly`` and the rationals hash equal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, zip_longest
from math import gcd, isqrt, lcm
from operator import itemgetter

NEG_INF = float("-inf")  # degree of the zero polynomial


class PoleError(ZeroDivisionError):
    """Evaluation of a LambdaRat at a root of its denominator."""


# ---------------------------------------------------------------------------
# integer-coefficient kernels (ascending sequences of int, trimmed)

def _itrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _imul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _iprim(a) -> tuple:
    """Split a nonzero int sequence into (content, primitive part).

    The primitive part begins with a positive coefficient (lowest nonzero
    term, the one printed first); the sign goes into the content.
    """
    g = gcd(*a)
    for v in a:
        if v:
            if v < 0:
                g = -g
            break
    if g == 1:
        return 1, a
    if g == -1:
        return -1, [-v for v in a]
    return g, [v // g for v in a]


def _irem(a, b) -> list:
    """Integer-scaled remainder of a by b, up to a constant factor.

    Each reduction step scales the remainder by the smallest factor that
    keeps the arithmetic integral, which is all the primitive PRS needs;
    the result is only meaningful up to sign and content.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lead = r[-1]
        if lead == 0:
            r.pop()
            continue
        g = gcd(lead, lb)
        mr = lb // g
        mb = lead // g
        if mr != 1:
            r = [mr * c for c in r]
        off = len(r) - 1 - db
        for i in range(db):
            r[off + i] -= mb * b[i]
        r.pop()
    return _itrim(r)


def _prs_gcd(a, b):
    """Gcd by the primitive pseudo-remainder sequence: the fallback of
    ``_igcd``, with the same inputs and output."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (1,)
        r = _irem(a, b)
        a, b = b, (_iprim(r)[1] if r else ())
    return a


def _igcd(a, b):
    """Gcd of two nonzero primitive int sequences, primitive with a
    positive lowest nonzero coefficient.

    GCDHEU (Char, Geddes & Gonnet 1989): the integer gcd of a(x) and b(x)
    is read back as a polynomial from its symmetric base-x digits.  The
    point x exceeds every common root by more than x/2, so a candidate
    that divides both operands is their gcd (a constant one means they
    are coprime); otherwise x grows, and after six tries ``_prs_gcd``
    decides.
    """
    if len(a) == 1 or len(b) == 1:
        return (1,)
    if a == b:
        return a
    na = max(map(abs, a))
    nb = max(map(abs, b))
    bound = 2 * min(na, nb) + 29
    x = max(min(bound, 99 * isqrt(bound)), 2 * min(na // abs(a[-1]), nb // abs(b[-1])) + 4)
    for _ in range(6):
        h = gcd(_ieval(a, x), _ieval(b, x))
        half = x // 2
        digits = []
        while h:
            d = h % x
            if d > half:
                d -= x
            digits.append(d)
            h = (h - d) // x
        cand = _iprim(digits)[1]
        if len(cand) == 1:
            return (1,)
        if _iquo(a, cand) is not None and _iquo(b, cand) is not None:
            return cand
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return _prs_gcd(a, b)


def _iquo(a, b):
    """Quotient a / b over the integers, or None when b does not divide a."""
    if not a:
        return []
    nb = len(b)
    if len(a) < nb:
        return None
    q = [0] * (len(a) - nb + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[nb - 1 + k]
        if c:
            qc, m = divmod(c, lb)
            if m:
                return None
            q[k] = qc
            for i, bc in enumerate(b):
                r[i + k] -= qc * bc
    if any(r[:nb - 1]):
        return None
    return q


def _ieval(a, x):
    """Value of an int sequence at an int or Fraction point, by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _ipow(a, n: int) -> list:
    out = [1]
    base = a
    while n:
        if n & 1:
            out = _imul(out, base)
        n >>= 1
        if n:
            base = _imul(base, base)
    return out


@lru_cache(maxsize=None)
def _one_minus_l_pow(e: int) -> tuple:
    """(1 - L)^e as its int tuple, the alternating binomial row.

    Built by c_(k+1) = -c_k (e - k)/(k + 1), exact at every step: one
    product and one division per entry, where ``math.comb(e, k)`` costs
    O(k).
    """
    row = [1]
    for k in range(e):
        row.append(-row[k] * (e - k) // (k + 1))
    return tuple(row)


def _lift(p, d: int) -> list:
    """p * (1 - L)^d, one factor at a time: b_i = a_i - a_(i-1)."""
    for _ in range(d):
        p = [u - v for u, v in zip_longest(p, chain((0,), p), fillvalue=0)]
    return p


def _strip(p, e: int) -> tuple:
    """(p / (1 - L)^k, e - k) for the largest k <= e with (1 - L)^k | p.

    p is nonzero; (1 - L) divides it exactly when its coefficients sum to
    zero, and the quotient is b_i = a_0 + ... + a_i.
    """
    while e and not sum(p):
        p = list(accumulate(p[:-1]))
        e -= 1
    return p, e


def _cmul(a1: int, b1: int, a2: int, b2: int) -> tuple:
    """(a1 / b1) * (a2 / b2) in lowest terms, from two reduced fractions."""
    if b1 == b2 == 1:
        return a1 * a2, 1
    g = gcd(a1, b2)
    h = gcd(a2, b1)
    return (a1 // g) * (a2 // h), (b1 // h) * (b2 // g)


def _addto(acc: list, a: int, p) -> list:
    """acc + a * p coefficientwise, in place, growing acc as needed."""
    if len(acc) < len(p):
        acc += [0] * (len(p) - len(acc))
    for i, c in enumerate(p):
        acc[i] += a * c
    return acc


def _parts(q) -> tuple:
    """(e, r) with the primitive polynomial q = (1 - L)^e * r, r prime to
    1 - L: the split of a denominator that arrives whole.  A power of
    (1 - L) is recognised by its binomial row; any other q is divided by
    (1 - L) while its coefficients sum to zero."""
    e = len(q) - 1
    if e == 0 or (q[1] == -e and q[0] == 1 and q == _one_minus_l_pow(e)):
        return e, (1,)
    r, k = _strip(q, e)
    return e - k, tuple(r)


@lru_cache(maxsize=None)
def _common_den(rs) -> tuple:
    """(R, (R / r for each r)) for a tuple rs of distinct r, R their lcm.

    It depends on the denominators only, and a grid's sums meet few
    tuples, so it is memoized.
    """
    big_r = rs[0]
    for r in rs[1:]:
        g = _igcd(big_r, r)
        big_r = tuple(_imul(big_r, r if len(g) == 1 else _iquo(r, g)))
    return big_r, tuple(_iquo(big_r, r) for r in rs)


def _walk(items) -> tuple:
    """(e, acc) with acc / (1 - L)^e the sum of a * p / (1 - L)^k over
    (k, a, p) items, e the largest k, in Horner order: the items are
    sorted by k in place, and each larger k is one pass
    acc * (1 - L)^(k - e) + a * p after any extra factors are lifted."""
    items.sort(key=itemgetter(0))
    e, a, p = items[0]
    acc = [a * c for c in p]
    for k, a, p in items[1:]:
        if k == e:
            _addto(acc, a, p)
            continue
        acc = _lift(acc, k - e - 1)
        acc = [u - v + a * c for u, v, c in zip_longest(acc, chain((0,), acc), p, fillvalue=0)]
        e = k
    return e, acc


def _reduce(terms) -> "LambdaRat":
    """The sum of (a / b) * p / ((1 - L)^e * r) over (a, b, p, e, r) terms,
    in canonical form; b > 0, r is prime to 1 - L, and p need not be
    reduced against (1 - L)^e * r.

    One term is reduced as given.  Otherwise the contents go over one
    common integer denominator d, the terms are grouped by r, and each
    group is summed by ``_walk`` over (1 - L) to its largest e.  The
    groups that did not cancel go over one common denominator
    (1 - L)^E * R, R the lcm of their r from the memo ``_common_den``:
    each sum is multiplied by R / r, and the sums are walked the same way.
    Then the content is taken, (1 - L) stripped once, and one gcd reduces
    the sum against R, none when R is 1, as it is for every
    Frobenius-Euler value.
    """
    if len(terms) == 1:
        (a, d, acc, e, big_r), = terms
        if not acc:
            return ZERO
    else:
        a, d = 1, lcm(*[t[1] for t in terms])
        groups = {}
        for c, b, p, e, r in terms:
            groups.setdefault(r, []).append((e, c * (d // b), p))
        sums = []
        for r, items in groups.items():
            e, acc = _walk(items)
            if _itrim(acc):
                sums.append((e, r, acc))
        if not sums:
            return ZERO
        if len(sums) == 1:
            (e, big_r, acc), = sums
        else:
            big_r, cofs = _common_den(tuple(r for _, r, _ in sums))
            e, acc = _walk([(k, 1, p if len(c) == 1 else _imul(p, c))
                            for (k, _, p), c in zip(sums, cofs)])
            if not _itrim(acc):
                return ZERO
    c, pn = _iprim(acc)
    a *= c
    pn, e = _strip(pn, e)
    if len(big_r) > 1:
        g = _igcd(pn, big_r)
        if len(g) > 1:
            pn = _iquo(pn, g)
            big_r = tuple(_iquo(big_r, g))
    g = gcd(a, d)
    return LambdaRat._make(a // g, d // g, tuple(pn), e, big_r)


def dot(terms) -> "LambdaRat":
    """The sum of w * x * y over (int w, LambdaRat x, LambdaRat y) triples.

    Equal to the pairwise fold, but reduced once: each product is its
    numerators' product over the product of the denominators, whose
    split is the sum of the exponents e and the product of the r, and
    ``_reduce`` adds them all.  A term with a zero factor is skipped, and
    an empty sum is ZERO.
    """
    prods = []
    for w, x, y in terms:
        if not (w and x.p and y.p):
            continue
        p = x.p if y.p == (1,) else y.p if x.p == (1,) else _imul(x.p, y.p)
        r = x.r if y.r == (1,) else y.r if x.r == (1,) else tuple(_imul(x.r, y.r))
        prods.append((w * x.a * y.a, x.b * y.b, p, x.e + y.e, r))
    return _reduce(prods)


def _render(a: int, b: int, p, latex: bool = False) -> str:
    """The polynomial (a / b) * p in L, ascending, as plain text or LaTeX.

    Term k is the sign of a * p_k / b, its magnitude in lowest terms (in
    LaTeX, none when it is 1 and k > 0) and then L^k.
    """
    parts = []
    for k, v in enumerate(p):
        if not v:
            continue
        n, d = a * v, b
        if d != 1:
            g = gcd(n, d)
            n, d = n // g, d // g
        neg, n = n < 0, abs(n)
        if latex:
            body = str(n) if d == 1 else f"\\frac{{{n}}}{{{d}}}"
            if k:
                lam = "\\lambda" if k == 1 else f"\\lambda^{{{k}}}"
                body = lam if n == d == 1 else body + lam
        else:
            body = str(n) if d == 1 else f"{n}/{d}"
            if k:
                body += "*L" if k == 1 else f"*L^{k}"
        sign = (" - " if neg else " + ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


def _hash(a: int, b: int, p, e: int, r) -> int:
    # a constant hashes like the rational it equals
    if len(p) <= 1 and not e and r == (1,):
        return hash(Fraction(a, b))
    return hash((a, b, p, e, r))


# ---------------------------------------------------------------------------

class LambdaPoly:
    """Ascending rational coefficients in L, no trailing zero: a record that
    ``LambdaRat(num, den)`` reads and ``.num``/``.den`` return."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)


def _split(value) -> tuple:
    """(a, b, primitive int tuple) of an int, a Fraction, a LambdaPoly or an
    int/Fraction sequence, whose content a / b is in lowest terms; zero
    splits into (0, 1, ())."""
    if isinstance(value, (int, Fraction)):
        value = (value,)
    elif isinstance(value, LambdaPoly):
        value = value.coeffs
    elif not isinstance(value, (list, tuple)):
        value = tuple(value)
    den = lcm(*[c.denominator for c in value])
    # each prime of den misses some scaled numerator: g / den is reduced
    nums = _itrim([c.numerator * (den // c.denominator) for c in value])
    if not nums:
        return 0, 1, ()
    g, prim = _iprim(nums)
    return g, den, tuple(prim)


class LambdaRat:
    """Element of the rational-function field Q(L), always reduced.

    Stored as the content ``a / b``, the primitive int tuple ``p`` and the
    split ``(1 - L)^e * r`` of the denominator, in the canonical form of
    the module docstring, so two equal field elements are structurally
    identical and print identically.  ``q``, the denominator as one
    tuple, is built from the split.
    """

    __slots__ = ("a", "b", "p", "e", "r")

    def __init__(self, num=0, den=1):
        an, bn, p = _split(num)
        ad, bd, q = _split(den)
        if not q:
            raise ZeroDivisionError("zero denominator in Q(L)")
        if ad < 0:
            an, ad = -an, -ad
        v = _reduce(((an * bd, bn * ad, p, *_parts(q)),))
        self.a, self.b, self.p, self.e, self.r = v.a, v.b, v.p, v.e, v.r

    @classmethod
    def _make(cls, a: int, b: int, p: tuple, e: int = 0, r: tuple = (1,)) -> "LambdaRat":
        # trusted: (a, b, p, e, r) already satisfy the canonical form
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.p = p
        self.e = e
        self.r = r
        return self

    @property
    def q(self) -> tuple:
        """The denominator (1 - L)^e * r as one int tuple."""
        row = _one_minus_l_pow(self.e)
        return row if self.r == (1,) else tuple(_imul(row, self.r))

    @property
    def num(self) -> LambdaPoly:
        """The numerator (a / b) * p, as a LambdaPoly view."""
        a, b = self.a, self.b
        return LambdaPoly([Fraction(a * v, b) for v in self.p])

    @property
    def den(self) -> LambdaPoly:
        """The denominator q, as a LambdaPoly view."""
        return LambdaPoly(self.q)

    @property
    def is_zero(self) -> bool:
        return not self.p

    @property
    def is_poly(self) -> bool:
        """True when the denominator is 1."""
        return not self.e and self.r == (1,)

    def __bool__(self) -> bool:
        return bool(self.p)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if not self.p:
            return other
        if not other.p:
            return self
        return _reduce(((self.a, self.b, self.p, self.e, self.r),
                        (other.a, other.b, other.p, other.e, other.r)))

    __radd__ = __add__

    def __neg__(self):
        return LambdaRat._make(-self.a, self.b, self.p, self.e, self.r)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LambdaRat):
            if self.p == self.r == (1,) and not self.e:
                self, other = other, self
            if other.p != (1,) or other.r != (1,) or other.e:
                return dot(((1, self, other),))
            num, den = other.a, other.b
        elif isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            num, den = other.numerator, other.denominator
        else:
            return NotImplemented
        # a constant factor scales the content only
        a, b = _cmul(self.a, self.b, num, den)
        return LambdaRat._make(a, b, self.p, self.e, self.r)

    __rmul__ = __mul__

    def inverse(self) -> "LambdaRat":
        if not self.p:
            raise ZeroDivisionError("inverse of zero in Q(L)")
        a, b = (self.a, self.b) if self.a > 0 else (-self.a, -self.b)
        # the numerator turns into the denominator: split it, unless it is 1
        e, r = _parts(self.p) if len(self.p) > 1 else (0, (1,))
        return LambdaRat._make(b, a, self.q, e, r)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n == 0:
            return ONE
        if n < 0:
            return self.inverse() ** (-n)
        if not self.p:
            return ZERO
        return LambdaRat._make(self.a ** n, self.b ** n, tuple(_ipow(self.p, n)),
                               self.e * n, tuple(_ipow(self.r, n)))

    def evaluate(self, point) -> Fraction:
        """(a / b) p(x) / ((1 - x)^e r(x)) at a rational point x of L; raises
        PoleError at a pole."""
        d = (1 - point) ** self.e * _ieval(self.r, point)
        if not d:
            raise PoleError(f"pole at L = {point}")
        return Fraction(self.a, self.b) * _ieval(self.p, point) / d

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return (self.a == other.a and self.b == other.b and self.p == other.p
                and self.e == other.e and self.r == other.r)

    def __hash__(self):
        return _hash(self.a, self.b, self.p, self.e, self.r)

    def __str__(self):
        num = _render(self.a, self.b, self.p)
        if self.is_poly:
            return num
        return f"({num}) / ({_render(1, 1, self.q)})"

    def embed_str(self) -> str:
        """Compact rendering for use inside a larger expression."""
        num = _render(self.a, self.b, self.p)
        if self.is_poly:
            return num
        if sum(1 for v in self.p if v) == 1:
            return f"{num}/({_render(1, 1, self.q)})"
        return f"({num})/({_render(1, 1, self.q)})"

    def __repr__(self):
        return f"LambdaRat({self})"


def _coerce(value):
    if isinstance(value, LambdaRat):
        return value
    if isinstance(value, (int, Fraction)):
        return LambdaRat._make(value.numerator, value.denominator, (1,)) if value else ZERO
    return NotImplemented


def lrat(value) -> LambdaRat:
    """Coerce an int or a Fraction into Q(L); a LambdaRat passes through."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(value).__name__} into Q(L)")
    return out


ZERO = LambdaRat._make(0, 1, ())
ONE = LambdaRat._make(1, 1, (1,))
LAMBDA = LambdaRat._make(1, 1, (0, 1))
