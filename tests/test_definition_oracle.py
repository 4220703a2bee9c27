"""The definition of H_n^{(r)}(x|L) and two classical facts, through SymPy.

Every other check of the tables runs through feuler's own layers.  Here
each value is read through its ints (a, b, p, e, r) into a SymPy
expression and compared with a value SymPy computes on its own: the
Eulerian polynomials (Carlitz), the Euler polynomials at L = -1, and the
Taylor coefficients of the generating function ((1 - L)/(e^t - L))^r e^(xt).
"""

from math import comb, factorial

import pytest

sympy = pytest.importorskip("sympy")

from feuler.frobenius import fe_numbers, fe_poly  # noqa: E402

LAM, X, T = sympy.symbols("L x t")


def _poly(coeffs):
    return sum(c * LAM ** k for k, c in enumerate(coeffs))


def to_expr(v):
    """(a / b) p(L) / ((1 - L)^e r(L)) as a SymPy expression."""
    return sympy.Rational(v.a, v.b) * _poly(v.p) / ((1 - LAM) ** v.e * _poly(v.r))


def poly_expr(n, r):
    return sum(to_expr(c) * X ** k for k, c in enumerate(fe_poly(n, r).coeffs))


def eulerian(n):
    """A_n(L) = sum_k A(n, k) L^k, A(n, k) = sum_j (-1)^j C(n + 1, j) (k + 1 - j)^n."""
    if n == 0:
        return sympy.Integer(1)
    return _poly([sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))
                  for k in range(n)])


def test_order_one_numbers_are_carlitz_eulerian_quotients():
    # H_n^{(1)}(L) = A_n(L) / (L - 1)^n
    for n, h in enumerate(fe_numbers(11, 1)):
        assert sympy.cancel(to_expr(h) - eulerian(n) / (LAM - 1) ** n) == 0, n


def test_order_one_polynomials_at_minus_one_are_euler_polynomials():
    # H_n^{(1)}(x|-1) = E_n(x)
    for n in range(10):
        at_minus_one = poly_expr(n, 1).subs(LAM, -1)
        assert sympy.expand(at_minus_one - sympy.euler(n, X)) == 0, n


@pytest.mark.parametrize("r", [-2, -1, 2, 3])
def test_polynomials_are_the_generating_function_coefficients(r):
    # H_n^{(r)}(x|L) = n! [t^n] ((1 - L)/(e^t - L))^r e^(xt)
    n_max = 6
    g = ((1 - LAM) / (sympy.exp(T) - LAM)) ** r * sympy.exp(X * T)
    taylor = sympy.series(g, T, 0, n_max + 1).removeO()
    for n in range(n_max + 1):
        want = factorial(n) * taylor.coeff(T, n)
        # one fraction first: cancel alone takes about a third longer here
        assert sympy.cancel(sympy.together(poly_expr(n, r) - want)) == 0, (r, n)
