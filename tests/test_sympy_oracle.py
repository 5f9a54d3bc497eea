"""Differential checks of the exact series kernels against sympy."""

from fractions import Fraction as F

import pytest

from coxsums import TruncatedSeries, faulhaber, p_factor, todd_values
from coxsums.todd import _bernoulli_numbers, _todd_factor_log

sympy = pytest.importorskip("sympy")

t = sympy.Symbol("t")


def to_fraction(value):
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


def series_coefficients(expr, order):
    expansion = sympy.series(expr, t, 0, order + 1).removeO()
    return tuple(to_fraction(expansion.coeff(t, k)) for k in range(order + 1))


def test_bernoulli_numbers():
    want = [to_fraction(sympy.bernoulli(k)) for k in range(61)]
    want[1] = -want[1]  # sympy >= 1.12 has B_1 = +1/2; this package uses -1/2
    assert _bernoulli_numbers(60) == tuple(want)


def test_todd_log_coefficients():
    want = series_coefficients(sympy.log(t / (1 - sympy.exp(-t))), 12)
    assert _todd_factor_log(12).coefficients == want


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_p_factor(p):
    expr = ((1 + p * t) / (1 - p * t)) ** sympy.Rational(1, p)
    assert p_factor(p, 10).coefficients == series_coefficients(expr, 10)


def test_todd_values_at_virtual_roots():
    # At gamma_k = e_k(x_1..x_4), Td_n is the t**n coefficient of
    # prod x_j t / (1 - exp(-x_j t)).
    xs = [sympy.Rational(1, 2), sympy.Integer(-3), sympy.Rational(2, 3), sympy.Rational(5, 4)]
    gamma = TruncatedSeries([1], order=8)
    for x in xs:
        gamma = gamma * TruncatedSeries([1, to_fraction(x)], order=8)
    y = sympy.Symbol("y")
    factor = sympy.series(y / (1 - sympy.exp(-y)), y, 0, 9).removeO()
    product = sympy.expand(sympy.Mul(*(factor.subs(y, x * t) for x in xs)))
    want = tuple(to_fraction(product.coeff(t, k)) for k in range(9))
    assert todd_values(gamma, 8).values == want


def test_faulhaber_against_symbolic_summation():
    k, r = sympy.symbols("k r", integer=True, nonnegative=True)
    for n in range(11):
        closed = sympy.summation(k**n, (k, 1, r))
        for value in range(12):
            assert faulhaber(n, value) == to_fraction(closed.subs(r, value)), (n, value)
