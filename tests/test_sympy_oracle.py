"""Differential checks of the exact series kernels against sympy."""

from fractions import Fraction as F

import pytest

from coxsums import p_factor
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
