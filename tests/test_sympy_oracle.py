"""Differential checks of the exact series kernels against sympy."""

from fractions import Fraction as F
from math import lcm

import pytest

from coxsums import TruncatedSeries, faulhaber, p_factor, todd_values
from coxsums.todd import _bernoulli_numbers, _todd_tables, todd_polynomials
from oracles import _todd_factor_log

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
    assert todd_values(gamma, 8) == want


def test_faulhaber_against_symbolic_summation():
    k, r = sympy.symbols("k r", integer=True, nonnegative=True)
    for n in range(11):
        closed = sympy.summation(k**n, (k, 1, r))
        for value in range(12):
            assert faulhaber(n, value) == to_fraction(closed.subs(r, value)), (n, value)


def sympy_todd_polynomials(order):
    """Td_0 .. Td_order as {exponents of (c_1..c_order): QQ coefficient} dicts.

    Td = exp(sum_j l_j p_j s**j) with log(t / (1 - exp(-t))) = sum_j l_j t**j
    and the power sums p_j read off log(1 + c_1 s + ... + c_order s**order),
    by sympy's ring_series.
    """
    from sympy import QQ
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import rs_exp, rs_log

    ring_, s, *c = ring(["s"] + [f"c{i}" for i in range(1, order + 1)], QQ)
    log_todd = series_coefficients(sympy.log(t / (1 - sympy.exp(-t))), order)
    log_c = rs_log(1 + sum(ci * s**i for i, ci in enumerate(c, 1)), s, order + 1)
    arg = ring_(0)
    for j in range(1, order + 1):
        p_j = ring_({(0,) + m[1:]: v for m, v in log_c.items() if m[0] == j}) * j * (-1) ** (j - 1)
        arg += QQ(log_todd[j].numerator, log_todd[j].denominator) * p_j * s**j
    todd = rs_exp(arg, s, order + 1)
    out = [{} for _ in range(order + 1)]
    for m, v in todd.items():
        out[m[0]][m[1:]] = v
    return out


def test_todd_denominators_clear_the_todd_polynomials():
    # M_k Td_k has integer coefficients, and M_k is the least such multiplier.
    order = 8
    todd = sympy_todd_polynomials(order)
    denominators = _todd_tables(order)
    for k in range(1, order + 1):
        assert lcm(*(int(v.denominator) for v in todd[k].values())) == denominators[k], k
    # The same polynomials, evaluated at a rational point, give todd_values.
    gamma = [F(1), F(3), F(-1, 2), F(2, 9), F(5), F(-7, 4), F(1, 3), F(2), F(-1, 8)]
    want = [F(0)] * (order + 1)
    for k in range(order + 1):
        for m, v in todd[k].items():
            term = F(int(v.numerator), int(v.denominator))
            for x, e in zip(gamma[1:], m):
                term *= x**e
            want[k] += term
    assert todd_values(TruncatedSeries(gamma), order) == tuple(want)


def test_todd_polynomials_match_ring_series():
    order = 8
    todd = sympy_todd_polynomials(order)
    denominators = _todd_tables(order)
    for k, poly in enumerate(todd_polynomials(order)):
        want = {}
        for m, v in todd[k].items():
            scaled = v * denominators[k]
            assert scaled.denominator == 1
            exps = tuple(m)
            while exps and not exps[-1]:
                exps = exps[:-1]
            want[exps] = int(scaled.numerator)
        assert poly.terms == want, k
