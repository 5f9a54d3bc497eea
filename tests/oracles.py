"""Second routes that the tests compare the library against.

None of these runs in a route, a check or a CLI command of coxsums; each
computes a value the library computes another way, so exact agreement is
a cross-check: the general p-factor against p_factor, the X_n route and
the k! route (gamma_k = y_k / (k! u**k)) against gamma_series, the log
of the Todd factor against the Bernoulli table, the T-transform rows run
one list at a time against the sweep, the alternating sums term by term
against the coefficient rows of the two symmetry suites, the product of
(1 - q**v) factors by repeated polynomial products, the V+/V-
cancellation by Counter arithmetic, each rendered cell through a
Fraction, and a Todd polynomial evaluated term by term at a point against
the Todd pass there.  weighted_scale_by_reduced_pairs is the greedy
weighted scale as first written, every pair reduced and u tested by
u**i % d.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

from coxsums.catalog import ParameterSet
from coxsums.cli import _check_output_bits
from coxsums.errors import CoxError
from coxsums.intpoly import IntPolynomial
from coxsums.mpoly import MPoly
from coxsums.series import TruncatedSeries
from coxsums.todd import _bernoulli_numbers, p_factor
from coxsums.verify import CheckReport, _default_t_rows, check_t_example

Rational = Union[int, Fraction]


class ConstraintViolated(CoxError):
    """The (pi, mu) weights of p_factor_general do not sum to m1."""


def _quotient_numerators(a: int, b: int, order: int) -> list[int]:
    """g_0 .. g_order, where f_k = g_k / (k! w**k), for a = 2 pi mu w and b = pi w.

    Any scale w that makes a and b integers makes every
    g_{k+1} = a g_k + b**2 (k-1) k g_{k-1} an integer.
    """
    b2 = b * b
    g = [1, a][: order + 1]
    for k in range(1, order):
        g.append(a * g[k] + b2 * (k - 1) * k * g[k - 1])
    return g


def _over_scale(numerators: Sequence[int], u: int) -> list[Fraction]:
    """The Fractions numerators[k] / (k! * u**k)."""
    out, scale = [], 1
    for k, y in enumerate(numerators):
        if k:
            scale *= k * u
        out.append(Fraction(y, scale))
    return out


def gamma_by_factorials(params: ParameterSet, p: int, order: int) -> list[Fraction]:
    """gamma_0 .. gamma_order as y_k / (k! u**k), u the common denominator of
    every entry of V+ and V-, none cancelled: the p-factor numerators at
    scale u, then one pass per factor, each step carrying its k."""
    if p < 1:
        raise ValueError("p must be >= 1")
    u = lcm(*(v.denominator for v in params.V_plus + params.V_minus))
    y = _quotient_numerators(2 * u, p * u, order)
    for v in params.V_plus:  # times 1/(1 - v*t)
        vu = v.numerator * (u // v.denominator)
        for k in range(1, order + 1):
            y[k] += vu * k * y[k - 1]
    for v in params.V_minus:  # times (1 - v*t)
        vu = v.numerator * (u // v.denominator)
        for k in range(order, 0, -1):
            y[k] -= vu * k * y[k - 1]
    return _over_scale(y, u)


def _quotient_power(pi: Fraction, mu: Fraction, order: int) -> TruncatedSeries:
    """((1+pi*t)/(1-pi*t))**mu by (k+1) f_{k+1} = 2 pi mu f_k + pi**2 (k-1) f_{k-1}.

    The numerators run at w = lcm(den(2 pi mu), den(pi)), the smallest
    scale at which 2 pi mu w and pi w are integers.
    """
    slope = 2 * pi * mu
    w = lcm(slope.denominator, pi.denominator)
    a = slope.numerator * (w // slope.denominator)
    g = _quotient_numerators(a, pi.numerator * (w // pi.denominator), order)
    return TruncatedSeries(_over_scale(g, w), order=order)


def p_factor_general(
    pairs: Iterable[tuple[Rational, Rational]], m1: int, order: int
) -> TruncatedSeries:
    """Product of ((1+pi*t)/(1-pi*t))**mu over (pi, mu) pairs.

    The weights must satisfy sum(pi * mu) = m1, which pins the linear
    coefficient of the result to 2*m1.
    """
    pairs = [(Fraction(pi), Fraction(mu)) for pi, mu in pairs]
    weight = sum((pi * mu for pi, mu in pairs), Fraction(0))
    if weight != m1:
        raise ConstraintViolated(f"sum(pi*mu) = {weight}, expected {m1}")
    factors = [_quotient_power(pi, mu, order) for pi, mu in pairs]
    return reduce(mul, factors or [TruncatedSeries([1], order=order)])


def x_sequence(params: ParameterSet, n_max: int) -> list[Fraction]:
    """X_n = sum of A**j * B**(n-j), via the two-term recursion.

    The recursion coefficients come from (h, gamma, alpha, beta) alone:
    A+B = h-2+alpha+beta and A*B = h**2-gamma+(h-2)(alpha+beta-1)+alpha*beta.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    h, g = params.h, params.gamma
    ab_sum = h - 2 + params.alpha + params.beta
    ab_prod = h * h - g + (h - 2) * (params.alpha + params.beta - 1) + params.alpha * params.beta
    xs = [Fraction(1)]
    if n_max >= 1:
        xs.append(Fraction(ab_sum))
    for _ in range(2, n_max + 1):
        xs.append(ab_sum * xs[-1] - ab_prod * xs[-2])
    return xs


def gamma_series_xn(params: ParameterSet, p: int, order: int) -> TruncatedSeries:
    """Same value as gamma_series, computed through the X_n route.

    Multiplies (1-(alpha+beta)t+alpha*beta*t**2) by sum(X_n t**n) and the
    p-factor; exact agreement with gamma_series is a cross-check, since
    this route never touches the V+/V- factorization.
    """
    a, b = params.alpha, params.beta
    quad = TruncatedSeries([1, -(a + b), a * b], order=order)
    xs = TruncatedSeries(x_sequence(params, order), order=order)
    return quad * xs * p_factor(p, order)


def _todd_factor_log(order: int) -> TruncatedSeries:
    """log of t/(1-exp(-t)), whose derivative is -sum_{k>=1} B_k t**(k-1) / k!."""
    b = _bernoulli_numbers(order)
    return TruncatedSeries([0] + [-b[k] / factorial(k) / k for k in range(1, order + 1)])


def check_t_examples(
    order: int = 20,
    rows: list[tuple[str, TruncatedSeries, TruncatedSeries]] | None = None,
) -> list[CheckReport]:
    """The three tabulated T-transformation sequence pairs."""
    rows = rows if rows is not None else _default_t_rows(order)
    return [check_t_example(*row) for row in rows]


def alternating_sum(x: int, y, w: Sequence, n: int):
    """sum_j (-1)**(x-j) C(x,j) y**j w[n-j] over 0 <= j <= x, term by term.

    With y = h and w the power sums S_k this is one side of the symmetry
    suite; with y = c_1 and w_k = k! (M_n/M_k) T_k, one side of todd-symm
    times M_n.  y and w may lie in any ring where ints act by
    multiplication: ints, or MPoly.
    """
    return sum((-1) ** (x - j) * comb(x, j) * y**j * w[n - j] for j in range(x + 1))


def evaluated(poly: MPoly, point: Sequence):
    """poly at c_i = point[i-1], term by term: the value that the Todd pass gives
    at point when poly is one of todd_polynomials."""
    return sum(
        coefficient * prod(x**e for x, e in zip(point, exps))
        for exps, coefficient in poly.terms.items()
    )


def weighted_scale_by_reduced_pairs(
    pairs: Iterable[tuple[int, int]],
) -> tuple[list[int], int]:
    """A_1 .. A_n and u as weighted_scale gives them, from each x_i = y_i / d_i
    reduced to lowest terms: wherever d_i does not divide u**i, u is
    multiplied by d_i / gcd(d_i, u**i); then A_i = y_i (u**i / d_i)."""
    u, reduced = 1, []
    for i, (y, d) in enumerate(pairs, 1):
        g = gcd(y, d)
        y, d = y // g, d // g
        ui = u**i
        if ui % d:
            u *= d // gcd(d, ui)
        reduced.append((y, d))
    scaled, ui = [], 1
    for y, d in reduced:
        ui *= u
        scaled.append(y * (ui // d))
    return scaled, u


def one_minus_power_product_by_mul(
    vs: Iterable[int], start: IntPolynomial | None = None
) -> IntPolynomial:
    """start * prod(1 - q**v, v in vs), one IntPolynomial product per factor."""
    product = IntPolynomial([1]) if start is None else start
    for v in vs:
        if v < 1:
            raise ValueError("exponent must be >= 1")
        product = product * IntPolynomial._from_terms({0: 1, v: -1})
    return product


def cancelled_by_counter(params: ParameterSet) -> tuple[list, list]:
    """V+ and V- less their multiset intersection, by Counter & and -."""
    plus, minus = Counter(params.V_plus), Counter(params.V_minus)
    common = plus & minus
    return list((plus - common).elements()), list((minus - common).elements())


def rational_via_fraction(value: Rational):
    """A rendered cell by way of Fraction(value): int when integral, else 'a/b'."""
    f = Fraction(value)
    _check_output_bits(max(f.numerator.bit_length(), f.denominator.bit_length()))
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"
