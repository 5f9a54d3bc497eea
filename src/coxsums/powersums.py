"""Power sums of exponents and of root heights, by independent methods.

Three routes compute sum(m_i**n): direct summation over the exponents,
the Todd route n! * r * Td_n(gamma_1..gamma_n), and closed forms in
(r, h, gamma, alpha, beta) for n <= POWERSUM_CLOSED_MAX_N.  Height power
sums come from the S_k = sum(m_i**k) by Faulhaber's formula for
sum_i (1**n + ... + m_i**n), and from closed forms for
n <= HEIGHTSUM_CLOSED_MAX_N; roots are never constructed, so the
noncrystallographic types evaluate the same formulas (their CLI output
is labeled a formal height sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import todd as _todd
from .catalog import (
    CoxeterType,
    ExponentList,
    ParameterSet,
    dual_partition,
    exponents,
    normalize,
    parameters,
)
from .errors import InternalMismatch, UnsupportedDegree

# The largest n with a closed form: powersum_closed and heightsum_closed
# refuse larger n, the CLI's closed method is bounded by them, and the
# methods suite of cox verify compares the closed forms up to them.
POWERSUM_CLOSED_MAX_N = 5
HEIGHTSUM_CLOSED_MAX_N = 4


@dataclass(frozen=True)
class PowerSumResult:
    type: CoxeterType
    n: int
    value: Fraction
    method: str


def _params(t: CoxeterType, params: ParameterSet | None) -> ParameterSet:
    return params if params is not None else parameters(t)


def exponent_power_sums(exps: ExponentList, n: int) -> list[int]:
    """S_0 .. S_n, where S_k = sum(m_i**k) over the exponents."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [sum(m**k for m in exps.values) for k in range(n + 1)]


def powersum_direct(t: CoxeterType, n: int) -> PowerSumResult:
    """sum(m_i**n) by direct exponentiation over the exponent list."""
    if n < 0:
        raise ValueError("n must be >= 0")
    value = Fraction(sum(m**n for m in exponents(t).values))
    return PowerSumResult(normalize(t), n, value, "direct")


def _todd_route(
    t: CoxeterType, n: int, p: int, params: ParameterSet | None
) -> tuple[int, tuple[Fraction, ...]]:
    """The rank r and Td_0 .. Td_n of the gamma series."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ps = _params(t, params)
    return ps.r, _todd.todd_values(_todd.gamma_series(ps, p, n), n)


def powersum_todd_upto(
    t: CoxeterType, n: int, p: int = 1, params: ParameterSet | None = None
) -> tuple[Fraction, ...]:
    """sum(m_i**k) = k! * r * Td_k for k = 0..n, from one gamma series."""
    r, td = _todd_route(t, n, p, params)
    return tuple(factorial(k) * r * td[k] for k in range(n + 1))


def powersum_todd(
    t: CoxeterType, n: int, p: int = 1, params: ParameterSet | None = None
) -> PowerSumResult:
    """sum(m_i**n) as n! * r * Td_n of the gamma series."""
    r, td = _todd_route(t, n, p, params)
    return PowerSumResult(normalize(t), n, factorial(n) * r * td[n], "todd")


def _r45(ps: ParameterSet) -> Fraction:
    h, g = ps.h, ps.gamma
    s, q = ps.alpha + ps.beta, ps.alpha * ps.beta
    return (h * h - g - h + 2) * ((h - 2 + s) * s - q) + (h - 2) * (h - 2 + s) * q


def powersum_closed(
    t: CoxeterType, n: int, params: ParameterSet | None = None
) -> PowerSumResult:
    """Closed forms for sum(m_i**n), n <= POWERSUM_CLOSED_MAX_N."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > POWERSUM_CLOSED_MAX_N:
        raise UnsupportedDegree(f"no closed power-sum form for n = {n}")
    ps = _params(t, params)
    r, h, g = ps.r, ps.h, ps.gamma
    if n == 0:
        value = Fraction(r)
    elif n == 1:
        value = Fraction(r * h, 2)
    elif n == 2:
        value = Fraction(r, 6) * (h * h + g - h)
    elif n == 3:
        value = Fraction(r, 4) * h * (g - h)
    elif n == 4:
        value = Fraction(r, 30) * (
            -(h**4) + 5 * h * h * g + 2 * g * g - 7 * h**3 - 2 * h * g
            + 4 * h * h - 2 * g - 2 * h + 2 + _r45(ps)
        )
    else:
        value = Fraction(r, 12) * h * (
            2 * g * g - 2 * h**3 - 2 * h * g + 4 * h * h - 2 * g - 2 * h + 2
            + _r45(ps)
        )
    return PowerSumResult(normalize(t), n, value, "closed")


def exponent_heightsum(exps: ExponentList, n: int, sums: list[int]) -> Fraction:
    """sum over positive roots of ht**n by Faulhaber's formula over S_0..S_{n+1},
    checked against the dual partition (k_j roots of height j)."""
    by_faulhaber = _todd.faulhaber_sum(n, sums)
    dual = dual_partition(exps)
    by_dual = sum(k * j**n for j, k in enumerate(dual.counts, start=1))
    if by_faulhaber != by_dual:
        raise InternalMismatch(
            f"height sum routes disagree for {exps.values}: {by_faulhaber} vs {by_dual}"
        )
    return by_faulhaber


def heightsum_direct(t: CoxeterType, n: int) -> PowerSumResult:
    """sum over positive roots of ht**n, from the exponents of t."""
    if n < 0:
        raise ValueError("n must be >= 0")
    exps = exponents(t)
    value = exponent_heightsum(exps, n, exponent_power_sums(exps, n + 1))
    return PowerSumResult(normalize(t), n, value, "direct")


def heightsum_closed(
    t: CoxeterType, n: int, params: ParameterSet | None = None
) -> PowerSumResult:
    """Closed forms for the height power sums, n <= HEIGHTSUM_CLOSED_MAX_N."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > HEIGHTSUM_CLOSED_MAX_N:
        raise UnsupportedDegree(f"no closed height-sum form for n = {n}")
    ps = _params(t, params)
    r, h, g = ps.r, ps.h, ps.gamma
    if n == 0:
        value = Fraction(r * h, 2)
    elif n == 1:
        value = Fraction(r, 12) * (h * h + g + 2 * h)
    elif n == 2:
        value = Fraction(r, 12) * (h + 1) * g
    elif n == 3:
        value = Fraction(r, 120) * (
            -(h**4) + 5 * h * h * g + 2 * g * g - 7 * h**3 + 13 * h * g
            - 6 * h * h + 3 * g - 7 * h + 2 + _r45(ps)
        )
    else:
        value = Fraction(r, 60) * (h + 1) * (
            2 * g * g - 3 * h**3 + 3 * h * g - 2 * g - 3 * h + 2 + _r45(ps)
        )
    return PowerSumResult(normalize(t), n, value, "closed")
