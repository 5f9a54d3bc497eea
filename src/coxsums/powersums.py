"""Power sums of exponents and of root heights, by independent methods.

Three routes compute sum(m_i**n) at every n: direct summation over the
exponents, the Todd route n! * r * Td_n(gamma_1..gamma_n) from the gamma
series of V+ and V-, and the closed route, the paper's polynomial in
(h, r, alpha, beta) evaluated through the same Todd recurrence from the
virtual-root power sums (closed_power_sums).  The closed route never reads
gamma; the table value of gamma is checked by the gamma and gamma34
suites of cox verify.  Height power sums come two ways, neither reading
the other's inputs: directly, as sum_j k_j j**n over the dual partition
(k_j positive roots of height j), and closed, by Faulhaber's formula for
sum_i (1**n + ... + m_i**n) over the closed route's S_k.  Roots are never
constructed, so the noncrystallographic types evaluate the same formulas
(their CLI output is labeled a formal height sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import factorial, lcm
from operator import mul
from typing import Sequence

from . import todd as _todd
from .catalog import (
    CoxeterType,
    DualPartition,
    ExponentList,
    ParameterSet,
    dual_partition,
    exponents,
    parameters,
)
from .errors import InternalMismatch


@dataclass(frozen=True)
class PowerSumResult:
    type: CoxeterType
    n: int
    value: Fraction
    method: str


def _params(t: CoxeterType, params: ParameterSet | None) -> ParameterSet:
    return params if params is not None else parameters(t)


# exponent_power_sums runs over the exponents this many at a time: the
# running powers it holds are one slice's, so its memory beyond the exponent
# tuple does not grow with the rank.
_POWER_SUM_SLICE = 4096


def exponent_power_sums(exps: ExponentList, n: int) -> list[int]:
    """S_0 .. S_n, where S_k = sum(m_i**k) over the exponents: the powers
    m_i**k run as products, one multiply per exponent per degree, over one
    slice of _POWER_SUM_SLICE exponents at a time."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values = exps.values
    sums = [len(values)] + [0] * n
    for start in range(0, len(values), _POWER_SUM_SLICE):
        part = values[start : start + _POWER_SUM_SLICE]
        powers = [1] * len(part)
        for k in range(1, n + 1):
            powers = list(map(mul, powers, part))
            sums[k] += sum(powers)
    return sums


def powersum_direct(t: CoxeterType, n: int) -> PowerSumResult:
    """sum(m_i**n) by direct exponentiation over the exponent list."""
    if n < 0:
        raise ValueError("n must be >= 0")
    value = Fraction(sum(m**n for m in exponents(t).values))
    return PowerSumResult(t, n, value, "direct")


def _todd_quotients(
    t: CoxeterType, n: int, p: int, params: ParameterSet | None, degrees: Sequence[int]
) -> list[tuple[int, int]]:
    """(k! r T_k, M_k s**k), not reduced, for each k in degrees (all <= n): S_k is
    their quotient.  With gamma_k = F_k / s**k, one Todd pass over the gamma
    integers F_k gives T_k = M_k s**k Td_k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ps = _params(t, params)
    f, s = _todd._gamma_integers(ps, p, n)
    scaled = _todd._todd_pass(f)
    m = _todd._todd_tables(n)
    return [(factorial(k) * ps.r * scaled[k], m[k] * s**k) for k in degrees]


def powersum_todd_upto(
    t: CoxeterType, n: int, p: int = 1, params: ParameterSet | None = None
) -> tuple[Fraction, ...]:
    """sum(m_i**k) = k! * r * Td_k for k = 0..n, from one pass over the gamma
    integers; a table breaking integrality shows as a Fraction, not an error."""
    return tuple(Fraction(*pair) for pair in _todd_quotients(t, n, p, params, range(n + 1)))


def powersum_todd(
    t: CoxeterType, n: int, p: int = 1, params: ParameterSet | None = None
) -> PowerSumResult:
    """sum(m_i**n) as n! * r * Td_n of the gamma series: the pass of
    powersum_todd_upto, with only S_n formed."""
    ((value, scale),) = _todd_quotients(t, n, p, params, (n,))
    return PowerSumResult(t, n, Fraction(value, scale), "todd")


def closed_power_sums(params: ParameterSet, n: int) -> list[int]:
    """S_0 .. S_n from (h, r, alpha, beta) alone, through the Todd recurrence at p = 1.

    At p = 1 the gamma series is (1+t)(1-alpha t)(1-beta t) / ((1-t)(1-A t)(1-B t)),
    so its virtual roots have power sums
    P_k = 1 + (-alpha)**k + (-beta)**k - (-1)**k - (-A)**k - (-B)**k, where
    L_k = (-A)**k + (-B)**k runs L_k = -s L_{k-1} - q L_{k-2} from L_0 = 2,
    L_1 = -s, with s = A + B = h - 2 + alpha + beta and q = A B = r alpha beta.
    At the scale u = lcm(den alpha, den beta) every u**k P_k is an integer,
    the recurrence gives T_k = M_k u**k Td_k, and S_k = k! r T_k / (M_k u**k),
    a division that must be exact.  The recurrence reads only P_1 and the
    even P_k, so the odd P_k with k >= 3 are not formed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, r = params.alpha, params.beta, params.r
    u = lcm(a.denominator, b.denominator)
    au, bu = a.numerator * (u // a.denominator), b.numerator * (u // b.denominator)
    su, qu = (params.h - 2) * u + au + bu, r * au * bu  # s u and q u**2
    lucas = [2, -su]  # u**k L_k
    p = [1, 2 * u - au - bu + su]  # T_0 = 1 and u P_1, then u**k P_k
    a2, b2, ak, bk = au * au, bu * bu, 1, 1
    for k in range(2, n + 1):
        lucas.append(-su * lucas[k - 1] - qu * lucas[k - 2])
        if k % 2:
            p.append(0)  # the Todd recurrence does not read the odd P_k, k >= 3
        else:  # P_k = alpha**k + beta**k - L_k, as 1 - (-1)**k = 0
            ak, bk = ak * a2, bk * b2
            p.append(ak + bk - lucas[k])
    m = _todd._todd_tables(n)
    sums = []
    for k, tk in enumerate(_todd._todd_recurrence(p[: n + 1])):
        sk, rest = divmod(factorial(k) * r * tk, m[k] * u**k)
        if rest:
            raise InternalMismatch(f"closed route: S_{k} is not an integer")
        sums.append(sk)
    return sums


def powersum_closed(
    t: CoxeterType, n: int, params: ParameterSet | None = None
) -> PowerSumResult:
    """sum(m_i**n) by the closed route, from (h, r, alpha, beta)."""
    value = Fraction(closed_power_sums(_params(t, params), n)[n])
    return PowerSumResult(t, n, value, "closed")


def dual_heightsum(dual: DualPartition, n: int) -> int:
    """sum over positive roots of ht**n: a type has k_j = #{i : m_i >= j}
    positive roots of height j (Kostant), so the sum is sum_j k_j j**n."""
    return sum(map(mul, dual.counts, map(pow, range(1, len(dual.counts) + 1), repeat(n))))


def dual_heightsums(dual: DualPartition, n: int) -> list[int]:
    """H_0 .. H_n, H_k = sum_j k_j j**k over the dual partition: each term
    k_j j**k runs forward as a product, one multiply per height per degree.

    dual_heightsum stays the single-degree form: at large n one pow per
    height costs less than n running products per height."""
    if n < 0:
        raise ValueError("n must be >= 0")
    heights = range(1, len(dual.counts) + 1)
    terms = list(dual.counts)
    sums = [sum(terms)]
    for _ in range(n):
        terms = list(map(mul, terms, heights))
        sums.append(sum(terms))
    return sums


def heightsum_direct(t: CoxeterType, n: int) -> PowerSumResult:
    """sum over positive roots of ht**n, over the dual partition of t's exponents."""
    if n < 0:
        raise ValueError("n must be >= 0")
    value = Fraction(dual_heightsum(dual_partition(exponents(t)), n))
    return PowerSumResult(t, n, value, "direct")


def heightsum_closed(
    t: CoxeterType, n: int, params: ParameterSet | None = None
) -> PowerSumResult:
    """The height power sum by Faulhaber's formula over the closed route's S_k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    value = _todd.faulhaber_sum(n, closed_power_sums(_params(t, params), n + 1))
    return PowerSumResult(t, n, value, "closed")
