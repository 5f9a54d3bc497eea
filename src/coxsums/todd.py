"""Todd polynomial values, gamma series, Bernoulli polynomials, Faulhaber sums.

The gamma series of a parameter set is

    prod(1 - v*t, v in V-) / prod(1 - v*t, v in V+) * ((1+p*t)/(1-p*t))**(1/p)

for a free positive integer p; its coefficients gamma_n feed the Todd
polynomials.  gamma_series returns it to any order >= 0 as a plain
TruncatedSeries over its gamma integers (below): the p-factor's D-finite
recurrence, then one pass per factor (1 - v*t), and
todd_values(series, n) returns the plain tuple Td_0 .. Td_n.  Td_n is
evaluated for arbitrary n without symbolic roots: with P_k the power
sums of virtual roots x_j whose elementary symmetric functions are the gamma_n,

    sum_n Td_n t**n = exp(sum_k lambda_k P_k t**k)

where lambda_k = -B_k / (k * k!) is the t**k coefficient of log(t / (1 - exp(-t))).
As lambda_k = 0 at odd k >= 3, one pass forms only P_1 and the even P_2m,
by Newton's identity over gamma(t) gamma(-t) = prod(1 - x_j**2 t**2), a
series in t**2; then k Td_k = sum_j j lambda_j P_j Td_{k-j}.  The second
step also takes the P_k directly (the closed route of coxsums.powersums).

The inner loops run on integers, and each returned coefficient becomes a
Fraction once.  The gamma integers are F_k = gamma_k s**k at s = w odd(p),
odd(p) being p without its factors of 2 and w the common denominator of
V+ and V- once their common entries cancel; p_factor takes w = 1, and
both get the p-factor's integers from _p_factor_integers.  No k! enters:
the p-factor's recurrence divides exactly by k+1 at any such s (proved at
_quotient_integers), and each factor of V+ or V- is one pass at s.  Td_k
uses weighted homogeneity, Td_k(gamma_i * u**i) = u**k Td_k(gamma), for
an integer u that clears every gamma_i, and
Hirzebruch's Todd denominators M_k = prod_p p**(k // (p-1)), which make
M_k Td_k an integer polynomial.  The pass takes the gamma_i u**i as they
are (no caller signs them): the Todd power sums of coxsums.powersums at
u = s; todd_values, which has only a series' Fractions, at the greedy
weighted scale u of coxsums.series (which its pow shares).  The M_k and
what is built from them (the pass's integer weights M_j j lambda_j and
carries M_k / (M_j M_{k-j}), each carry row from the one before it through
the small ratios M_k / M_{k-1}; Faulhaber's weight rows; the polynomials
M_k Td_k) live in one table object, _ToddTable, each part grown with n and
each division checked when built; the division that gives M_k Td_k is
checked on every call.  So a table that breaks this raises InternalMismatch.
The pass is generic over the coefficient ring: run over MPoly with c_i in
place of gamma_i, it gives the integer polynomials M_k Td_k themselves.
As it uses only ring operations and checked exact divisions by ints, its
value over ints at any point is those polynomials evaluated there.

Sign conventions, fixed once here: the Todd factor t/(1-exp(-t)) has
linear coefficient +1/2 (lambda_1 = -B_1 = +1/2), while the Bernoulli
numbers B_n and polynomials B_n(x) use the classical B_1 = -1/2.  All
B_n come exactly from one table, built from the tangent numbers (Brent
and Harvey's all-integer pass) and shared by the Todd factor, the Todd
denominators and Faulhaber's formula; none is hard-coded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Sequence

from .catalog import ParameterSet, cancelled
from .errors import ConstantTermNotOne, InternalMismatch
from .mpoly import MPoly
from .series import TruncatedSeries, weighted_scale


# Entries kept by each of the p_factor and gamma_series caches.  --beta admits
# any rational and -p/-n any integer, so the keys are unbounded.  A default
# verify makes no gamma_series call (gamma34 reads _gamma_integers) and 6
# p_factor calls: no hit.
_CACHE_SIZE = 512


@lru_cache(maxsize=_CACHE_SIZE)
def p_factor(p: int, order: int) -> TruncatedSeries:
    """Expansion of ((1+p*t)/(1-p*t))**(1/p), from the p-factor integers at s = odd(p)."""
    f, s = _p_factor_integers(p, order)
    return TruncatedSeries([Fraction(x, s**k) for k, x in enumerate(f)], order=order)


def _p_factor_integers(p: int, order: int, w: int = 1) -> tuple[list[int], int]:
    """F_0 .. F_order of the p-factor and s = w odd(p), f_k = F_k / s**k."""
    if p < 1:
        raise ValueError("p must be >= 1")
    s = w * (p // (p & -p))
    return _quotient_integers(2 * s, (p * s) ** 2, order), s


def _quotient_integers(a: int, b2: int, order: int) -> list[int]:
    """F_0 .. F_order, F_k = f_k s**k for f = ((1+p*t)/(1-p*t))**(1/p), a = 2 s, b2 = (p s)**2.

    (1 - p**2 t**2) f' = 2 f gives (k+1) F_{k+1} = a F_k + b2 (k-1) F_{k-1}
    from F_0 = 1, F_1 = a.  Each division by k+1 is exact when odd(p)
    divides s, as every F_k is then an integer.  Proof: f = sum_m
    C(1/p, m) (2p t / (1 - p t))**m with C(1/p, m) (2p)**m = c_m =
    2**m prod_{i<m} (1 - i p) / m!, so F_k = sum_{1<=m<=k} c_m s**m
    C(k-1, m-1) (p s)**(k-m) for k >= 1, and c_m odd(p)**m is an integer:
    at a prime q not dividing p, q**j divides 1 - i p for at least
    floor(m / q**j) of the i < m, so the product carries v_q(m!); 2**m
    carries it at q = 2 dividing p, and odd(p)**m at an odd q dividing p,
    as v_q(m!) < m.  Each division is still checked: a remainder raises
    InternalMismatch.
    """
    f = [1, a][: order + 1]
    for k in range(1, order):
        fk, rest = divmod(a * f[k] + b2 * (k - 1) * f[k - 1], k + 1)
        if rest:
            raise InternalMismatch(f"p-factor: F_{k + 1} is not an integer")
        f.append(fk)
    return f


def _gamma_integers(params: ParameterSet, p: int, order: int) -> tuple[list[int], int]:
    """F_0 .. F_order and s = w odd(p), gamma_k = F_k / s**k, w the common
    denominator of V+ and V- after coxsums.catalog.cancelled."""
    plus, minus = cancelled(params)
    f, s = _p_factor_integers(p, order, lcm(*(v.denominator for v in plus + minus)))
    for v in plus:  # times 1/(1 - v*t)
        vs = v.numerator * (s // v.denominator)
        for k in range(1, order + 1):
            f[k] += vs * f[k - 1]
    for v in minus:  # times (1 - v*t)
        vs = v.numerator * (s // v.denominator)
        for k in range(order, 0, -1):
            f[k] -= vs * f[k - 1]
    return f, s


@lru_cache(maxsize=_CACHE_SIZE)
def gamma_series(params: ParameterSet, p: int, order: int) -> TruncatedSeries:
    """Gamma series of a parameter set, from its V+/V- multisets."""
    f, s = _gamma_integers(params, p, order)
    return TruncatedSeries([Fraction(x, s**k) for k, x in enumerate(f)], order=order)


class _ToddTable:
    """Hirzebruch's Todd denominators m = [M_0, M_1, ...] and all built from them:
    the Todd weights W_j = M_j j lambda_j over the j with lambda_j != 0 (j = 1,
    then the even j), for each k the row of carries M_k / (M_j M_{k-j}) over
    those j <= k, the reduced ratios R_i = M_i / M_{i-1} as up / down (0 at
    i = 0), Faulhaber's rows by n, and T_k = M_k Td_k in Z[c_1..c_k].  Each
    part only grows; a different denominator list is a different table."""

    __slots__ = ("m", "weights", "carries", "up", "down", "faulhaber", "polynomials")

    def __init__(self, m: list[int]):
        self.m = m
        self.weights: list[int] = []
        self.carries: list[list[int]] = [[]]
        self.up, self.down = [0], [0]
        self.faulhaber: dict[int, tuple[int, list[tuple[int, int]]]] = {}
        self.polynomials = [MPoly({(): 1})]


_TABLE = _ToddTable([1])


def _todd_tables(n: int) -> list[int]:
    """M_0 .. M_n (or more), grown from the Bernoulli table.

    M_k / M_{k-1} = prod(p prime, (p-1) | k) is 2 for odd k and, by von
    Staudt-Clausen, the denominator of B_k for even k.  A table already
    built to n is returned as it is, without reading the Bernoulli table.
    """
    m = _TABLE.m
    if len(m) > n:
        return m
    b = _bernoulli_numbers(n)
    for k in range(len(m), n + 1):
        m.append(m[-1] * (b[k].denominator if k % 2 == 0 else 2))
    return m


def _todd_steps(n: int) -> tuple[list[int], list[list[int]]]:
    """W_j for j = 1, 2, 4, ... and the carry rows 0 .. n (or more) of the Todd recurrence.

    Each weight W_k = M_k (-B_k / k!) is formed from the Bernoulli table
    only for the k it keeps, k = 1 and the even k.  Row k of the carries
    comes from row k-1, which holds every j of row k but j = k:
    C_{k,j} = C_{k-1,j} R_k / R_{k-j}, with the ratios R_i = M_i / M_{i-1}
    as reduced pairs kept with the table (small integers for a true table),
    and C_{k,k} = 1 / M_0.
    As C_{k-1,j} is an integer, each such division is exact exactly when
    M_k / (M_j M_{k-j}) is an integer.  Each weight and carry division is
    checked once, when its entry is built, the weight of k before the
    carries of k; a remainder raises InternalMismatch and leaves the row
    unbuilt.  A table already built to n is returned as it is.
    """
    table = _TABLE
    m = _todd_tables(n)
    weights, carries, up, down = table.weights, table.carries, table.up, table.down
    if len(carries) > n:
        return weights, carries
    b = _bernoulli_numbers(n)
    for i in range(len(up), n + 1):
        ratio = Fraction(m[i], m[i - 1])
        up.append(ratio.numerator)
        down.append(ratio.denominator)
    distinct: dict[int, int] = {}  # one object per value: 57k among the 251k carries to n = 1000
    for k in range(len(carries), n + 1):
        diagonal = k == 1 or k % 2 == 0  # row k holds j = k
        if diagonal:
            wk = -b[k] / factorial(k)  # k lambda_k
            weight, rest = divmod(wk.numerator * m[k], wk.denominator)
            if rest:
                raise InternalMismatch(f"Todd pass: M_{k} {k} lambda_{k} is not an integer")
        uk, dk = up[k], down[k]
        row = []
        for j, carry in zip((1, *range(2, k, 2)), carries[k - 1]):
            carry, rest = divmod(carry * uk * down[k - j], dk * up[k - j])
            if rest:
                raise InternalMismatch(f"Todd pass: M_{k} / (M_{j} M_{k - j}) is not an integer")
            row.append(distinct.setdefault(carry, carry))
        if diagonal:
            carry, rest = divmod(1, m[0])
            if rest:
                raise InternalMismatch(f"Todd pass: M_{k} / (M_{k} M_0) is not an integer")
            row.append(carry)
            weights.append(weight)
        carries.append(row)
    return weights, carries


def _reflection_product(g: Sequence) -> list:
    """c_1 .. c_(n//2), the t**(2m) coefficients of g(t) g(-t) (its odd ones are 0),
    from g_0 = 1 and g_1 .. g_n.

    c_m = sum_i (-1)**i g_i g_{2m-i}, whose terms i and 2m - i are equal, so
    c_m = 2 (g_2m + sum_{0<i<m} (-1)**i g_i g_{2m-i}) + (-1)**m g_m**2.  The
    sign (-1)**i is applied here, to the g_i with i <= n/2, and nowhere else.
    """
    h = (len(g) - 1) // 2
    s = [-x if i % 2 else x for i, x in enumerate(g[: h + 1])]  # (-1)**i g_i
    return [
        2 * (g[2 * m] + sum(map(mul, s[1:m], g[2 * m - 1 : m : -1]))) + s[m] * g[m]
        for m in range(1, h + 1)
    ]


def _todd_pass(g: Sequence) -> list:
    """T_0 .. T_n, T_k = M_k Td_k(gamma), from g_0 = 1 and g_i = gamma_i.

    The recurrence reads only P_1 = g_1 and the even P_2m, so only those are
    formed: gamma(t) gamma(-t) = prod(1 - x_j**2 t**2) has the coefficients
    c_m of _reflection_product in t**2, and Newton's identity over them gives
    P_2m = -(m c_m + sum_{i<m} c_i P_{2m-2i}): about n**2/4 products, half of
    Newton's identity over every P_k.  The g_i may lie in any ring where ints
    act by multiplication, with negation and divmod by an int: ints, or
    MPoly for the polynomials themselves.
    """
    c = _reflection_product(g)
    q = list(g[:2]) + [0] * (len(g) - 2)  # T_0 = g_0, P_1 = g_1; the odd P_k (k >= 3) stay 0
    for m, cm in enumerate(c, 1):
        q[2 * m] = -sum(map(mul, c[: m - 1], q[2 * m - 2 : 0 : -2]), m * cm)
    return _todd_recurrence(q)


def _todd_recurrence(q: Sequence) -> list:
    """T_0 .. T_n from q_0 = T_0 = 1 and the virtual-root power sums q_k = P_k.

    k T_k = sum_j C_{k,j} T_{k-j} w_j over j = 1, 2, 4, ... <= k, with the
    carries C_{k,j} = M_k / (M_j M_{k-j}) and w_j = W_j P_j from the weights
    W_j = M_j j lambda_j (lambda_j = 0 at odd j >= 3), so the odd q_k with
    k >= 3 are not read and may hold anything.  The weights and
    carries come checked from their table; the division by k, which makes
    M_k Td_k an integer, is checked on every call.
    """
    n = len(q) - 1
    weights, carries = _todd_steps(n)
    w = list(map(mul, weights, q[1:2] + q[2::2]))
    even = w[1:]
    t = [q[0]]
    for k in range(1, n + 1):
        row = carries[k]
        acc = row[0] * t[k - 1] * w[0]
        if k > 1:
            acc += sum(map(mul, map(mul, row[1:], t[k - 2 :: -2]), even))
        tk, rest = divmod(acc, k)
        if rest:
            raise InternalMismatch(f"Todd pass: M_{k} Td_{k} is not an integer")
        t.append(tk)
    return t


def todd_values(series: TruncatedSeries, n_max: int) -> tuple[Fraction, ...]:
    """Td_0 .. Td_n evaluated at the gamma coefficients of series."""
    if series[0] != 1:
        raise ConstantTermNotOne(f"a gamma series starts with 1, got {series[0]}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > series.order:
        raise ValueError("n_max exceeds the order of the gamma series")
    gammas = [(c.numerator, c.denominator) for c in series.coefficients[1 : n_max + 1]]
    scaled, u = weighted_scale(gammas)
    t = _todd_pass([1] + scaled)
    m = _todd_tables(n_max)
    return tuple(Fraction(tk, m[k] * u**k) for k, tk in enumerate(t))


def todd_polynomials(n: int) -> tuple[MPoly, ...]:
    """M_0 Td_0 .. M_n Td_n as integer polynomials in the gamma coefficients c_i."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _TABLE.polynomials  # rebuilt longer when asked for more
    if n >= len(table):
        table[:] = _todd_pass([MPoly({(): 1})] + [MPoly.variable(i) for i in range(1, n + 1)])
    return tuple(table[: n + 1])


_BERNOULLI = [Fraction(1)]  # B_0, B_1, ... (B_1 = -1/2); only ever appended to


def _tangent_numbers(n: int) -> list[int]:
    """T_0 = 0, T_1 = 1, T_2 = 2, T_3 = 16, ... T_n (n >= 1), where
    tan x = sum T_k x**(2k-1) / (2k-1)!; Brent and Harvey's all-integer O(n**2) pass.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n in the classical convention (B_1 = -1/2).

    B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1)).  Each growth reruns the
    tangent pass from the start, so the table grows by at least doubling.
    """
    b = _BERNOULLI
    if n >= len(b):
        top = max(n, 2 * len(b))
        tangent = _tangent_numbers(top // 2)
        for m in range(len(b), top + 1):
            if m == 1:
                b.append(Fraction(-1, 2))
            elif m % 2:
                b.append(Fraction(0))
            else:
                k, q = m // 2, 4 ** (m // 2)
                b.append(Fraction((-1) ** (k - 1) * m * tangent[k], q * (q - 1)))
    return tuple(b[: n + 1])


def bernoulli_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), constant term first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    numbers = _bernoulli_numbers(n)
    return tuple(comb(n, k) * numbers[n - k] for k in range(n + 1))


def _faulhaber_row(n: int) -> tuple[int, list[tuple[int, int]]]:
    """M_n (n+1) and the pairs (n+1-k, C(n+1, k) B_k M_n / den(B_k)) for k = 0, 1
    and the even k <= n, B_1 taken as +1/2; each division is checked once,
    when the row is built."""
    rows = _TABLE.faulhaber
    m = _todd_tables(n)
    if n not in rows:
        b = _bernoulli_numbers(n)
        row = []
        for k in (0, 1, *range(2, n + 1, 2)) if n else (0,):
            scale, rest = divmod(m[n], b[k].denominator)
            if rest:
                raise InternalMismatch(f"Faulhaber sum n={n}: den(B_{k}) does not divide M_{n}")
            bm = b[k].numerator * scale
            row.append((n + 1 - k, comb(n + 1, k) * (-bm if k == 1 else bm)))
        rows[n] = m[n] * (n + 1), row
    return rows[n]


def faulhaber_sum(n: int, sums: Sequence[int]) -> Fraction:
    """sum_i (1**n + 2**n + ... + x_i**n) from the power sums S_j = sum_i x_i**j.

    Faulhaber's formula (1/(n+1)) sum_{k<=n} C(n+1, k) B_k S_{n+1-k} with
    B_1 taken as +1/2; reads S_1 .. S_{n+1}, and of the B_k only B_0, B_1
    and the even B_k, as the odd B_k with k >= 3 vanish.  The sum runs in
    integers over M_n, which every den(B_k) with k <= n divides (von
    Staudt-Clausen); each of those divisions is checked when the row of
    integer weights for n is built, and a remainder raises InternalMismatch.
    """
    denominator, row = _faulhaber_row(n)
    return Fraction(sum(weight * sums[i] for i, weight in row), denominator)


def faulhaber(n: int, r: int) -> Fraction:
    """The power sum 1**n + 2**n + ... + r**n, by Faulhaber's formula."""
    if n < 0 or r < 0:
        raise ValueError("n and r must be >= 0")
    return faulhaber_sum(n, [r**j for j in range(n + 2)])
