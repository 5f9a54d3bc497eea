"""Exact verification suites over the whole classification.

Each ``check_*`` function returns a :class:`CheckReport`; a failed
report always carries a witness describing the first failing instance
with both side values.  Checks accept their inputs (parameter sets,
exponent lists, evaluators) as optional arguments so tests can inject a
corrupted constant and prove the suite is able to fail.

The Todd-symmetry suite is an exact identity over Z[c_1..c_n], built
from the integer polynomials M_k Td_k of ``coxsums.todd``; its seed
only picks the rational points at which the integer Todd pass is
checked, by the same evaluation of the two sides, scaled to integers
by M_n u**n.  A check's points go through one Todd pass over the point
vectors of ``coxsums.todd`` (``_scaled_todd_passes``), and each side is
evaluated once over the same vectors.  Each point is drawn by a rule of this module
(``_seeded_point``) from ``Random(f"{seed}:{a}:{b}").getrandbits``: per
coordinate, a numerator of 8 bits redrawn while >= 201, minus 100, then
a denominator of 7 bits redrawn while >= 100, plus 1.  These are the
values CPython 3.11's ``randint(-100, 100)`` and ``randint(1, 100)``
give, but they are defined here, not by ``randrange`` internals.

The methods suite runs the Todd route once per type, at p = 1, against the
direct and closed sums.  The p-factor f = ((1+pt)/(1-pt))**(1/p) has an odd
log, so f(t) f(-t) = 1: f adds 2 to g_1 and leaves gamma(t) gamma(-t) as it
is, the only two things the Todd pass reads.  So for p = 2 and 3 the suite
checks exactly that of f's integers (``_p_freeness``), through the pass's
own step for gamma(t) gamma(-t) (``todd._reflection_product``), which with
the pass's contract proves the Todd values at p equal those at p = 1 for
every type, and keeps the checked divisions of f's recurrence.

``build_tasks`` lays out every sub-check of the selected suites in a
fixed catalog order, from one table that maps each suite name to its
checks.  It builds one parameter table per call: ``profile_parameters``
once per type of the sweep, shared by the five per-profile suites, with
each type's default set (``parameters(t)``) taken from the same entries
for methods, gamma34, kostant and specializations.  A type whose
parameter sets cannot be built (a table fault) gets checks that raise
that exception.  ``run_tasks`` executes the tasks in order, and a check
that raises becomes a failed report, so such a fault fails the type's
checks and the sweep goes on.  The p-freeness of each p reads no type, so a
sweep computes it once, in the first methods check, and hands the result,
or the exception it raised, to the rest; the sweep keeps both tables in
one memo (``_Sweep.once``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, lcm, prod
from operator import mul
from random import Random
from typing import Callable, Iterator, Sequence

from . import powersums as _powersums
from . import todd as _todd
from .catalog import (
    CoxeterType,
    ExponentList,
    ParameterSet,
    cancelled,
    catalog,
    dual_partition,
    exponents,
    parameters,
    profile_parameters,
)
from .errors import ConstantTermNotOne, InternalMismatch, WrongFamily
from .intpoly import IntPolynomial, one_minus_power_product
from .mpoly import MPoly
from .series import TruncatedSeries

@dataclass(frozen=True)
class CheckReport:
    suite: str
    subject: str
    passed: bool
    witness: str | None = None


def _report(suite: str, subject: str, failures: list[str]) -> CheckReport:
    if failures:
        return CheckReport(suite, subject, False, failures[0])
    return CheckReport(suite, subject, True)


def _profile_subject(t: CoxeterType, profile: str | None) -> str:
    return f"{t.name} [{profile}]" if profile else t.name


def _resolve(
    t: CoxeterType, profile: str | None, params: ParameterSet | None
) -> ParameterSet:
    return params if params is not None else parameters(t, profile)


def _exps(t: CoxeterType, exps: ExponentList | None) -> ExponentList:
    return exps if exps is not None else exponents(t)


def catalan(k: int) -> Fraction:
    """Catalan numbers, extended by C_{-1} = -1/2."""
    if k == -1:
        return Fraction(-1, 2)
    if k < -1:
        raise ValueError("k must be >= -1")
    return Fraction(comb(2 * k, k), k + 1)


# -- per-type table identities ------------------------------------------


def check_expsum(
    t: CoxeterType,
    profile: str | None = None,
    params: ParameterSet | None = None,
    exps: ExponentList | None = None,
) -> CheckReport:
    """sum(q**m_i) equals q * prod(1-q**v, V+) / prod(1-q**v, V-) exactly.

    Checked cross-multiplied after cancellation, over Z[q]: each side is
    one_minus_power_product applied to sum(q**m_i) or to q, one pass per
    factor (1 - q**v), with no polynomial product.
    """
    ps = _resolve(t, profile, params)
    el = _exps(t, exps)
    failures: list[str] = []
    plus, minus = cancelled(ps)
    if any(v.denominator != 1 or v.numerator <= 0 for v in plus + minus):
        failures.append(
            f"non-integer factor exponents after cancellation: "
            f"V+={sorted(plus)}, V-={sorted(minus)}"
        )
    else:
        # Cross-multiplied: Z[q] has no zero divisors, so this equality holds
        # exactly when the quotient exists and is sum(q**m_i).
        left = one_minus_power_product(
            [v.numerator for v in minus], IntPolynomial.from_exponents(el.values)
        )
        right = one_minus_power_product([v.numerator for v in plus], IntPolynomial.monomial(1))
        if left != right:
            failures.append(f"sum(q**m_i)*prod(V-) = {left} but q*prod(V+) = {right}")
    return _report("expsum", _profile_subject(t, profile), failures)


def check_multiset_laws(
    t: CoxeterType,
    profile: str | None = None,
    params: ParameterSet | None = None,
) -> CheckReport:
    """prod(V+) = r * prod(V-) and |V+| = |V-|, before any cancellation."""
    ps = _resolve(t, profile, params)
    failures = []
    prod_plus, prod_minus = (prod(vs, start=Fraction(1)) for vs in (ps.V_plus, ps.V_minus))
    if prod_plus != ps.r * prod_minus:
        failures.append(f"prod(V+) = {prod_plus} but r*prod(V-) = {ps.r * prod_minus}")
    if len(ps.V_plus) != len(ps.V_minus):
        failures.append(f"|V+| = {len(ps.V_plus)} but |V-| = {len(ps.V_minus)}")
    return _report("multiset", _profile_subject(t, profile), failures)


def check_gamma_formula(
    t: CoxeterType,
    profile: str | None = None,
    params: ParameterSet | None = None,
) -> CheckReport:
    """gamma = h**2 + (h-2)(alpha+beta-1) - (r-1)*alpha*beta."""
    ps = _resolve(t, profile, params)
    expected = (
        ps.h * ps.h
        + (ps.h - 2) * (ps.alpha + ps.beta - 1)
        - (ps.r - 1) * ps.alpha * ps.beta
    )
    failures = []
    if ps.gamma != expected:
        failures.append(f"gamma = {ps.gamma} but formula gives {expected}")
    return _report("gamma", _profile_subject(t, profile), failures)


def check_h_relation(
    t: CoxeterType,
    profile: str | None = None,
    params: ParameterSet | None = None,
) -> CheckReport:
    """h = (d/2)(r + 2 + nu)."""
    ps = _resolve(t, profile, params)
    expected = Fraction(ps.d, 2) * (ps.r + 2 + ps.nu)
    failures = []
    if ps.h != expected:
        failures.append(f"h = {ps.h} but (d/2)(r+2+nu) = {expected}")
    return _report("h-relation", _profile_subject(t, profile), failures)


def check_beta_formula(
    t: CoxeterType,
    profile: str | None = None,
    params: ParameterSet | None = None,
) -> CheckReport:
    """beta = (h**2 - gamma + (h-2)(alpha-1)) / (2 + (r-1)*alpha - h).

    When the denominator vanishes beta is unconstrained and the check
    passes vacuously.
    """
    ps = _resolve(t, profile, params)
    denom = 2 + (ps.r - 1) * ps.alpha - ps.h
    if denom == 0:
        return CheckReport(
            "beta", _profile_subject(t, profile), True, "beta unconstrained (denominator zero)"
        )
    expected = (ps.h * ps.h - ps.gamma + (ps.h - 2) * (ps.alpha - 1)) / denom
    failures = []
    if ps.beta != expected:
        failures.append(f"beta = {ps.beta} but formula gives {expected}")
    return _report("beta", _profile_subject(t, profile), failures)


def _signed_binomials(x: int) -> list[int]:
    """(-1)**(x-j) C(x,j) for 0 <= j <= x: the alternating binomial row of degree x."""
    return [(-1) ** (x - j) * comb(x, j) for j in range(x + 1)]


def check_symmetry_identities(
    t: CoxeterType,
    a_max: int,
    b_max: int,
    exps: ExponentList | None = None,
) -> CheckReport:
    """Alternating binomial identities induced by m_i + m_{r+1-i} = h.

    For every 0 <= a <= a_max, 0 <= b <= b_max:
    sum_j (-1)**(a-j) C(a,j) h**j S_{a+b-j} = same with a <-> b,
    where S_k = sum(m_i**k).  The integer rows (-1)**(x-j) C(x,j) h**j are
    built once per check, for x <= max(a_max, b_max); each side is the dot
    product of a row with S_{a+b}, S_{a+b-1}, ...
    """
    if a_max < 0 or b_max < 0:
        raise ValueError("a_max and b_max must be >= 0")
    el = _exps(t, exps)
    h = el.coxeter_number
    sums = _powersums.exponent_power_sums(el, a_max + b_max)
    rows = [
        [s * h**j for j, s in enumerate(_signed_binomials(x))]
        for x in range(max(a_max, b_max) + 1)
    ]
    failures = []
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            tail = sums[a + b :: -1]
            lhs = sum(map(mul, rows[a], tail))
            rhs = sum(map(mul, rows[b], tail))
            if lhs != rhs:
                failures.append(f"(a={a}, b={b}): {lhs} != {rhs}")
    return _report("symmetry", t.name, failures)


# -- Todd symmetry: an exact identity, and todd_fn at seeded points -------


def _seeded_point(rng: Random, n: int) -> list[tuple[int, int]]:
    """n pairs (x, y) for x/y, -100 <= x <= 100 and 1 <= y <= 100, drawn in that order.

    x is 8 random bits redrawn while >= 201, minus 100; y is 7 bits redrawn
    while >= 100, plus 1.  This is the rejection rule of CPython 3.11's
    randint(-100, 100) and randint(1, 100), so the points equal theirs,
    without the randrange layers around each draw.
    """
    bits = rng.getrandbits
    point = []
    for _ in range(n):
        x = bits(8)
        while x >= 201:
            x = bits(8)
        y = bits(7)
        while y >= 100:
            y = bits(7)
        point.append((x - 100, y + 1))
    return point


def check_todd_symmetry(
    a: int,
    b: int,
    samples: int = 50,
    seed: int = 42,
    todd_fn: Callable[
        [Sequence[Sequence[tuple[int, int]]]], Sequence[tuple[Sequence[int], int]]
    ] | None = None,
) -> CheckReport:
    """Alternating binomial identity between c_1**j (a+b-j)! Td_{a+b-j} terms.

    With n = a+b, sides(c_1, T) forms both sides times M_n, where
    T_k = M_k Td_k: each is the dot product of one integer row,
    (-1)**(x-j) C(x,j) (n-j)! M_n/M_{n-j} for j <= x (x = a, then b),
    with c_1**j T_{n-j}.  The two rows are built once per check.  Over
    Z[c_1..c_n], from todd_polynomials, this proves the identity.  Then
    todd_fn, by default todd._scaled_todd_passes looked up at call time,
    maps the list of seeded rational points (_seeded_point), each a list
    of (numerator, denominator) pairs, to one T and u per point with
    T_k = M_k u**k Td_k.  sides(c_1 u, T), taken once over the point
    vectors of coxsums.todd, are M_n u**n times both sides at every point,
    integers that must be equal.  The points are read in order: at each, a
    u that does not clear c_1 raises InternalMismatch, and otherwise the
    first unequal sides are the witness.  The sides become Fractions only
    for a witness.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    evaluate = todd_fn if todd_fn is not None else _todd._scaled_todd_passes
    n = a + b
    subject = f"(a={a}, b={b})"
    m = _todd._todd_tables(n)
    row_a, row_b = (
        [s * factorial(n - j) * (m[n] // m[n - j]) for j, s in enumerate(_signed_binomials(x))]
        for x in (a, b)
    )

    def sides(c1, t):
        powers = accumulate(repeat(c1, max(a, b)), mul, initial=1)
        terms = [power * t[n - j] for j, power in enumerate(powers)]  # c_1**j T_{n-j}
        return sum(map(mul, row_a, terms)), sum(map(mul, row_b, terms))

    lhs, rhs = sides(MPoly.variable(1), _todd.todd_polynomials(n))
    if lhs != rhs:
        return _report(
            "todd-symm", subject, [f"as polynomials in c_1..c_{n}, times M_{n}: {lhs} != {rhs}"]
        )
    rng = Random(f"{seed}:{a}:{b}")
    points = [_seeded_point(rng, n) for _ in range(samples)]
    results = evaluate(points)
    if len(results) != samples:
        raise InternalMismatch(f"todd_fn gave {len(results)} results for {samples} points")
    c1s = [point[0] if point else (0, 1) for point in points]
    cleared = [divmod(x * u, y) for (x, y), (_, u) in zip(c1s, results)]
    vector = _todd._PointVector
    lhs, rhs = sides(
        vector(c1u for c1u, _ in cleared), [vector(tk) for tk in zip(*(t for t, _ in results))]
    )
    failures = []
    for trial, ((x, y), (_, u), (_, rest), left, right) in enumerate(
        zip(c1s, results, cleared, lhs, rhs)
    ):
        if rest:
            raise InternalMismatch(f"sample {trial}: u = {u} does not clear c_1 = {x}/{y}")
        if left != right:
            whole = m[n] * u**n
            failures.append(
                f"sample {trial}, c = {[Fraction(*c) for c in points[trial]]}: "
                f"{Fraction(left, whole)} != {Fraction(right, whole)}"
            )
            break
    return _report("todd-symm", subject, failures)


# -- D/E parameters in Kostant form ---------------------------------------


def check_de_kostant(
    t: CoxeterType,
    params: ParameterSet | None = None,
) -> CheckReport:
    """For types D and E: with a = 2d, b = h+2-2d, the multisets satisfy
    V- = {a/2, b/2}, V+ = {b, r*a/4}, h = d*r - 4d + 6 and
    d*(h - 2r - 6d + 26) = 24."""
    if t.family not in ("D", "E"):
        raise WrongFamily(f"{t.name} is not of type D or E")
    ps = _resolve(t, None, params)
    a = 2 * ps.d
    b = ps.h + 2 - 2 * ps.d
    failures = []
    want_minus = tuple(sorted([a / 2, b / 2]))
    if ps.V_minus != want_minus:
        failures.append(f"V- = {ps.V_minus}, expected {want_minus}")
    want_plus = tuple(sorted([Fraction(b), ps.r * a / 4]))
    if ps.V_plus != want_plus:
        failures.append(f"V+ = {ps.V_plus}, expected {want_plus}")
    if ps.h != ps.d * ps.r - 4 * ps.d + 6:
        failures.append(f"h = {ps.h} but d*r-4d+6 = {ps.d * ps.r - 4 * ps.d + 6}")
    product = ps.d * (ps.h - 2 * ps.r - 6 * ps.d + 26)
    if product != 24:
        failures.append(f"d*(h-2r-6d+26) = {product}, expected 24")
    return _report("kostant", t.name, failures)


# -- the T transformation --------------------------------------------------


def t_transform(f: TruncatedSeries, iterations: int = 1, ell: int = 2) -> TruncatedSeries:
    """Apply f(t) -> f(ell*t)**(1/ell) the given number of times.

    Each iteration is g.pow(1/ell) with g(t) = f(ell*t), one O(n**2) pass of
    Miller's power recurrence.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    out = f
    for _ in range(iterations):
        out = _t_once(out, ell)
    return out


def _t_once(f: TruncatedSeries, ell: int) -> TruncatedSeries:
    if f[0] != 1:
        raise ConstantTermNotOne("T needs a series with constant term 1")
    g = TruncatedSeries([ell**j * c for j, c in enumerate(f.coefficients)])
    return g.pow(Fraction(1, ell))


def check_t_integrality(
    k_max: int,
    order: int,
    start: TruncatedSeries | None = None,
) -> CheckReport:
    """Iterating T on (1+t)/(1-t) keeps all coefficients even integers
    beyond the constant, and T**k equals the p-factor at p = 2**k."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    current = start if start is not None else TruncatedSeries([1] + [2] * order)
    failures = []
    for k in range(k_max + 1):
        for n, c in enumerate(current.coefficients):
            if n >= 1 and (c.denominator != 1 or c % 2 != 0):
                failures.append(f"k={k}: coefficient of t**{n} is {c}, not an even integer")
                break
        if failures:
            break
        expected = _todd.p_factor(2**k, order)
        if current != expected:
            failures.append(f"k={k}: T**k differs from the p-factor at p = {2**k}")
            break
        if k < k_max:
            current = t_transform(current)
    return _report("t-transform", f"T**k integrality (k<={k_max})", failures)


def _default_t_rows(order: int) -> list[tuple[str, TruncatedSeries, TruncatedSeries]]:
    ints = range(order + 1)
    return [
        (
            "a_n = n+1 -> b_n = 2**n",
            TruncatedSeries([n + 1 for n in ints]),
            TruncatedSeries([Fraction(2) ** n for n in ints]),
        ),
        (
            "a_n = 2**n -> b_n = C(2n, n)",
            TruncatedSeries([Fraction(2) ** n for n in ints]),
            TruncatedSeries([comb(2 * n, n) for n in ints]),
        ),
        (
            "a_n = Catalan(n+1) -> b_n = 2**n * Catalan(n)",
            TruncatedSeries([catalan(n + 1) for n in ints]),
            TruncatedSeries([Fraction(2) ** n * catalan(n) for n in ints]),
        ),
    ]


def check_t_example(
    label: str, source: TruncatedSeries, expected: TruncatedSeries
) -> CheckReport:
    """One T-transformation sequence pair: T(source) equals expected."""
    got = t_transform(source)
    failures = []
    if got != expected:
        failures.append(f"T(a) = {got.coefficients[:6]}..., expected {expected.coefficients[:6]}...")
    return _report("t-transform", label, failures)


# -- gamma coefficient formulas --------------------------------------------


def _gamma_specializations(
    family: str, r: int, n_max: int
) -> Iterator[tuple[int, int, int]]:
    """(p, n, gamma_n) by the closed forms of check_gamma_specializations, for
    n = 1..n_max in check order (for C_r, p = 1 then p = 2 at each n).

    Each value comes from running integers in O(1) operations: with x = 2r,
    G_n = sum(x**j, j <= n-2) and S_n = sum(Catalan(j-1) x**(n-2j), 2j <= n),
    S_n = x**2 S_{n-2} + Catalan(n//2 - 1) x**(n % 2) from S_0 = -1/2, S_1 = -r,
    and the p = 2 value gamma_n = -2 S_n runs from 1 and 2r.
    """
    if family == "A":
        power = 1  # r**(n-1)
        for n in range(1, n_max + 1):
            yield 1, n, power * r + power
            power *= r
        return
    x = 2 * r
    power, geometric = 1, 0  # x**(n-1) and G_n
    by_parity = [1, 2 * r]  # -2 S_n for the last even and odd n
    cat = 1  # Catalan(n//2 - 1)
    for n in range(1, n_max + 1):
        yield 1, n, power * x - 2 * geometric
        if n >= 4 and n % 2 == 0:  # Catalan(k+1) = Catalan(k) 2(2k+1) / (k+2)
            cat = cat * 2 * (n - 3) // (n // 2)
        if n >= 2:
            by_parity[n % 2] = x * x * by_parity[n % 2] - 2 * cat * x ** (n % 2)
        yield 2, n, by_parity[n % 2]
        geometric += power
        power *= x


def check_gamma_specializations(
    t: CoxeterType,
    n_max: int,
    params: ParameterSet | None = None,
) -> CheckReport:
    """Closed forms for gamma_n in rank for the A and C families.

    A_r at p=1: gamma_n = r**n + r**(n-1).  C_r at p=1:
    gamma_n = (2r)**n - 2*sum((2r)**j, j<=n-2); at p=2:
    gamma_n = -2*sum(Catalan(j-1)*(2r)**(n-2j), 2j<=n) with Catalan(-1) = -1/2.
    Compared in integers, F_n == gamma_n s**n from the gamma integers
    (gamma_n = F_n / s**n); a Fraction is built only for a witness.
    """
    if t.family not in ("A", "C"):
        raise WrongFamily(f"{t.name} is not of type A or C")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ps = _resolve(t, None, params)
    ps_values = (1,) if t.family == "A" else (1, 2)
    integers = {p: _todd._gamma_integers(ps, p, n_max) for p in ps_values}
    failures = []
    for p, n, want in _gamma_specializations(t.family, ps.r, n_max):
        f, s = integers[p]
        if f[n] != want * s**n:
            failures.append(f"p={p}, n={n}: gamma_n = {Fraction(f[n], s**n)}, formula {want}")
            break
    return _report("specializations", t.name, failures)


def check_gamma34(
    t: CoxeterType,
    p: int,
    params: ParameterSet | None = None,
) -> CheckReport:
    """The explicit gamma_3 and gamma_4 polynomials in (h, gamma, alpha, beta, p).

    Checked in integers: gamma_k = F_k / u**k from the gamma integers, and
    with e = lcm(den alpha, den beta), s = e (alpha + beta) and
    q = e**2 alpha beta, the formulas give the integers G3 = 3 e**2 gamma_3
    and G4 = 3 e**3 gamma_4; so gamma_3 holds when 3 e**2 F_3 = u**3 G3 and
    gamma_4 when 3 e**3 F_4 = u**4 G4.  Both sides become Fractions only for
    a witness.
    """
    ps = _resolve(t, None, params)
    h, g = ps.h, ps.gamma
    a, b = ps.alpha, ps.beta
    e = lcm(a.denominator, b.denominator)
    ae, be = a.numerator * (e // a.denominator), b.numerator * (e // b.denominator)
    s, q = ae + be, ae * be
    f, u = _todd._gamma_integers(ps, p, 4)
    c = h * h - g - h + 2
    e2 = e * e
    g3 = (
        3 * e2 * (-(h**3) + 2 * h * g - 2 * g) + e2 * (2 * p * p + 4)
        - 3 * c * e * s - 3 * (h - 2) * q
    )
    g4 = (
        3 * e2 * e * (-(h**4) + h * h * g + g * g + 3 * h**3 - 6 * h * g - h * h + 2 * g - 2)
        + 2 * e2 * e * h * (p * p + 5)
        - 3 * e * c * ((2 * h - 2) * e * s + s * s - q)
        - 3 * (h - 2) * ((2 * h - 2) * e + s) * q
    )
    failures = []
    if 3 * e2 * f[3] != u**3 * g3:
        failures.append(
            f"gamma_3 = {Fraction(f[3], u**3)} but formula gives {Fraction(g3, 3 * e2)}"
        )
    if 3 * e2 * e * f[4] != u**4 * g4:
        failures.append(
            f"gamma_4 = {Fraction(f[4], u**4)} but formula gives {Fraction(g4, 3 * e2 * e)}"
        )
    return _report("gamma34", f"{t.name} (p={p})", failures)


# -- cross-method power sums ------------------------------------------------


def _p_freeness(p: int, n_max: int) -> str | None:
    """None when the p-factor f at p is p-free to degree n_max, else a witness.

    Over F_k = f_k s**k from todd._p_factor_integers, it checks F_0 = 1,
    F_1 = 2 s and that todd._reflection_product, the step of the Todd pass
    that reads gamma(t) gamma(-t), gives 0 at every even k with
    2 <= k <= n_max, so f(t) f(-t) = 1 to degree n_max.  The Todd pass reads
    only g_1 and those coefficients; such an f adds 2 to g_1 and leaves
    gamma(t) gamma(-t) as it is at every p, so the Todd values at p equal
    those at p = 1.  A remainder in the p-factor's recurrence raises
    InternalMismatch.
    """
    f, s = _todd._p_factor_integers(p, n_max)
    for k, want in enumerate((1, 2 * s)[: n_max + 1]):
        if f[k] != want:
            return f"p={p}, k={k}: F_{k} = {f[k]} != {want}"
    for m, total in enumerate(_todd._reflection_product(f), 1):
        if total:
            return f"p={p}, k={2 * m}: sum_i (-1)**i F_i F_(k-i) = {total} != 0"
    return None


def check_methods(
    t: CoxeterType,
    n_max: int = 12,
    exps: ExponentList | None = None,
    params: ParameterSet | None = None,
    p_freeness: Callable[[int, int], str | None] | None = None,
) -> CheckReport:
    """Todd, closed and direct power sums agree at every n <= n_max; heights too.

    The Todd route runs once, at p = 1, and is compared with the direct sums.
    p = 2 and 3 are covered by p_freeness(p, n_max), by default _p_freeness:
    None proves that the Todd values at p equal those at p = 1 at every
    n <= n_max, for every type; a witness fails the check.  A sweep hands in
    its own, which computes each result once for all its types.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    free = p_freeness if p_freeness is not None else _p_freeness
    resolved = _resolve(t, None, params)
    el = _exps(t, exps)
    sums = _powersums.exponent_power_sums(el, n_max)
    # The simply-laced check reads the height sum of degree 1.
    heights = _powersums.dual_heightsums(dual_partition(el), max(n_max, 1))
    closed = _powersums.closed_power_sums(resolved, n_max + 1)
    degrees = range(n_max + 1)
    todd = _powersums._todd_quotients(t, n_max, 1, resolved, degrees)
    failures = []
    for n in degrees:
        direct = sums[n]
        x, d = todd[n]
        if x != direct * d:
            failures.append(f"n={n}, p=1: todd {Fraction(x, d)} != direct {direct}")
            break
        if closed[n] != direct:
            failures.append(f"n={n}: closed {closed[n]} != direct {direct}")
            break
    for p in (2, 3):  # the Todd values at p are those at p = 1 when f is p-free
        if not failures and (witness := free(p, n_max)):
            failures.append(witness)
    # After every S_n: the height sum of degree n reads S_{n+1}.
    for n in degrees:
        if failures:
            break
        d, row = _todd._faulhaber_row(n)  # Faulhaber's sum x / d
        x = sum(weight * closed[i] for i, weight in row)
        if x != heights[n] * d:
            failures.append(f"heights n={n}: closed {Fraction(x, d)} != direct {heights[n]}")
    if not failures and t.family in ("A", "D", "E"):
        # Simply-laced: gamma = h**2 forces the classical height-sum form.
        h, r = t.coxeter_number, t.rank
        if resolved.gamma != h * h:
            failures.append(f"gamma = {resolved.gamma} != h**2 = {h * h}")
        else:
            want = Fraction(r * (h * h + h), 6)
            if heights[1] != want:
                failures.append(f"height sum {heights[1]} != r(h**2+h)/6 = {want}")
    return _report("methods", t.name, failures)


def check_s4_nonuniversality() -> CheckReport:
    """The fourth-power sum is not r times a function of (h, gamma) alone.

    A9 and D6 share h = 10 and gamma = 100, yet their fourth-power sums
    divided by the rank differ.
    """
    a9 = CoxeterType("A", 9)
    d6 = CoxeterType("D", 6)
    failures = []
    pa, pd = parameters(a9), parameters(d6)
    if (pa.h, pa.gamma) != (pd.h, pd.gamma):
        failures.append(
            f"A9 has (h, gamma) = {(pa.h, pa.gamma)}, D6 has {(pd.h, pd.gamma)}"
        )
    else:
        left = _powersums.powersum_direct(a9, 4).value / pa.r
        right = _powersums.powersum_direct(d6, 4).value / pd.r
        if left == right:
            failures.append(f"S4/r coincide at {left}; expected a strict inequality")
    return _report("methods", "A9 vs D6 (S4 not universal in h, gamma)", failures)


# -- suite orchestration -----------------------------------------------------

Spec = tuple[str, Callable[[], CheckReport]]
Task = tuple[str, str, Callable[[], CheckReport]]
# (profile, parameter set) per profile of a type, or the one entry (None, the
# exception) when its sets cannot be built.
Profiles = tuple[tuple[str | None, ParameterSet | Exception], ...]


class _Sweep:
    """What the suite builders of one build_tasks call read: the catalog types,
    n_max, the seed, and one memo of what is built once on first use and
    shared: each type's parameter sets and each p's p-freeness."""

    def __init__(self, types: Sequence[CoxeterType], n_max: int, seed: int):
        self.types, self.n_max, self.seed = types, n_max, seed
        self._built: dict[tuple, object] = {}

    def once(self, build: Callable, *args):
        """build(*args), computed when first asked for and kept for the rest of
        the sweep.  An exception that it raises is kept and raised again on
        each ask, so each check that asks fails with it in run_tasks."""
        key = (build, *args)
        if key not in self._built:
            try:
                self._built[key] = build(*args)
            except Exception as e:
                self._built[key] = e
        found = self._built[key]
        if isinstance(found, Exception):
            raise found
        return found

    def profiles(self, t: CoxeterType) -> Profiles:
        """profile_parameters(t), built once.  A table fault that they raise is
        kept, and _task turns it into checks that raise it: the fault fails
        t's checks in run_tasks, and the sweep goes on."""
        try:
            return self.once(profile_parameters, t)
        except Exception as e:
            return ((None, e),)

    def default(self, t: CoxeterType) -> ParameterSet | Exception:
        """parameters(t) from the same table: the first entry, standard for
        every named family (H2 included) and redefined for the I2 types, each
        of which has only that one."""
        return self.profiles(t)[0][1]


def _raise(error: Exception) -> CheckReport:
    raise error


def _task(
    check: Callable[..., CheckReport], *args, params: ParameterSet | Exception, **kwargs
):
    """check(*args, params=params, **kwargs) as a task, or, where params is the
    exception that building the parameter sets raised, a task that raises it."""
    if isinstance(params, Exception):
        return partial(_raise, params)
    return partial(check, *args, params=params, **kwargs)


def _per_profile(sweep: _Sweep, check: Callable[..., CheckReport]) -> list[Spec]:
    return [
        (_profile_subject(t, prof), _task(check, t, prof, params=ps))
        for t in sweep.types
        for prof, ps in sweep.profiles(t)
    ]


def _t_transform_specs(sweep: _Sweep) -> list[Spec]:
    rows = [(row[0], partial(check_t_example, *row)) for row in _default_t_rows(20)]
    return rows + [("T**k integrality (k<=5)", partial(check_t_integrality, 5, 30))]


def _specialization_specs(sweep: _Sweep) -> list[Spec]:
    n_max = sweep.n_max
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [
        (t.name, _task(check_gamma_specializations, t, n_max, params=sweep.default(t)))
        for t in sweep.types
        if t.family in ("A", "C")
    ]


def _methods_specs(sweep: _Sweep) -> list[Spec]:
    n_max = sweep.n_max
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    free = partial(sweep.once, _p_freeness)  # it reads no type: one result per p
    specs = [
        (t.name, _task(check_methods, t, n_max, params=sweep.default(t), p_freeness=free))
        for t in sweep.types
    ]
    return specs + [("A9 vs D6 (S4 not universal in h, gamma)", check_s4_nonuniversality)]


# Suite name -> sweep -> [(subject, check)], in report order.  Builders name
# the check_* functions in their bodies, so a check patched on this module
# after import is the one that runs.
_SUITES: dict[str, Callable[[_Sweep], list[Spec]]] = {
    "expsum": lambda sweep: _per_profile(sweep, check_expsum),
    "multiset": lambda sweep: _per_profile(sweep, check_multiset_laws),
    "gamma": lambda sweep: _per_profile(sweep, check_gamma_formula),
    "h-relation": lambda sweep: _per_profile(sweep, check_h_relation),
    "beta": lambda sweep: _per_profile(sweep, check_beta_formula),
    "symmetry": lambda sweep: [
        (t.name, partial(check_symmetry_identities, t, 4, 4)) for t in sweep.types
    ],
    "todd-symm": lambda sweep: [
        (f"(a={a}, b={total - a})", partial(check_todd_symmetry, a, total - a, 50, sweep.seed))
        for total in range(9)
        for a in range(total + 1)
    ],
    "kostant": lambda sweep: [
        (t.name, _task(check_de_kostant, t, params=sweep.default(t)))
        for t in sweep.types
        if t.family in ("D", "E")
    ],
    "t-transform": _t_transform_specs,
    "specializations": _specialization_specs,
    "gamma34": lambda sweep: [
        (f"{t.name} (p={p})", _task(check_gamma34, t, p, params=sweep.default(t)))
        for t in sweep.types
        for p in (1, 2)
    ],
    "methods": _methods_specs,
}

SUITE_NAMES = tuple(_SUITES)


def build_tasks(
    max_rank: int = 12,
    max_m: int = 30,
    n_max: int = 12,
    seed: int = 42,
    suites: Sequence[str] | None = None,
) -> list[Task]:
    """All sub-checks of the selected suites, in deterministic order.

    Every suite that reads parameter sets gets them from one table local to
    this call: profile_parameters once per type, the default set taken from
    its entries.  Arguments a suite cannot run with raise here, before any
    check runs."""
    selected = tuple(suites) if suites is not None else SUITE_NAMES
    for name in selected:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    sweep = _Sweep(catalog(max_rank, max_m), n_max, seed)
    return [
        (suite, subject, check)
        for suite in SUITE_NAMES
        if suite in selected
        for subject, check in _SUITES[suite](sweep)
    ]


def run_tasks(tasks: Sequence[Task]) -> list[CheckReport]:
    """Run tasks in order; a check that raises becomes a failed report."""
    reports = []
    for suite, subject, check in tasks:
        try:
            reports.append(check())
        except Exception as e:
            reports.append(CheckReport(suite, subject, False, f"raised {e!r}"))
    return reports


def run_all(
    max_rank: int = 12,
    max_m: int = 30,
    n_max: int = 12,
    seed: int = 42,
    suites: Sequence[str] | None = None,
) -> list[CheckReport]:
    """Run every selected suite sequentially; deterministic given the seed."""
    return run_tasks(build_tasks(max_rank, max_m, n_max, seed, suites))
