"""Gamma series, Todd values, Bernoulli polynomials, Faulhaber sums."""

import dataclasses
from fractions import Fraction as F
from math import comb, factorial, lcm, prod
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsums import (
    TruncatedSeries,
    applicable_profiles,
    bernoulli_polynomial,
    catalog,
    faulhaber,
    gamma_invariant,
    gamma_series,
    p_factor,
    parameters,
    parse_type,
    todd_values,
)
from coxsums.catalog import cancelled
from coxsums.errors import ConstantTermNotOne, InternalMismatch
from coxsums.series import weighted_scale
from coxsums import todd as todd_module
from coxsums import verify as verify_module
from coxsums.mpoly import MPoly
from coxsums.todd import (
    _PointVector,
    _bernoulli_numbers,
    _scaled_todd_passes,
    _todd_pass,
    _todd_recurrence,
    _todd_steps,
    _todd_tables,
    faulhaber_sum,
    todd_polynomials,
)
from oracles import (
    ConstraintViolated,
    _quotient_power,
    _todd_factor_log,
    gamma_by_factorials,
    gamma_series_xn,
    p_factor_general,
    scaled_todd_pass,
    x_sequence,
)


def quotient_power_by_log_exp(pi, mu, order):
    """((1+pi*t)/(1-pi*t))**mu through inverse and the formal log/exp."""
    num = TruncatedSeries([1, pi], order=order)
    den = TruncatedSeries([1, -pi], order=order)
    return (num * den.inverse()).pow(mu)


# -- Fraction oracles for the integer kernels of coxsums.todd --------------


def bernoulli_by_recurrence(n):
    """B_0 .. B_n from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [F(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(b)


def quotient_power_by_recurrence(pi, mu, order):
    """(k+1) f_{k+1} = 2 pi mu f_k + pi**2 (k-1) f_{k-1} over Fractions."""
    f = [F(1), 2 * pi * mu]
    for k in range(1, order):
        f.append((2 * pi * mu * f[k] + pi * pi * (k - 1) * f[k - 1]) / (k + 1))
    return TruncatedSeries(f, order=order)


def todd_values_by_newton_exp(series, n):
    """Newton's identity, then k Td_k = sum_j (-B_j / j!) P_j Td_{k-j}, over Fractions."""
    b = bernoulli_by_recurrence(n)
    e = [c if i % 2 else -c for i, c in enumerate(series.coefficients[: n + 1])]
    power = [F(0)] * (n + 1)
    td = [F(1)]
    for k in range(1, n + 1):
        power[k] = k * e[k] + sum(e[i] * power[k - i] for i in range(1, k))
        td.append(sum(-b[j] / factorial(j) * power[j] * td[k - j] for j in range(1, k + 1)) / k)
    return tuple(td)


def signed(g):
    """a_0 = g_0 and a_i = (-1)**(i-1) g_i: the gammas as newton_power_sums and
    todd_pass_per_call read them, while _todd_pass reads g itself."""
    return [-x if i and i % 2 == 0 else x for i, x in enumerate(g)]


def newton_power_sums(a):
    """a_0, then every P_k = k a_k + sum_{i<k} a_i P_{k-i}: Newton's identity in full."""
    q = list(a)
    for k in range(1, len(a)):
        q[k] = sum((a[i] * q[k - i] for i in range(1, k)), k * a[k])
    return q


def todd_pass_per_call(a):
    """The integer Todd pass that forms every weight and carry on each call, in any ring.

    Newton's identity over every P_k, then the recurrence with one checked
    weight division per j and one checked carry division per (k, j).
    """
    return todd_recurrence_per_call(newton_power_sums(a))


def todd_recurrence_per_call(q):
    """T_0 .. T_n from the power sums q_k = P_k, every division made and checked per call."""
    n = len(q) - 1
    m = _todd_tables(n)
    weights = [-b / factorial(j) for j, b in enumerate(_bernoulli_numbers(n))]  # j lambda_j
    weighted = []  # (j, M_j, M_j * j * lambda_j * P_j), skipping lambda_j = 0 (odd j >= 3)
    t = [q[0]]
    for k in range(1, n + 1):
        wk = weights[k]
        if wk:
            weight, rest = divmod(wk.numerator * m[k], wk.denominator)
            if rest:
                raise InternalMismatch(f"Todd pass: M_{k} {k} lambda_{k} is not an integer")
            weighted.append((k, m[k], weight * q[k]))
        mk, acc = m[k], 0
        for j, mj, w in weighted:
            carry, rest = divmod(mk, mj * m[k - j])
            if rest:
                raise InternalMismatch(f"Todd pass: M_{k} / (M_{j} M_{k - j}) is not an integer")
            acc += carry * t[k - j] * w
        tk, rest = divmod(acc, k)
        if rest:
            raise InternalMismatch(f"Todd pass: M_{k} Td_{k} is not an integer")
        t.append(tk)
    return t


def hirzebruch_denominator(k):
    """M_k = prod over primes p of p**(k // (p-1))."""
    primes = [p for p in range(2, k + 2) if all(p % d for d in range(2, p))]
    return prod(p ** (k // (p - 1)) for p in primes)


def quotient_cases():
    """Every type and profile of catalog(12, 30), then one beta override.

    Each case is named by its type label, plus the profile where the type has two.
    """
    for t in catalog(12, 30):
        profiles = applicable_profiles(t)
        for prof in profiles:
            name = f"{t.name}-{prof}" if len(profiles) > 1 else t.name
            yield pytest.param(t.name, prof, None, id=name)
    yield pytest.param("I2(7)", "redefined", F(7, 3), id="I2(7)-beta=7/3")


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# Zero, negative, and prime-power denominators up to 3**9, so the Todd pass
# has to scale by u > 1.
scaled_rationals = st.builds(
    F,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 49, 2**10, 3**9]),
)


class TestPFactor:
    def test_p1_is_geometric_doubling(self):
        assert p_factor(1, 5).coefficients == tuple(
            F(c) for c in (1, 2, 2, 2, 2, 2)
        )

    def test_p2_frozen(self):
        assert p_factor(2, 5).coefficients == tuple(
            F(c) for c in (1, 2, 2, 4, 6, 12)
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_low_coefficients_in_p(self, p):
        series = p_factor(p, 5)
        assert series[0] == 1
        assert series[1] == 2
        assert series[2] == 2
        assert series[3] == F(2 * p * p + 4, 3)
        assert series[4] == F(4 * p * p + 2, 3)
        assert series[5] == F(6 * p**4 + 20 * p * p + 4, 15)

    def test_powers_of_two_give_even_integers(self):
        for k in range(6):
            series = p_factor(2**k, 30)
            for n, c in enumerate(series.coefficients):
                if n == 0:
                    assert c == 1
                else:
                    assert c.denominator == 1 and c % 2 == 0, (k, n, c)

    def test_requires_positive_p(self):
        with pytest.raises(ValueError):
            p_factor(0, 5)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_matches_log_exp_route(self, p):
        assert p_factor(p, 40) == quotient_power_by_log_exp(p, F(1, p), 40)


class TestPFactorGeneral:
    def test_single_factor_reductions(self):
        assert p_factor_general([(1, 1)], 1, 8) == p_factor(1, 8)
        assert p_factor_general([(2, F(1, 2))], 1, 8) == p_factor(2, 8)

    def test_exponent_additivity(self):
        split = p_factor_general([(1, F(1, 2)), (1, F(1, 2))], 1, 8)
        assert split == p_factor(1, 8)

    def test_linear_coefficient_is_twice_m1(self):
        series = p_factor_general([(2, F(1, 2)), (3, F(1, 3))], 2, 6)
        assert series[1] == 4

    def test_constraint_violated(self):
        with pytest.raises(ConstraintViolated):
            p_factor_general([(1, 1), (2, 1)], 1, 6)
        with pytest.raises(ConstraintViolated):
            p_factor_general([], 1, 6)


@settings(max_examples=40, deadline=None)
@given(small_rationals, small_rationals, st.integers(min_value=0, max_value=12))
def test_property_p_factor_general_matches_log_exp_route(pi, mu, order):
    rest = 1 - pi * mu
    got = p_factor_general([(pi, mu), (1, rest)], 1, order)
    want = quotient_power_by_log_exp(pi, mu, order)
    assert got == want * quotient_power_by_log_exp(1, rest, order)


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals, st.integers(min_value=0, max_value=20))
def test_property_quotient_power_matches_fraction_recurrence(pi, mu, order):
    assert _quotient_power(pi, mu, order) == quotient_power_by_recurrence(pi, mu, order)


class TestGammaSeries:
    def test_a2_frozen(self):
        g = gamma_series(parameters(parse_type("A2")), 1, 4)
        assert g.coefficients == tuple(F(c) for c in (1, 3, 6, 12, 24))

    def test_e8_low_coefficients(self):
        g = gamma_series(parameters(parse_type("E8")), 1, 2)
        assert g[1] == 30
        assert g[2] == 870

    def test_a1_reduces_to_p_factor(self):
        ps = parameters(parse_type("A1"))
        for p in (1, 2, 3):
            assert gamma_series(ps, p, 8) == p_factor(p, 8)

    def test_first_two_coefficients_across_catalog(self):
        for t in catalog(12, 30):
            ps = parameters(t)
            for p in (1, 2, 3):
                g = gamma_series(ps, p, 2)
                assert g[1] == ps.h, t.name
                assert g[2] == ps.gamma - ps.h, t.name

    def test_routes_agree_to_order_12(self):
        for t in catalog(12, 30):
            ps = parameters(t)
            for p in (1, 2, 3):
                assert gamma_series(ps, p, 12) == gamma_series_xn(ps, p, 12), (t.name, p)

    @pytest.mark.parametrize("label, profile, beta", list(quotient_cases()))
    def test_matches_quotient_of_products(self, label, profile, beta):
        ps = parameters(parse_type(label), profile, beta)
        num = TruncatedSeries([1], order=30)
        for v in ps.V_minus:
            num = num * TruncatedSeries([1, -v], order=30)
        den = TruncatedSeries([1], order=30)
        for v in ps.V_plus:
            den = den * TruncatedSeries([1, -v], order=30)
        quotient = num * den.inverse()
        for p in (1, 2, 3):
            assert gamma_series(ps, p, 30) == quotient * p_factor(p, 30), p

    def test_orders_zero_and_one_truncate_order_two(self):
        sets = [parameters(t, prof) for t in catalog(6, 10) for prof in applicable_profiles(t)]
        sets.append(parameters(parse_type("I2(7)"), "redefined", F(7, 3)))
        for ps in sets:
            for p in (1, 2, 3):
                two = gamma_series(ps, p, 2)
                for k in (0, 1):
                    assert gamma_series(ps, p, k) == TruncatedSeries(two.coefficients[: k + 1]), (ps, p, k)
                    assert gamma_series_xn(ps, p, k) == TruncatedSeries(two.coefficients[: k + 1]), (ps, p, k)
        for p in (1, 2, 3):
            for k in (0, 1):
                assert p_factor(p, k) == TruncatedSeries(p_factor(p, 2).coefficients[: k + 1])

    @pytest.mark.parametrize("label", ["A2", "E8", "H4"])
    def test_rejects_negative_order(self, label):
        ps = parameters(parse_type(label))
        for build in (gamma_series, gamma_series_xn):
            for order in (-1, -3):
                with pytest.raises(ValueError, match="order must be >= 0"):
                    build(ps, 1, order)
        with pytest.raises(ValueError, match="order must be >= 0"):
            p_factor(1, -1)

    @pytest.mark.parametrize("p", [0, -1])
    def test_requires_positive_p(self, p):
        with pytest.raises(ValueError):
            gamma_series(parameters(parse_type("A2")), p, 4)


# V+ and V- entries for the gamma integers: integers, half-integers and
# --beta-style rationals, drawn from one small pool so that the two sides
# share entries and repeat them.
v_entries = st.sampled_from(
    [F(1), F(2), F(3), F(5), F(12), F(-4), F(1, 2), F(3, 2), F(7, 2), F(-5, 2),
     F(7, 3), F(1, 6), F(-9, 4), F(22, 7), F(10**6 + 1, 10**4)]
)
p_values = st.one_of(
    st.sampled_from([1, 2, 3, 4, 8, 9, 45, 3**7, 2**10 * 45, 10**6, 999_999]),
    st.integers(min_value=1, max_value=10**6),
)


def odd_part(p):
    while p % 2 == 0:
        p //= 2
    return p


class TestGammaIntegers:
    """gamma_k = F_k / s**k at s = w odd(p), against the k! route of tests/oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(v_entries, max_size=5),
        st.lists(v_entries, max_size=5),
        st.lists(v_entries, max_size=3),
        p_values,
        st.integers(min_value=0, max_value=14),
    )
    def test_property_match_the_factorial_route(self, plus, minus, common, p, order):
        base = parameters(parse_type("E8"))
        ps = dataclasses.replace(
            base, V_plus=tuple(plus + common), V_minus=tuple(common + minus)
        )
        f, s = todd_module._gamma_integers(ps, p, order)
        left, right = cancelled(ps)
        assert s == lcm(*(v.denominator for v in left + right)) * odd_part(p)
        want = gamma_by_factorials(ps, p, order)
        assert [F(x, s**k) for k, x in enumerate(f)] == want
        assert gamma_series(ps, p, order).coefficients == tuple(want)

    @pytest.mark.parametrize("p", [1, 2, 9, 45, 3**7, 10**6])
    def test_p_factor_matches_the_factorial_route(self, p):
        a1 = parameters(parse_type("A1"))  # V+ = V- = {2}: only the p-factor is left
        assert cancelled(a1) == ([], [])
        assert p_factor(p, 30).coefficients == tuple(gamma_by_factorials(a1, p, 30))

    def test_p_factor_division_is_exact_for_small_p(self):
        """Every (k+1) F_{k+1} of the p-factor at s = odd(p) is a multiple of k+1
        (a remainder raises InternalMismatch), for p <= 200 and k <= 300."""
        for p in range(1, 201):
            s = odd_part(p)
            f = todd_module._quotient_integers(2 * s, (p * s) ** 2, 300)
            assert len(f) == 301 and f[:2] == [1, 2 * s], p

    def test_a_remainder_raises(self):
        # s = 1 is not a multiple of odd(3): F_3 = (2 F_2 + 3**2 F_1) / 3 = 22/3.
        with pytest.raises(InternalMismatch, match="^p-factor: F_3 is not an integer$"):
            todd_module._quotient_integers(2, 3**2, 6)

    def test_scale_is_the_greedy_scale_over_the_catalog(self):
        """s equals the greedy weighted scale u of the same gamma_1 .. gamma_12, so
        the Todd route runs its pass on the same integers as todd_values."""
        for t in catalog(12, 30):
            for prof in applicable_profiles(t):
                ps = parameters(t, prof)
                for p in (1, 2, 3):
                    f, s = todd_module._gamma_integers(ps, p, 12)
                    gammas = [(x, s**k) for k, x in enumerate(f[1:], 1)]
                    assert weighted_scale(gammas)[1] == s, (t.name, prof, p)

    def test_common_entries_cancel_before_the_scale(self):
        ps = parameters(parse_type("I2(7)"), "redefined")  # 7/2 in both V+ and V-
        assert F(7, 2) in ps.V_plus and F(7, 2) in ps.V_minus
        assert todd_module._gamma_integers(ps, 1, 4)[1] == 1
        assert todd_module._gamma_integers(ps, 45, 4)[1] == 45


class TestXSequence:
    def test_e8_frozen(self):
        xs = x_sequence(parameters(parse_type("E8")), 2)
        assert xs == [F(1), F(44), F(1456)]

    def test_against_direct_powers(self):
        for label in ("E8", "F4", "D5", "I2(9)", "C4"):
            ps = parameters(parse_type(label))
            a, b = ps.A, ps.B
            xs = x_sequence(ps, 8)
            for n in range(9):
                direct = sum(a**j * b ** (n - j) for j in range(n + 1))
                assert xs[n] == direct, (label, n)

    def test_against_binomial_closed_form(self):
        from math import comb

        for label in ("E7", "H4", "A3"):
            ps = parameters(parse_type(label))
            s = ps.h - 2 + ps.alpha + ps.beta
            q = (
                ps.h * ps.h
                - ps.gamma
                + (ps.h - 2) * (ps.alpha + ps.beta - 1)
                + ps.alpha * ps.beta
            )
            xs = x_sequence(ps, 7)
            for n in range(8):
                closed = sum(
                    (-1) ** j * comb(n - j, j) * s ** (n - 2 * j) * q**j
                    for j in range(n // 2 + 1)
                )
                assert xs[n] == closed, (label, n)


class TestToddValues:
    def test_a2_frozen(self):
        g = gamma_series(parameters(parse_type("A2")), 1, 3)
        td = todd_values(g, 3)
        assert td == (F(1), F(3, 2), F(5, 4), F(3, 4))

    def test_leading_value_is_one(self):
        g = gamma_series(parameters(parse_type("H4")), 2, 6)
        assert todd_values(g, 6)[0] == 1

    def test_matches_closed_forms_across_catalog(self):
        m = _todd_tables(5)
        for t in catalog(12, 30):
            ps = parameters(t)
            for p in (1, 2):
                g = gamma_series(ps, p, 5)
                td = todd_values(g, 5)
                printed = printed_todd_numerators(g.coefficients[1:])
                for n in range(6):
                    assert td[n] == F(printed[n]) / m[n], (t.name, p, n)

    def test_odd_degree_values_ignore_their_top_coefficient(self):
        base = TruncatedSeries([1, 3, -2, F(5, 7), 4, -1, F(2, 3), 9])
        for n in (3, 5, 7):
            coeffs = list(base.coefficients)
            coeffs[n] += 17
            perturbed = TruncatedSeries(coeffs)
            assert todd_values(base, n)[n] == todd_values(perturbed, n)[n]
            if n < base.order:
                assert todd_values(base, n + 1)[n + 1] != todd_values(perturbed, n + 1)[n + 1]

    def test_order_bound(self):
        g = gamma_series(parameters(parse_type("A2")), 1, 3)
        with pytest.raises(ValueError):
            todd_values(g, 4)

    def test_rejects_constant_term_not_one(self):
        for head in (2, 0, F(1, 2), -1):
            with pytest.raises(ConstantTermNotOne):
                todd_values(TruncatedSeries([head, 1, 1]), 2)

    def test_matches_exp_of_closed_form_power_sums(self):
        # log gamma = (1/p) log((1+pt)/(1-pt)) - sum_{V+} log(1-vt) + sum_{V-} log(1-vt)
        # gives the virtual roots' power sums without Newton's identities.
        order = 30
        lam = _todd_factor_log(order)
        for t in catalog(12, 30):
            for prof in applicable_profiles(t):
                ps = parameters(t, prof)
                for p in (1, 2, 3):
                    power = [
                        (-1) ** (k - 1)
                        * (
                            (2 * p ** (k - 1) if k % 2 else 0)
                            + sum(v**k for v in ps.V_plus)
                            - sum(v**k for v in ps.V_minus)
                        )
                        for k in range(1, order + 1)
                    ]
                    arg = TruncatedSeries([0] + [lam[k] * pk for k, pk in enumerate(power, 1)])
                    got = todd_values(gamma_series(ps, p, order), order)
                    assert got == arg.exp().coefficients, (t.name, prof, p)

    def test_log_coefficients_match_log_of_inverse(self):
        denom = TruncatedSeries([F((-1) ** k, factorial(k + 1)) for k in range(41)])
        assert _todd_factor_log(40) == denom.inverse().log()


class TestToddIntegerPass:
    def test_denominators_are_hirzebruchs(self):
        denominators = _todd_tables(60)
        assert denominators[:61] == [hirzebruch_denominator(k) for k in range(61)]

    def test_scaled_series_matches_fraction_route(self):
        # gamma_i * u**i is an integer only for u divisible by 3 * 5 * 7.
        series = TruncatedSeries(
            [1, F(1, 3**9), F(-2, 25), 0, F(5, 7**4), F(1, 3), -4, F(7, 2**10)]
        )
        assert todd_values(series, 7) == todd_values_by_newton_exp(series, 7)

    @pytest.mark.parametrize(
        "dropped, message",
        [
            (2, "Todd pass: M_1 1 lambda_1 is not an integer"),
            (3, "Todd pass: M_2 2 lambda_2 is not an integer"),
            (5, "Todd pass: M_4 4 lambda_4 is not an integer"),
            (7, "Todd pass: M_6 6 lambda_6 is not an integer"),
        ],
        ids=["2", "3", "5", "7"],
    )
    def test_denominator_table_missing_a_prime_raises(self, monkeypatch, dropped, message):
        n = 12
        table = [
            hirzebruch_denominator(k) // dropped ** (k // (dropped - 1)) for k in range(n + 1)
        ]
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        g = gamma_series(parameters(parse_type("E8")), 1, n)
        with pytest.raises(InternalMismatch) as caught:
            todd_values(g, n)
        assert str(caught.value) == message

    def test_recurrence_takes_power_sums_directly(self):
        # g_i = e_i of the roots 1, 2, 3, so P_k = 1 + 2**k + 3**k.
        g = [1, 6, 11, 6] + [0] * 9
        assert _todd_recurrence([1] + [1 + 2**k + 3**k for k in range(1, 13)]) == _todd_pass(g)

    def test_denominator_table_breaking_divisibility_raises(self, monkeypatch):
        # M_1 M_3 no longer divides M_4; lambda_3 = 0, so no weight notices.
        table = [hirzebruch_denominator(k) for k in range(13)]
        table[3] *= 11
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        g = gamma_series(parameters(parse_type("E8")), 1, 12)
        message = r"^Todd pass: M_4 / \(M_1 M_3\) is not an integer$"
        with pytest.raises(InternalMismatch, match=message):
            todd_values(g, 12)


class TestPointVector:
    """The ring of point vectors that the batched Todd pass runs over."""

    def test_int_times_vector_is_componentwise(self):
        v = _PointVector((1, -2, 3))
        for product in (3 * v, v * 3):
            assert product == (3, -6, 9) and type(product) is _PointVector
        assert 0 * v == (0, 0, 0)

    def test_vector_operations_are_componentwise(self):
        v, w = _PointVector((1, -2, 3)), _PointVector((4, 5, -6))
        assert v + w == (5, 3, -3) and v * w == (4, -10, -18)
        assert v + 1 == 1 + v == (2, -1, 4)
        assert -v == (-1, 2, -3)
        assert all(type(x) is _PointVector for x in (v + w, v * w, v + 1, 1 + v, -v))

    def test_sum_from_int_zero(self):
        vs = [_PointVector((k, -k, 2 * k)) for k in range(1, 5)]
        total = sum(vs)
        assert total == (10, -10, 20) and type(total) is _PointVector
        assert sum(map(mul, [2, 3], vs[:2])) == (8, -8, 16)

    def test_divmod_is_componentwise_floor_division(self):
        v = _PointVector((7, -7, 6, 0))
        q, r = divmod(v, 3)
        assert (q, r) == ((2, -3, 2, 0), (1, 2, 0, 0))
        assert type(q) is _PointVector and type(r) is _PointVector

    def test_truth_is_any_component_nonzero(self):
        assert not _PointVector((0, 0, 0))
        assert _PointVector((0, 0, 5)) and _PointVector((-1, 0))
        assert not _PointVector(())
        assert not divmod(_PointVector((6, -9)), 3)[1]
        assert divmod(_PointVector((6, -8)), 3)[1]


class TestScaledToddPasses:
    def test_each_result_is_the_single_pass(self):
        points = [[(1, 3), (-2, 25), (0, 1), (5, 2401)], [(0, 1)] * 4, [(-9, 8)] * 4]
        assert _scaled_todd_passes(points) == [scaled_todd_pass(p) for p in points]

    def test_degree_zero_and_no_points(self):
        assert _scaled_todd_passes([[], []]) == [([1], 1), ([1], 1)]
        assert _scaled_todd_passes([]) == []

    def test_points_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError):
            _scaled_todd_passes([[(1, 2)], [(1, 2), (3, 4)]])

    @pytest.mark.parametrize(
        "dropped, message",
        [
            (2, "Todd pass: M_1 1 lambda_1 is not an integer"),
            (3, "Todd pass: M_2 2 lambda_2 is not an integer"),
            (5, "Todd pass: M_4 4 lambda_4 is not an integer"),
            (7, "Todd pass: M_6 6 lambda_6 is not an integer"),
            (None, "Todd pass: M_4 / (M_1 M_3) is not an integer"),
        ],
        ids=["2", "3", "5", "7", "divisibility"],
    )
    def test_tampered_denominators_raise_the_single_pass_text(
        self, monkeypatch, dropped, message
    ):
        n = 8
        table = [hirzebruch_denominator(k) for k in range(n + 1)]
        if dropped is None:
            table[3] *= 11  # M_1 M_3 no longer divides M_4
        else:
            table = [m // dropped ** (k // (dropped - 1)) for k, m in enumerate(table)]
        rng = Random(28)
        points = [
            [(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(n)] for _ in range(5)
        ]
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        with pytest.raises(InternalMismatch) as single:
            scaled_todd_pass(points[0])
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        with pytest.raises(InternalMismatch) as batched:
            _scaled_todd_passes(points)
        assert str(batched.value) == str(single.value) == message

    def test_a_remainder_at_one_point_raises_the_single_pass_text(self, monkeypatch):
        # Weights W_j + 1 break the division by k at some points only.
        weights, carries = _todd_steps(6)
        monkeypatch.setattr(
            todd_module, "_todd_steps", lambda n: ([w + 1 for w in weights], carries)
        )
        good, bad = [(2, 1)] * 6, [(1, 1)] * 6
        with pytest.raises(InternalMismatch) as single:
            scaled_todd_pass(bad)
        assert scaled_todd_pass(good)
        with pytest.raises(InternalMismatch) as batched:
            _scaled_todd_passes([good, good, bad, good])
        assert str(batched.value) == str(single.value)


batch_numerators = st.one_of(
    st.just(0), st.integers(min_value=-100, max_value=100), st.integers(-(10**6), 10**6)
)
batch_denominators = st.one_of(
    st.just(1),
    st.sampled_from([2, 3, 2**10, 3**9, 7**4, 10**6]),
    st.integers(min_value=1, max_value=10**6),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.data())
def test_property_batched_todd_passes_match_single_passes(n, data):
    point = st.lists(st.tuples(batch_numerators, batch_denominators), min_size=n, max_size=n)
    points = data.draw(st.lists(point, min_size=1, max_size=60))
    assert _scaled_todd_passes(points) == [scaled_todd_pass(p) for p in points]


mpoly_gammas = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2)), max_size=3
).map(
    lambda terms: sum(
        (k * MPoly.variable(1) ** i * MPoly.variable(2) ** j for k, i, j in terms), MPoly()
    )
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=60))
def test_property_pass_reads_gammas_as_they_are(gammas):
    g = [1] + gammas
    assert _todd_pass(g) == todd_pass_per_call(signed(g))


@settings(max_examples=25, deadline=None)
@given(st.lists(mpoly_gammas, max_size=10))
def test_property_pass_reads_gammas_as_they_are_over_mpoly(gammas):
    g = [MPoly({(): 1})] + gammas
    assert [p.terms for p in _todd_pass(g)] == [p.terms for p in todd_pass_per_call(signed(g))]


def power_sums_read_by_the_pass(monkeypatch, g):
    """The q that _todd_pass hands to _todd_recurrence, caught before the recurrence runs."""
    seen = []
    monkeypatch.setattr(todd_module, "_todd_recurrence", lambda q: seen.append(q) or q)
    _todd_pass(g)
    (q,) = seen
    return q


class TestToddPassPowerSums:
    """The pass forms P_1 and the even P_2m only, from gamma(t) gamma(-t)."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 60, 150])
    def test_read_power_sums_match_newton(self, monkeypatch, n):
        rng = Random(n)
        g = [1] + [rng.randint(-(10**12), 10**12) for _ in range(n)]
        q, full = power_sums_read_by_the_pass(monkeypatch, g), newton_power_sums(signed(g))
        assert len(q) == n + 1
        assert q[:2] == full[:2] and q[2::2] == full[2::2]

    def test_read_power_sums_match_newton_over_mpoly(self, monkeypatch):
        g = [MPoly({(): 1})] + [MPoly.variable(i) for i in range(1, 11)]
        q, full = power_sums_read_by_the_pass(monkeypatch, g), newton_power_sums(signed(g))
        assert [p.terms for p in q[:2] + q[2::2]] == [p.terms for p in full[:2] + full[2::2]]

    def test_recurrence_does_not_read_odd_power_sums(self):
        # The closed route leaves the odd P_k (k >= 3) unformed on this contract.
        rng = Random(18)
        roots = [rng.randint(-50, 50) for _ in range(7)]
        q = [1] + [sum(x**k for x in roots) for k in range(1, 61)]
        changed = list(q)
        changed[3::2] = [rng.randint(-(10**9), 10**9) for _ in changed[3::2]]
        assert changed != q
        assert _todd_recurrence(changed) == _todd_recurrence(q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=40))
def test_property_reflection_product_is_the_even_part_of_g_times_g_reflected(gammas):
    """c_1 .. c_(n//2) are the t**2, t**4, ... coefficients of the plain
    convolution of g(t) and g(-t), whose odd coefficients are 0."""
    g = [1] + gammas
    reflected = [-x if i % 2 else x for i, x in enumerate(g)]
    product = [sum(g[i] * reflected[k - i] for i in range(k + 1)) for k in range(len(g))]
    assert todd_module._reflection_product(g) == product[2::2]
    assert not any(product[1::2])


class TestPFactorIntegers:
    """One builder of the p-factor's integers, read by p_factor, the gamma
    integers and the methods suite's p-freeness."""

    @pytest.mark.parametrize("p, w", [(1, 1), (2, 1), (12, 1), (3, 2), (45, 6)])
    def test_scale_is_w_times_odd_p(self, p, w):
        f, s = todd_module._p_factor_integers(p, 20, w)
        assert s == w * odd_part(p)
        assert f == todd_module._quotient_integers(2 * s, (p * s) ** 2, 20)
        assert [F(x, s**k) for k, x in enumerate(f)] == list(p_factor(p, 20).coefficients)

    def test_every_reader_calls_it(self, monkeypatch):
        real, calls = todd_module._p_factor_integers, []

        def counting(p, order, w=1):
            calls.append((p, order, w))
            return real(p, order, w)

        monkeypatch.setattr(todd_module, "_p_factor_integers", counting)
        ps = parameters(parse_type("H3"))
        plus, minus = cancelled(ps)
        todd_module.p_factor.__wrapped__(3, 8)
        todd_module._gamma_integers(ps, 2, 8)
        verify_module._p_freeness(6, 8)
        assert calls == [(3, 8, 1), (2, 8, lcm(*(v.denominator for v in plus + minus))), (6, 8, 1)]

    @pytest.mark.parametrize("p", [0, -1, -4])
    def test_every_reader_refuses_p_below_one(self, p):
        readers = [
            lambda: p_factor(p, 5),
            lambda: todd_module._gamma_integers(parameters(parse_type("E8")), p, 5),
            lambda: verify_module._p_freeness(p, 5),
        ]
        for reader in readers:
            with pytest.raises(ValueError, match="^p must be >= 1$"):
                reader()


class TestToddStepTable:
    """The weights and carries of the Todd recurrence, built once per denominator table."""

    def test_recurrence_matches_per_call_oracle(self, monkeypatch):
        # A fresh denominator list starts the table empty; n = 5 then reads
        # rows built for n = 60, and n = 150 grows the table past them.
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable([1]))
        rng = Random(14)  # power sums of virtual integer roots, six kept and two removed
        for n in (60, 5, 150, 0, 1, 7):
            roots = [rng.randint(-50, 50) for _ in range(6)]
            dropped = [rng.randint(-50, 50) for _ in range(2)]
            q = [1] + [
                sum(x**k for x in roots) - sum(x**k for x in dropped) for k in range(1, n + 1)
            ]
            assert _todd_recurrence(q) == todd_recurrence_per_call(q), n
        assert len(todd_module._TABLE.carries) == 151

    def test_carry_rows_match_the_per_call_divisions(self, monkeypatch):
        # Rows built from the ratios M_k / M_{k-1}, grown in two steps.
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable([1]))
        _todd_steps(40)
        weights, carries = _todd_steps(200)
        m = todd_module._TABLE.m
        for k in range(1, 201):
            js = (1, *range(2, k + 1, 2))
            assert carries[k] == [m[k] // (m[j] * m[k - j]) for j in js], k
            assert all(m[k] % (m[j] * m[k - j]) == 0 for j in js), k
        assert len(weights) == 101

    def test_polynomials_match_per_call_oracle(self):
        c = [MPoly.variable(i) for i in range(1, 17)]
        oracle = todd_pass_per_call(signed([MPoly({(): 1})] + c))
        assert [p.terms for p in todd_polynomials(16)] == [p.terms for p in oracle]

    def test_warm_table_does_not_hide_a_broken_denominator_table(self, monkeypatch):
        g = gamma_series(parameters(parse_type("E8")), 1, 60)
        todd_values(g, 60)
        table = [hirzebruch_denominator(k) for k in range(13)]
        table[3] *= 11
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        message = r"^Todd pass: M_4 / \(M_1 M_3\) is not an integer$"
        with pytest.raises(InternalMismatch, match=message):
            todd_values(g, 12)

    def test_built_tables_do_not_read_the_bernoulli_table(self, monkeypatch):
        _todd_steps(40)
        reads = []
        real = todd_module._bernoulli_numbers
        monkeypatch.setattr(todd_module, "_bernoulli_numbers", lambda n: reads.append(n) or real(n))
        for n in (0, 1, 12, 40):
            assert len(_todd_tables(n)) > n
            assert len(_todd_steps(n)[1]) > n
        assert reads == []
        _todd_tables(len(todd_module._TABLE.m))  # one past the table
        assert len(reads) == 1

    def test_restored_table_restores_values(self, monkeypatch):
        g = gamma_series(parameters(parse_type("E8")), 1, 60)
        warm = todd_values(g, 60)
        # M_k 2**k passes every check and leaves Td_k unchanged, but its weights
        # differ from the true table's by 2**j.
        scaled = [hirzebruch_denominator(k) * 2**k for k in range(61)]
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(scaled))
        assert todd_values(g, 60) == warm
        monkeypatch.undo()
        assert todd_values(g, 60) == warm
        assert todd_values(g, 60) == todd_values_by_newton_exp(g, 60)


@settings(max_examples=150, deadline=None)
@given(st.lists(scaled_rationals, max_size=12), st.data())
def test_property_todd_values_match_fraction_route(coefficients, data):
    series = TruncatedSeries([1] + coefficients)
    n = data.draw(st.integers(min_value=0, max_value=len(coefficients)))
    assert todd_values(series, n) == todd_values_by_newton_exp(series, n)


def printed_todd_numerators(c):
    """M_k Td_k for k <= 5 as printed (M = 1, 2, 12, 24, 720, 1440), in any ring."""
    c1, c2, c3, c4 = c[:4]
    return [
        1,
        c1,
        c1**2 + c2,
        c1 * c2,
        -(c1**4) + 4 * c1**2 * c2 + c1 * c3 + 3 * c2**2 - c4,
        -(c1**3) * c2 + 3 * c1 * c2**2 + c1**2 * c3 - c1 * c4,
    ]


class TestToddPolynomials:
    def test_match_the_printed_forms(self):
        variables = [MPoly.variable(i) for i in range(1, 5)]
        printed = [MPoly({(): 1})] + printed_todd_numerators(variables)[1:]
        assert [p.terms for p in todd_polynomials(5)] == [p.terms for p in printed]

    def test_rebuilt_table_is_the_same(self, monkeypatch):
        monkeypatch.setattr(todd_module._TABLE, "polynomials", [MPoly({(): 1})])
        short = todd_polynomials(4)
        assert todd_polynomials(9)[:5] == short
        assert todd_polynomials(2) == short[:3]
        assert len(todd_module._TABLE.polynomials) == 10

    def test_weighted_homogeneous(self):
        # Td_k(c_i u**i) = u**k Td_k(c): every monomial of T_k has weight k.
        for k, p in enumerate(todd_polynomials(12)):
            assert p and {sum(i * e for i, e in enumerate(m, 1)) for m in p.terms} == {k}

    def test_denominator_table_missing_a_prime_raises(self, monkeypatch):
        table = [hirzebruch_denominator(k) // 3 ** (k // 2) for k in range(9)]
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        with pytest.raises(InternalMismatch):
            todd_polynomials(8)

    def test_warm_polynomials_do_not_hide_a_broken_denominator_table(self, monkeypatch):
        warm = todd_polynomials(8)
        table = [hirzebruch_denominator(k) for k in range(13)]
        table[3] *= 11  # M_1 M_3 no longer divides M_4
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(table))
        message = r"^Todd pass: M_4 / \(M_1 M_3\) is not an integer$"
        with pytest.raises(InternalMismatch, match=message):
            todd_polynomials(8)
        monkeypatch.undo()
        assert todd_polynomials(8) == warm

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            todd_polynomials(-1)


class TestToddClosed:
    """todd_values at points where the printed closed forms were evaluated by hand."""

    def test_fourth_at_ones(self):
        assert todd_values(TruncatedSeries([1, 1, 1, 1, 1]), 4)[4] == F(1, 120)

    def test_fifth_vanishes_without_higher_coefficients(self):
        assert todd_values(TruncatedSeries([1, 1, 0, 0, 0, 99]), 5)[5] == 0

    def test_second(self):
        assert todd_values(TruncatedSeries([1, 3, 6]), 2)[2] == F(5, 4)


class TestBernoulliFaulhaber:
    def test_polynomials_frozen(self):
        assert bernoulli_polynomial(0) == (F(1),)
        assert bernoulli_polynomial(1) == (F(-1, 2), F(1))
        assert bernoulli_polynomial(2) == (F(1, 6), F(-1), F(1))
        assert bernoulli_polynomial(6) == (
            F(1, 42), F(0), F(-1, 2), F(0), F(5, 2), F(-3), F(1),
        )

    def test_numbers_asked_out_of_order_match_factorial_series(self, monkeypatch):
        monkeypatch.setattr(todd_module, "_BERNOULLI", [F(1)])
        denom = TruncatedSeries([F(1, factorial(k + 1)) for k in range(151)])
        series = denom.inverse()  # t / (exp(t) - 1)
        want = tuple(series[k] * factorial(k) for k in range(151))
        for n in (5, 150, 3):
            assert _bernoulli_numbers(n) == want[: n + 1]

    def test_tangent_table_matches_fraction_recurrence(self, monkeypatch):
        monkeypatch.setattr(todd_module, "_BERNOULLI", [F(1)])
        assert _bernoulli_numbers(300) == bernoulli_by_recurrence(300)

    def test_table_grows_by_doubling(self, monkeypatch):
        monkeypatch.setattr(todd_module, "_BERNOULLI", [F(1)])
        for n in (1, 2, 40, 41, 42, 200):
            before = len(todd_module._BERNOULLI)
            _bernoulli_numbers(n)
            after = len(todd_module._BERNOULLI)
            assert after == before if n < before else after >= max(n + 1, 2 * before)

    def test_faulhaber_examples(self):
        assert faulhaber(1, 4) == 10
        assert faulhaber(2, 3) == 14
        for r in range(0, 8):
            assert faulhaber(0, r) == r

    def test_faulhaber_matches_direct_sums(self):
        for n in range(9):
            for r in range(21):
                direct = sum(i**n for i in range(1, r + 1))
                assert faulhaber(n, r) == direct, (n, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            faulhaber(-1, 3)
        with pytest.raises(ValueError):
            bernoulli_polynomial(-1)

    def test_faulhaber_sum_matches_fraction_formula_on_random_sums(self):
        rng = Random(5)
        for n in range(61):
            sums = [rng.randint(-(10**30), 10**30) for _ in range(n + 2)]
            assert faulhaber_sum(n, sums) == faulhaber_sum_by_fractions(n, sums), n
        sums = [rng.randint(-(10**30), 10**30) for _ in range(3)]
        assert faulhaber_sum(0, sums) == sums[1]  # B_0 S_1
        assert faulhaber_sum(1, sums) == F(sums[2] + sums[1], 2)  # (S_2 + 2 (1/2) S_1) / 2

    def test_faulhaber_sum_reads_no_odd_bernoulli_number_past_one(self, monkeypatch):
        real = todd_module._bernoulli_numbers
        rng = Random(22)
        sums = [rng.randint(-(10**30), 10**30) for _ in range(32)]
        want = [faulhaber_sum(n, sums) for n in range(31)]

        def odd_ones_wrong(n):  # B_k = 99 at odd k >= 3, where the true B_k is 0
            return tuple(F(99) if k % 2 and k > 1 else b for k, b in enumerate(real(n)))

        # A fresh denominator list, long enough not to read the Bernoulli table,
        # so the weight rows are built again from the patched numbers.
        _todd_tables(30)
        fresh = list(todd_module._TABLE.m)
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(fresh))
        monkeypatch.setattr(todd_module, "_bernoulli_numbers", odd_ones_wrong)
        assert [faulhaber_sum(n, sums) for n in range(31)] == want
        assert sorted(todd_module._TABLE.faulhaber) == list(range(31))

    def test_faulhaber_rows_restart_on_a_new_denominator_table(self, monkeypatch):
        rng = Random(27)
        sums = [rng.randint(-(10**30), 10**30) for _ in range(42)]
        want = [faulhaber_sum(n, sums) for n in range(41)]
        assert faulhaber(4, 10) == 25333  # the row of n = 4 is built
        # M_k 2**k passes every check and leaves each sum unchanged, but every
        # weight of row n is 2**n times the true table's.
        scaled = [hirzebruch_denominator(k) * 2**k for k in range(41)]
        monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable(scaled))
        assert [faulhaber_sum(n, sums) for n in range(41)] == want
        assert todd_module._TABLE.faulhaber[4][0] == scaled[4] * 5  # built from scaled
        # A table that breaks divisibility, after rows were built: same message.
        powers = todd_module._ToddTable([2**k for k in range(5)])
        monkeypatch.setattr(todd_module, "_TABLE", powers)
        message = r"^Faulhaber sum n=4: den\(B_2\) does not divide M_4$"
        with pytest.raises(InternalMismatch, match=message):
            faulhaber(4, 10)
        monkeypatch.undo()
        assert [faulhaber_sum(n, sums) for n in range(41)] == want

    def test_faulhaber_denominator_table_breaking_divisibility_raises(self, monkeypatch):
        # M_k = 2**k: den(B_2) = 6 does not divide M_4 = 16, and a floored
        # quotient would give 25250 for faulhaber(4, 10), whose value is 25333.
        assert faulhaber(4, 10) == sum(i**4 for i in range(1, 11)) == 25333
        powers = todd_module._ToddTable([2**k for k in range(5)])
        monkeypatch.setattr(todd_module, "_TABLE", powers)
        message = r"^Faulhaber sum n=4: den\(B_2\) does not divide M_4$"
        with pytest.raises(InternalMismatch, match=message):
            faulhaber(4, 10)
        with pytest.raises(InternalMismatch, match=r"^Todd pass: "):
            todd_values(TruncatedSeries([1, 1, 1, 1, 1]), 4)


def faulhaber_sum_by_fractions(n, sums):
    """Faulhaber's formula in Fractions, B_1 taken as +1/2."""
    b = [-x if k == 1 else x for k, x in enumerate(_bernoulli_numbers(n))]
    return sum(comb(n + 1, k) * b[k] * sums[n + 1 - k] for k in range(n + 1)) / (n + 1)


def test_gamma_invariant_alias_consistency():
    # gamma agrees between a dihedral label and its named alias.
    assert gamma_invariant(parse_type("I2(4)")) == gamma_invariant(parse_type("C2"))
    assert gamma_invariant(parse_type("I2(6)")) == gamma_invariant(parse_type("G2"))
    assert gamma_invariant(parse_type("I2(5)")) == 31
    assert gamma_invariant(parse_type("I2(3)")) == 9
