"""Truncated series algebra: frozen examples plus round-trip properties."""

from fractions import Fraction as F
from math import factorial, gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxsums import TruncatedSeries
from coxsums.errors import ConstantTermNotOne, NonzeroConstantTerm, ZeroConstantTerm
from coxsums.series import weighted_scale
from oracles import weighted_scale_by_reduced_pairs


def naive_product(a, b, order):
    """Schoolbook convolution, the oracle for the Cauchy product."""
    return tuple(
        sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(order + 1)
    )


def coeffs(*values):
    return tuple(F(v) for v in values)


def miller_pow_by_fractions(series, exponent):
    """Miller's recurrence term by term over Fractions, the oracle for pow."""
    a = series.coefficients
    if a[0] != 1:
        raise ConstantTermNotOne(f"pow needs constant term 1, got {a[0]}")
    e1 = F(exponent) + 1
    b = [F(1)]
    for k in range(1, len(a)):
        b.append(sum((e1 * j - k) * a[j] * b[k - j] for j in range(1, k + 1)) / k)
    return TruncatedSeries(b)


class TestMul:
    def test_binomial_square(self):
        s = TruncatedSeries([1, 1, 0])
        assert (s * s).coefficients == coeffs(1, 2, 1)

    def test_identity_element(self):
        f = TruncatedSeries([3, F(1, 2), -7, 5])
        one = TruncatedSeries([1], order=3)
        assert one * f == f

    def test_hand_multiplication(self):
        a = TruncatedSeries([1, 2, 2, 2])  # (1+t)/(1-t) to order 3
        b = TruncatedSeries([1, -1, 0, 0])
        expected = naive_product(a.coefficients, b.coefficients, 3)
        assert expected == coeffs(1, 1, 0, 0)
        assert (a * b).coefficients == expected

    def test_truncates_to_min_order(self):
        a = TruncatedSeries([1, 1, 1, 1, 1])
        b = TruncatedSeries([1, 1])
        assert (a * b).order == 1

    def test_scalar_mul(self):
        a = TruncatedSeries([1, 2, 3])
        assert (a * 2).coefficients == coeffs(2, 4, 6)
        assert (a * F(1, 2)).coefficients == coeffs(F(1, 2), 1, F(3, 2))


class TestInverse:
    def test_geometric(self):
        assert TruncatedSeries([1, -1], order=3).inverse().coefficients == coeffs(
            1, 1, 1, 1
        )

    def test_geometric_ratio_two(self):
        inv = TruncatedSeries([1, -2], order=5).inverse()
        assert inv.coefficients == tuple(F(2) ** n for n in range(6))

    def test_constant(self):
        assert TruncatedSeries([2], order=2).inverse().coefficients == coeffs(
            F(1, 2), 0, 0
        )

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            TruncatedSeries([0, 1, 2]).inverse()

    def test_seeded_roundtrip_100(self):
        rng = Random(20240707)
        one = TruncatedSeries([1], order=6)
        for _ in range(100):
            head = F(0)
            while head == 0:
                head = F(rng.randint(-9, 9), rng.randint(1, 9))
            tail = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
            a = TruncatedSeries([head] + tail)
            assert a * a.inverse() == one


class TestLogExp:
    def test_log_of_one(self):
        one = TruncatedSeries([1], order=4)
        assert one.log() == TruncatedSeries([0], order=4)

    def test_mercator(self):
        got = TruncatedSeries([1, 1], order=3).log()
        assert got.coefficients == coeffs(0, 1, F(-1, 2), F(1, 3))

    def test_exp_of_zero(self):
        zero = TruncatedSeries([0], order=4)
        assert zero.exp() == TruncatedSeries([1], order=4)

    def test_exponential_series(self):
        got = TruncatedSeries([0, 1], order=6).exp()
        assert got.coefficients == tuple(F(1, factorial(n)) for n in range(7))

    def test_exp_two_t(self):
        got = TruncatedSeries([0, 2], order=6).exp()
        assert got.coefficients == tuple(F(2**n, factorial(n)) for n in range(7))

    def test_exp_then_log_roundtrip(self):
        a = TruncatedSeries([1, 3, 6, 12])
        assert a.log().exp() == a

    def test_log_requires_one(self):
        with pytest.raises(ConstantTermNotOne):
            TruncatedSeries([2, 1]).log()

    def test_exp_requires_zero(self):
        with pytest.raises(NonzeroConstantTerm):
            TruncatedSeries([1, 1]).exp()


class TestPow:
    def test_perfect_square_root(self):
        square = TruncatedSeries([1, 2, 1])
        assert square.pow(F(1, 2)).coefficients == coeffs(1, 1, 0)

    def test_square_root_of_rational_function(self):
        num = TruncatedSeries([1, 2], order=5)
        den = TruncatedSeries([1, -2], order=5)
        got = (num * den.inverse()).pow(F(1, 2))
        assert got.coefficients == coeffs(1, 2, 2, 4, 6, 12)

    def test_zeroth_power(self):
        f = TruncatedSeries([1, 5, -3, 2])
        assert f.pow(0) == TruncatedSeries([1], order=3)

    def test_requires_one(self):
        with pytest.raises(ConstantTermNotOne):
            TruncatedSeries([2, 1]).pow(F(1, 2))


# Coefficients with denominators 1..50, and zeros.
wide_rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-60, 60), st.integers(1, 50)),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(wide_rationals, min_size=0, max_size=12),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)
@example([F(1, 2), F(0), F(-3, 4)], F(0))
@example([F(2, 3), F(0), F(5, 7), F(1, 50)], F(-1))
@example([F(1, 6), F(-2, 9), F(0), F(7, 10), F(3, 49)], F(-5, 2))
@example([F(0), F(0), F(11, 25), F(-1, 48), F(0), F(2)], F(7, 3))
def test_property_pow_matches_fraction_miller(tail, e):
    a = TruncatedSeries([F(1)] + tail)
    assert a.pow(e) == miller_pow_by_fractions(a, e)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=6, max_size=6))
def test_property_exp_log_inverse_pair(tail):
    a = TruncatedSeries([F(1)] + tail)
    assert a.log().exp() == a
    b = TruncatedSeries([F(0)] + tail)
    assert b.exp().log() == b


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=5, max_size=5), rationals, rationals)
def test_property_pow_additivity(tail, u, v):
    a = TruncatedSeries([F(1)] + tail)
    assert a.pow(u + v) == a.pow(u) * a.pow(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=8), rationals)
@example([F(3), F(-1, 2), F(0), F(5)], F(0))
@example([F(2), F(1, 3), F(-4)], F(-5, 2))
def test_property_pow_matches_log_exp_route(tail, e):
    a = TruncatedSeries([F(1)] + tail)
    assert a.pow(e) == (a.log() * e).exp()


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=6, max_size=6))
def test_property_inverse_roundtrip(tail):
    a = TruncatedSeries([F(1)] + tail)
    assert a * a.inverse() == TruncatedSeries([1], order=6)


@settings(max_examples=40, deadline=None)
@given(rationals.filter(bool), st.lists(rationals, min_size=8, max_size=8))
def test_property_inverse_matches_log_exp_route(head, tail):
    a = TruncatedSeries([head] + tail)
    unit = a * (1 / head)
    assert a.inverse() == (unit.log() * -1).exp() * (1 / head)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals, min_size=5, max_size=5),
    st.lists(rationals, min_size=5, max_size=5),
)
def test_property_results_are_canonical(left, right):
    a = TruncatedSeries([F(1)] + left)
    b = TruncatedSeries([F(1)] + right)
    for series in (a * b, a.inverse(), a.log(), (a * b).pow(F(1, 3))):
        for c in series.coefficients:
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1


def test_constructor_pads_and_truncates():
    assert TruncatedSeries([1, 2], order=4).coefficients == coeffs(1, 2, 0, 0, 0)
    assert TruncatedSeries([1, 2, 3, 4], order=1).coefficients == coeffs(1, 2)
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=-1)


class FractionSubclass(F):
    """A Fraction subclass, which the constructor must not store as is."""


def test_constructor_stores_exact_fractions():
    given_values = [True, 2, F(1, 2), FractionSubclass(3, 4)]
    stored = TruncatedSeries(given_values).coefficients
    assert stored[2] is given_values[2]
    assert [type(c) for c in stored] == [F] * 4
    assert list(stored) == given_values
    assert [hash(c) for c in stored] == [hash(v) for v in given_values]


# Denominators up to 10**6, prime powers among them; numerators of either sign and
# 0; pairs not in lowest terms, some sharing a factor on purpose.
_PRIME_POWERS = [q**k for q in (2, 3, 5, 7, 97, 997) for k in range(1, 20) if q**k <= 10**6]
_numerators = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
_denominators = st.one_of(
    st.integers(1, 10**6), st.sampled_from(_PRIME_POWERS), st.integers(1, 12)
)
_pairs = st.one_of(
    st.tuples(_numerators, _denominators),
    st.builds(
        lambda g, y, d: (g * y, g * d), st.integers(2, 100), _numerators, st.integers(1, 10**4)
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_pairs, max_size=12), st.booleans())
@example([], False)
@example([(0, 7), (0, 1)], False)
@example([(-3, 6), (4, 8), (5, 8), (1, 2**19)], True)
@example([(9, 27), (1, 3), (2, 81), (-1, 3**12)], True)
def test_property_weighted_scale_matches_greedy_oracle(pairs, one_shot):
    """The same A and the same greedy u as the oracle, from a list or a
    generator; and A_i = (y_i / d_i) u**i exactly."""
    want = weighted_scale_by_reduced_pairs(pairs)
    got = weighted_scale((pair for pair in pairs) if one_shot else pairs)
    assert got == want
    scaled, u = got
    assert scaled == [F(y, d) * u**i for i, (y, d) in enumerate(pairs, 1)]
