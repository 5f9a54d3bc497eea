"""Integer polynomial arithmetic and the exponent-sum factorization."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsums import IntPolynomial, poly_from_factors
from coxsums.errors import NotAPolynomial
from coxsums.intpoly import one_minus_power_product
from oracles import one_minus_power_product_by_mul


def naive_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_canonical_form():
    assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert IntPolynomial([0, 0]).coefficients == ()
    assert not IntPolynomial()
    assert IntPolynomial().degree == -1
    assert IntPolynomial([0, 1]).degree == 1
    p = IntPolynomial([0, -2, 0, 0, 3, 0])
    assert p.coefficients == (0, -2, 0, 0, 3)
    assert repr(p) == "IntPolynomial([0, -2, 0, 0, 3])"
    assert str(p) == "-2q + 3q^4"
    assert p == IntPolynomial._from_terms({1: -2, 4: 3})
    assert hash(p) == hash(IntPolynomial(p.coefficients))


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        IntPolynomial([1.5])
    with pytest.raises(TypeError):
        IntPolynomial([True])


def test_from_exponents_multiset():
    p = IntPolynomial.from_exponents([1, 3, 3, 5])
    assert p.coefficients == (0, 1, 0, 2, 0, 1)
    assert str(p) == "q + 2q^3 + q^5"


def test_arithmetic_against_naive_oracle():
    rng = Random(13)
    for _ in range(50):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        pa, pb = IntPolynomial(a), IntPolynomial(b)
        assert (pa * pb).coefficients == IntPolynomial(naive_mul(a, b)).coefficients


def test_exact_div_roundtrip():
    rng = Random(99)
    for _ in range(50):
        a = IntPolynomial([rng.randint(-4, 4) for _ in range(5)] + [1])
        b = IntPolynomial([rng.randint(-4, 4) for _ in range(3)] + [1])
        assert (a * b).exact_div(b) == a
        assert (a * b).exact_div(a) == b


def test_exact_div_failure():
    with pytest.raises(NotAPolynomial):
        IntPolynomial([1, 1]).exact_div(IntPolynomial([1, 0, 1]))
    with pytest.raises(NotAPolynomial):
        IntPolynomial([1, 1, 1]).exact_div(IntPolynomial([2, 2]))
    with pytest.raises(ZeroDivisionError):
        IntPolynomial([1]).exact_div(IntPolynomial())


def test_factorization_e8_row():
    # q(1-q^20)(1-q^24) / ((1-q^6)(1-q^10)) lists the E8 exponents.
    got = poly_from_factors(1, [20, 24], [6, 10])
    assert got == IntPolynomial.from_exponents([1, 7, 11, 13, 17, 19, 23, 29])


def test_factorization_d4_multiset():
    # Repeated factors on both sides; the quotient is q + 2q^3 + q^5.
    got = poly_from_factors(1, [4, 4], [2, 2])
    assert got == IntPolynomial.from_exponents([1, 3, 3, 5])


def test_factorization_not_a_polynomial():
    with pytest.raises(NotAPolynomial):
        poly_from_factors(1, [3], [2])


def test_factorization_shift_validation():
    with pytest.raises(ValueError):
        poly_from_factors(0, [2], [1])


def test_sparse_terms_cost_no_degree():
    # Two terms of degree 10**12: a dense list could not be built.
    big = 10**12
    p = IntPolynomial.monomial(1) * one_minus_power_product([big])
    assert str(p) == f"q - q^{big + 1}"
    assert p.degree == big + 1 and p._terms[big + 1] == -1
    assert big not in p._terms
    assert (p * p).exact_div(p) == p


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=60),
)
def test_property_geometric_quotient(k, a, v):
    # q(1-q^(ka))/(1-q^k) = q + q^(k+1) + ... + q^(k(a-1)+1).
    got = poly_from_factors(1, [k * a], [k])
    assert got == IntPolynomial.from_exponents(1 + k * i for i in range(a))
    if v % k:
        with pytest.raises(NotAPolynomial) as info:
            poly_from_factors(1, [v], [k])
        assert str(info.value) == f"(q - q^{v + 1}) is not divisible by (1 - q^{k})"


# A factor exponent: small ones overlap and repeat, 10**6 stays sparse.
factor_exponents = st.one_of(st.integers(min_value=1, max_value=12), st.just(10**6))
sparse_polynomials = st.dictionaries(
    st.integers(min_value=0, max_value=40), st.integers(min_value=-9, max_value=9), max_size=8
).map(IntPolynomial._from_terms)


@settings(max_examples=200, deadline=None)
@given(st.lists(factor_exponents, max_size=8), st.one_of(st.none(), sparse_polynomials))
def test_one_minus_power_product_matches_repeated_products(vs, start):
    got = one_minus_power_product(vs, start)
    assert got == one_minus_power_product_by_mul(vs, start)
    assert list(got._terms) == sorted(got._terms) and all(got._terms.values())


@pytest.mark.parametrize(
    "vs, start",
    [
        ([], None),
        ([3, 5], IntPolynomial()),  # the zero start stays zero
        ([2, 2, 2], None),
        ([1, 1], IntPolynomial.from_exponents([1, 2, 3])),
        ([10**6, 10**6], IntPolynomial.monomial(1)),
        ([1, 10**6, 1], IntPolynomial([0, 4, -4])),
    ],
)
def test_one_minus_power_product_cases(vs, start):
    got = one_minus_power_product(vs, start)
    assert got == one_minus_power_product_by_mul(vs, start)
    if start is not None and not start:
        assert not got


def test_one_minus_power_product_repeated_and_large_factors():
    assert str(one_minus_power_product([2, 2])) == "1 - 2q^2 + q^4"
    # (1 + q + q^2)(1 - q) telescopes; the cancelled degrees leave no term.
    assert one_minus_power_product([1], IntPolynomial.from_exponents([0, 1, 2])) == (
        IntPolynomial._from_terms({0: 1, 3: -1})
    )
    big = 10**6
    got = one_minus_power_product([big, big], IntPolynomial.monomial(1))
    assert str(got) == f"q - 2q^{big + 1} + q^{2 * big + 1}"


@pytest.mark.parametrize("vs", [[0], [-3], [2, 0], [1, 10**6, -1]])
@pytest.mark.parametrize("start", [None, IntPolynomial(), IntPolynomial.monomial(1)])
def test_one_minus_power_product_rejects_exponents_below_one(vs, start):
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        one_minus_power_product(vs, start)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        one_minus_power_product_by_mul(vs, start)


def test_poly_from_factors_forms_no_polynomial_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("IntPolynomial.__mul__ called")

    monkeypatch.setattr(IntPolynomial, "__mul__", refuse)
    assert poly_from_factors(1, [10], [5]) == IntPolynomial.from_exponents([1, 6])
