"""Verifier suites: they pass on the real tables and fail under injected faults."""

import dataclasses
import re
import time
from fractions import Fraction as F
from math import comb, factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsums import (
    CoxeterType,
    ExponentList,
    TruncatedSeries,
    catalog,
    dual_partition,
    exponents,
    heightsum_direct,
    parameters,
    parse_type,
    powersum_todd_upto,
    run_all,
)
import coxsums.verify as verify_module
from coxsums.catalog import cancelled
from coxsums.errors import ConstantTermNotOne, InternalMismatch, WrongFamily
from coxsums.powersums import exponent_power_sums
from coxsums.verify import (
    catalan,
    check_beta_formula,
    check_de_kostant,
    check_expsum,
    check_gamma34,
    check_gamma_formula,
    check_gamma_specializations,
    check_h_relation,
    check_methods,
    check_multiset_laws,
    check_s4_nonuniversality,
    check_symmetry_identities,
    check_t_integrality,
    check_todd_symmetry,
    t_transform,
    _gamma_specializations,
)
from coxsums.mpoly import MPoly
from coxsums.series import weighted_scale
from coxsums.todd import (
    _todd_pass,
    _todd_tables,
    gamma_series,
    p_factor,
    todd_polynomials,
    todd_values,
)
from oracles import (
    alternating_sum,
    cancelled_by_counter,
    check_t_examples,
    evaluated,
)


def corrupt(ps, **changes):
    return dataclasses.replace(ps, **changes)


def specializations_by_sums(family, r, n_max):
    """(p, n, gamma_n) by the closed forms, each sum written out for every n."""
    out = []
    for n in range(1, n_max + 1):
        if family == "A":
            out.append((1, n, F(r) ** n + F(r) ** (n - 1)))
            continue
        x = F(2 * r)
        out.append((1, n, x**n - 2 * sum((x**j for j in range(n - 1)), F(0))))
        terms = (catalan(j - 1) * x ** (n - 2 * j) for j in range(n // 2 + 1))
        out.append((2, n, -2 * sum(terms, F(0))))
    return out


def specialization_witness_by_sums(t, n_max, ps):
    """The first failure of check_gamma_specializations, from the explicit sums."""
    for p, n, want in specializations_by_sums(t.family, ps.r, n_max):
        got = gamma_series(ps, p, n_max)[n]
        if got != want:
            return f"p={p}, n={n}: gamma_n = {got}, formula {want}"
    return None


def symmetry_witness_by_oracle(values, a_max, b_max):
    """The witness of check_symmetry_identities, each side summed term by term."""
    h = values[-1] + 1
    sums = [sum(m**k for m in values) for k in range(a_max + b_max + 1)]
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            lhs = alternating_sum(a, h, sums, a + b)
            rhs = alternating_sum(b, h, sums, a + b)
            if lhs != rhs:
                return f"(a={a}, b={b}): {lhs} != {rhs}"
    return None


def todd_sides_by_oracle(a, b, c1, t):
    """Both sides of check_todd_symmetry times M_n, from w_k = k! (M_n/M_k) T_k."""
    n = a + b
    m = _todd_tables(n)
    w = [factorial(k) * (m[n] // m[k]) * tk for k, tk in enumerate(t)]
    return alternating_sum(a, c1, w, n), alternating_sum(b, c1, w, n)


def todd_symmetry_witness_by_fractions(a, b, t):
    """The witness of check_todd_symmetry from T_0 .. T_n in Z[c_1..c_n], term by
    term over Fractions: Td_k = T_k / M_k, each side summed from c_1**j (n-j)!
    Td_{n-j} as a dict from exponent tuple to Fraction, then times M_n."""
    n = a + b
    m = _todd_tables(n)
    sides = []
    for x in (a, b):
        side = {}
        for j in range(x + 1):
            weight = (-1) ** (x - j) * comb(x, j) * factorial(n - j)
            for e, c in t[n - j].terms.items():
                if j:  # times c_1**j
                    e = (e[0] + j,) + e[1:] if e else (j,)
                side[e] = side.get(e, 0) + weight * F(c, m[n - j])
        scaled = {e: v * m[n] for e, v in side.items()}
        assert all(v.denominator == 1 for v in scaled.values())
        sides.append(MPoly({e: int(v) for e, v in scaled.items()}))
    lhs, rhs = sides
    if lhs == rhs:
        return None
    return f"as polynomials in c_1..c_{n}, times M_{n}: {lhs} != {rhs}"


def random_polynomial(rng, n, k):
    """A random element of Z[c_1..c_n] of degree k, standing in for T_k."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(k):
            exps[rng.randint(0, min(n, k) - 1)] += 1
        terms[tuple(exps)] = rng.randint(-(10**6), 10**6)
    return MPoly(terms)


class CountedComb:
    """math.comb, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, n, k):
        self.calls += 1
        return comb(n, k)


class TestCatalan:
    def test_values(self):
        assert catalan(-1) == F(-1, 2)
        assert [catalan(k) for k in range(5)] == [1, 1, 2, 5, 14]
        with pytest.raises(ValueError):
            catalan(-2)


class TestExpsum:
    @pytest.mark.parametrize("label", ["E8", "D4", "A5", "C6", "H4", "I2(7)", "A1"])
    def test_passes(self, label):
        report = check_expsum(parse_type(label))
        assert report.passed, report.witness

    def test_i2_odd_needs_cancellation_first(self):
        # After removing the shared m/2 entry, q(1-q^10)/(1-q^5) = q + q^6.
        report = check_expsum(parse_type("I2(7)"), "redefined")
        assert report.passed

    def test_fails_with_corrupt_v_plus(self):
        ps = parameters(parse_type("E8"))
        bad = corrupt(ps, V_plus=(F(20), F(25)), A=F(20), B=F(25))
        report = check_expsum(parse_type("E8"), params=bad)
        assert not report.passed
        assert report.witness == (
            "sum(q**m_i)*prod(V-) = q - q^21 - q^25 + q^45 "
            "but q*prod(V+) = q - q^21 - q^26 + q^46"
        )

    def test_fails_with_corrupt_exponents(self):
        report = check_expsum(
            parse_type("E8"),
            exps=ExponentList((1, 7, 11, 13, 17, 19, 23, 28)),
        )
        assert not report.passed
        assert report.witness == (
            "sum(q**m_i)*prod(V-) = q - q^21 - q^25 + q^28 - q^29 - q^34 + q^35 "
            "- q^38 + q^39 + q^44 but q*prod(V+) = q - q^21 - q^25 + q^45"
        )

    def test_fails_with_non_integer_entry_after_cancellation(self):
        ps = parameters(parse_type("E8"))
        bad = corrupt(ps, V_plus=(F(7, 2), F(24)))
        report = check_expsum(parse_type("E8"), params=bad)
        assert not report.passed
        assert report.witness == (
            "non-integer factor exponents after cancellation: "
            "V+=[Fraction(7, 2), Fraction(24, 1)], V-=[Fraction(6, 1), Fraction(10, 1)]"
        )

    def test_witness_lists_what_is_left_of_repeated_entries(self):
        ps = parameters(parse_type("E8"))
        report = check_expsum(
            parse_type("E8"), params=corrupt(ps, V_plus=(F(5, 2),) * 2, V_minus=(F(5, 2), F(3)))
        )
        assert report.witness == (
            "non-integer factor exponents after cancellation: "
            "V+=[Fraction(5, 2)], V-=[Fraction(3, 1)]"
        )
        # A nonpositive entry takes the same branch.
        bad = corrupt(ps, V_plus=(F(2), F(2), F(9, 2)), V_minus=(F(2), F(-1), F(2)))
        assert check_expsum(parse_type("E8"), params=bad).witness == (
            "non-integer factor exponents after cancellation: "
            "V+=[Fraction(9, 2)], V-=[Fraction(-1, 1)]"
        )

    def test_forms_no_polynomial_product(self, monkeypatch):
        from coxsums import IntPolynomial
        from coxsums.catalog import applicable_profiles

        def refuse(self, other):
            raise AssertionError("IntPolynomial.__mul__ called")

        monkeypatch.setattr(IntPolynomial, "__mul__", refuse)
        for t in catalog(12, 30):
            for prof in applicable_profiles(t):
                report = check_expsum(t, prof)
                assert report.passed, (t.name, prof, report.witness)

    def test_cost_does_not_grow_with_the_coxeter_number(self):
        start = time.perf_counter()
        report = check_expsum(CoxeterType("I2", 2 * 10**6))
        assert time.perf_counter() - start < 1
        assert report.passed, report.witness


def _same_multisets(got, want):
    return [sorted(side) for side in got] == [sorted(side) for side in want]


class TestCancelled:
    def test_matches_counter_arithmetic_over_the_catalog(self):
        from coxsums.catalog import applicable_profiles

        for t in catalog(12, 30):
            for prof in applicable_profiles(t):
                ps = parameters(t, prof)
                got = cancelled(ps)
                assert _same_multisets(got, cancelled_by_counter(ps)), (t.name, prof)

    @pytest.mark.parametrize("label", ["A1", "A3", "C4", "G2", "H2", "H3", "I2(7)", "I2(8)"])
    def test_beta_equal_to_alpha(self, label):
        t = parse_type(label)
        ps = parameters(t, beta=parameters(t).alpha)
        got = cancelled(ps)
        assert _same_multisets(got, cancelled_by_counter(ps))
        assert check_expsum(t, params=ps).passed

    @pytest.mark.parametrize(
        "plus, minus",
        [
            ((2, 2, 2), (2, 2, 3)),
            ((2, 2), (2, 2)),
            ((3, 5, 3, 5), (5, 3, 7)),
            ((F(7, 2), F(7, 2), 4), (F(7, 2), 4, 4)),
            ((), (1, 1)),
            ((9,), ()),
        ],
    )
    def test_repeated_entries(self, plus, minus):
        ps = corrupt(
            parameters(parse_type("E8")),
            V_plus=tuple(map(F, plus)),
            V_minus=tuple(map(F, minus)),
        )
        assert _same_multisets(cancelled(ps), cancelled_by_counter(ps))

    def test_leaves_the_parameter_set_unchanged(self):
        ps = parameters(parse_type("I2(7)"), "redefined")
        before = (ps.V_plus, ps.V_minus)
        cancelled(ps)
        assert (ps.V_plus, ps.V_minus) == before


class TestMultisetLaws:
    def test_passes_everywhere(self):
        for label in ("E8", "A1", "I2(7)", "D4"):
            report = check_multiset_laws(parse_type(label))
            assert report.passed, (label, report.witness)

    def test_fails_with_corrupt_entry(self):
        ps = parameters(parse_type("E8"))
        bad = corrupt(ps, V_plus=(F(20), F(25)))
        report = check_multiset_laws(parse_type("E8"), params=bad)
        assert not report.passed and "prod" in report.witness


class TestGammaFormula:
    @pytest.mark.parametrize("label", ["E8", "H4", "A1", "C7", "I2(9)"])
    def test_passes(self, label):
        assert check_gamma_formula(parse_type(label)).passed

    def test_fails_with_corrupt_gamma(self):
        bad = corrupt(parameters(parse_type("E8")), gamma=901)
        report = check_gamma_formula(parse_type("E8"), params=bad)
        assert not report.passed
        assert "901" in report.witness and "900" in report.witness


class TestHRelation:
    @pytest.mark.parametrize("label", ["E8", "C5", "A1", "I2(8)", "H4"])
    def test_passes(self, label):
        assert check_h_relation(parse_type(label)).passed

    def test_h2_both_parameterizations(self):
        assert check_h_relation(parse_type("H2"), "standard").passed
        assert check_h_relation(parse_type("H2"), "redefined").passed

    def test_fails_with_corrupt_d(self):
        bad = corrupt(parameters(parse_type("E8")), d=F(7))
        report = check_h_relation(parse_type("E8"), params=bad)
        assert not report.passed and report.witness


class TestBetaFormula:
    @pytest.mark.parametrize("label", ["E6", "E7", "E8", "F4", "H4", "D5", "D8"])
    def test_constrained_rows(self, label):
        report = check_beta_formula(parse_type(label))
        assert report.passed
        assert report.witness is None

    @pytest.mark.parametrize("label", ["A4", "C4", "G2", "H2", "H3", "I2(9)", "A1"])
    def test_unconstrained_rows(self, label):
        report = check_beta_formula(parse_type(label))
        assert report.passed
        assert "unconstrained" in report.witness

    def test_fails_with_corrupt_beta(self):
        bad = corrupt(parameters(parse_type("E8")), beta=F(11))
        report = check_beta_formula(parse_type("E8"), params=bad)
        assert not report.passed and "10" in report.witness


class TestSymmetryIdentities:
    def test_reduces_to_cube_identity(self):
        # (a, b) = (1, 2) is h^2 S1 - 3h S2 + 2 S3 = 0.
        for label in ("E7", "H3", "I2(11)"):
            el = parse_type(label)
            report = check_symmetry_identities(el, 1, 2)
            assert report.passed
            exp = [m for m in __import__("coxsums").exponents(el).values]
            h = exp[-1] + 1
            s1 = sum(exp)
            s2 = sum(m * m for m in exp)
            s3 = sum(m**3 for m in exp)
            assert h * h * s1 - 3 * h * s2 + 2 * s3 == 0

    def test_full_grid(self):
        assert check_symmetry_identities(parse_type("E7"), 4, 4).passed

    def test_fails_with_corrupt_exponents(self):
        bad = (1, 7, 11, 13, 17, 19, 23, 28)
        report = check_symmetry_identities(parse_type("E8"), 2, 3, exps=ExponentList(bad))
        assert not report.passed
        assert report.witness == "(a=0, b=1): 119 != 113"
        assert report.witness == symmetry_witness_by_oracle(bad, 2, 3)

    def test_rows_match_term_by_term_oracle_across_catalog(self):
        # Each type's exponents, then the top one raised by 1 (which moves h)
        # and, where that keeps them nondecreasing, the bottom one raised by 1.
        failed = 0
        for t in catalog(12, 30):
            v = exponents(t).values
            variants = [v, v[:-1] + (v[-1] + 1,)]
            if len(v) > 1 and v[0] < v[1]:
                variants.append((v[0] + 1,) + v[1:])
            for values in variants:
                report = check_symmetry_identities(t, 4, 4, exps=ExponentList(values))
                want = symmetry_witness_by_oracle(values, 4, 4)
                assert report.witness == want, (t.name, values)
                assert report.passed == (want is None)
                failed += want is not None
        assert failed > 50

    def test_rows_are_built_once_per_check(self, monkeypatch):
        counted = CountedComb()
        monkeypatch.setattr(verify_module, "comb", counted)
        assert check_symmetry_identities(parse_type("E8"), 4, 4).passed
        assert counted.calls <= 15  # one row per x <= 4: 1 + 2 + 3 + 4 + 5 entries


class TestToddSymmetryRows:
    """The sides of check_todd_symmetry against the oracle's alternating sums,
    read from the witnesses of checks fed random polynomials."""

    PAIRS = [(a, total - a) for total in range(9) for a in range(total + 1)]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_polynomial_sides_match_oracle(self, monkeypatch, a, b):
        from coxsums import todd as todd_module

        n = a + b
        rng = Random(f"mpoly:{a}:{b}")
        t = [MPoly({(): 1})] + [random_polynomial(rng, n, k) for k in range(1, n + 1)]
        monkeypatch.setattr(todd_module, "todd_polynomials", lambda k: tuple(t[: k + 1]))
        lhs, rhs = todd_sides_by_oracle(a, b, MPoly.variable(1), t)
        report = check_todd_symmetry(a, b)
        if lhs == rhs:
            assert a == b and report.passed
        else:
            assert report.witness == (
                f"as polynomials in c_1..c_{n}, times M_{n}: {lhs} != {rhs}"
            )

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_integer_sides_match_oracle(self, monkeypatch, a, b):
        from coxsums import todd as todd_module

        n = a + b
        rng = Random(f"ints:{a}:{b}")
        for _ in range(5):  # any integer T, so each side is a polynomial in c_1 alone
            t = [MPoly({(): rng.randint(-(10**12), 10**12)}) for _ in range(n + 1)]
            monkeypatch.setattr(todd_module, "todd_polynomials", lambda k, t=t: tuple(t[: k + 1]))
            lhs, rhs = todd_sides_by_oracle(a, b, MPoly.variable(1), t)
            report = check_todd_symmetry(a, b)
            if lhs == rhs:
                assert a == b and report.passed
            else:
                assert report.witness == (
                    f"as polynomials in c_1..c_{n}, times M_{n}: {lhs} != {rhs}"
                )

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_integer_pass_sides_agree_at_the_seeded_points(self, a, b):
        # The check no longer evaluates at points; here the integer Todd pass at
        # each of the 50 seed-42 points of (a, b), weighted-scaled, gives equal
        # sides (both u**n M_n times the Fraction sides), as the identity proved
        # over Z[c_1..c_n] says it must.
        n = a + b
        rng = Random(f"42:{a}:{b}")
        for _ in range(50):
            pairs = [(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(n)]
            scaled, _ = weighted_scale(pairs)
            lhs, rhs = todd_sides_by_oracle(a, b, scaled[0] if n else 0, _todd_pass([1] + scaled))
            assert lhs == rhs

    def test_rows_are_built_once_per_check(self, monkeypatch):
        counted = CountedComb()
        monkeypatch.setattr(verify_module, "comb", counted)
        assert check_todd_symmetry(3, 5).passed
        assert counted.calls <= 3 + 5 + 2  # rows of degree a and b


class TestToddSymmetry:
    def test_trivial_pairs(self):
        assert check_todd_symmetry(0, 0).passed
        assert check_todd_symmetry(2, 2).passed

    def test_hand_checked_sample(self):
        # (a, b) = (1, 2) at c = (1, 1, 1): both sides equal 1/12.
        td = todd_values(TruncatedSeries([1, 1, 1, 1]), 3)
        assert td == (1, F(1, 2), F(1, 6), F(1, 24))
        lhs = sum(
            (-1) ** (1 - j) * comb(1, j) * factorial(3 - j) * td[3 - j]
            for j in range(2)
        )
        rhs = sum(
            (-1) ** (2 - j) * comb(2, j) * factorial(3 - j) * td[3 - j]
            for j in range(3)
        )
        assert lhs == rhs == F(1, 12)

    @pytest.mark.parametrize(
        "a, b, k",
        [
            (a, total - a, k)
            for total in range(9)
            for a in range(total + 1)
            for k in range(total + 1)
        ],
    )
    def test_corrupt_todd_witness_matches_fraction_route(self, monkeypatch, a, b, k):
        # Td_k + c_k (Td_0 + 1). The sides read Td_k with weight d_j, j = a+b-k, the
        # difference of the rows at j: 0 when a == b, when j > max(a, b) (k < min(a, b)),
        # and at j = 0 when a - b is even; only there does the check pass.
        from coxsums import todd as todd_module

        n = a + b
        table = list(todd_polynomials(n))
        table[k] = table[k] + _todd_tables(n)[k] * (MPoly.variable(k) if k else 1)
        monkeypatch.setattr(todd_module, "todd_polynomials", lambda j: tuple(table[: j + 1]))
        report = check_todd_symmetry(a, b)
        want = todd_symmetry_witness_by_fractions(a, b, table)
        assert report.witness == want
        assert report.passed == (want is None)
        assert report.passed == (a == b or k < min(a, b) or (k == n and (a - b) % 2 == 0))

    def test_exact_identity_for_every_pair_up_to_twelve(self):
        for total in range(13):
            for a in range(total + 1):
                report = check_todd_symmetry(a, total - a)
                assert report.passed, report.witness

    def test_fails_with_corrupt_todd_polynomial(self, monkeypatch):
        from coxsums import todd as todd_module
        from coxsums.mpoly import MPoly

        table = list(todd_module.todd_polynomials(3))
        table[2] = table[2] + MPoly.variable(2)
        monkeypatch.setattr(todd_module._TABLE, "polynomials", table)
        report = check_todd_symmetry(1, 2)
        assert not report.passed
        assert report.witness == (
            "as polynomials in c_1..c_3, times M_3: "
            "4*c1**3 + 2*c1*c2 != 4*c1**3 - 10*c1*c2"
        )

    def test_polynomials_match_todd_values_at_the_seeded_points(self):
        # 50 points per (a, b) with a + b <= 8, from Random(f"42:{a}:{b}"): at
        # each, todd_values is the polynomials evaluated there, so the exact
        # identity holds at every one of the 2250.
        from coxsums.todd import todd_polynomials

        m = _todd_tables(8)
        polys = todd_polynomials(8)
        points = 0
        for total in range(9):
            for a in range(total + 1):
                rng = Random(f"42:{a}:{total - a}")
                for _ in range(50):
                    c = [F(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(total)]
                    symbolic = tuple(
                        F(evaluated(p, c)) / m[k] for k, p in enumerate(polys[: total + 1])
                    )
                    assert symbolic == todd_values(TruncatedSeries([1] + c), total)
                    points += 1
        assert points == 45 * 50

    def test_runs_at_no_point(self, monkeypatch):
        from coxsums import series as series_module
        from coxsums import todd as todd_module
        from coxsums.verify import build_tasks, run_tasks

        def unused(*args):
            raise AssertionError("todd-symm evaluates at a point")

        for module, name in (
            (todd_module, "todd_values"),
            (todd_module, "weighted_scale"),
            (series_module, "weighted_scale"),
        ):
            monkeypatch.setattr(module, name, unused)
        reports = run_tasks(build_tasks(suites=["todd-symm"]))
        assert len(reports) == 45 and all(r.passed for r in reports)


class TestToddSymmetryDifference:
    """check_todd_symmetry tests one difference, the shorter row padded with
    zeros; a failure still prints both sides."""

    PAIRS = [(0, 3), (3, 0), (1, 4), (4, 1), (2, 2)]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_tampered_polynomials_print_both_sides(self, monkeypatch, a, b):
        from coxsums import todd as todd_module

        n = a + b
        table = [t + MPoly.variable(k) if k else t for k, t in enumerate(todd_polynomials(n))]
        monkeypatch.setattr(todd_module, "todd_polynomials", lambda k: tuple(table[: k + 1]))
        lhs, rhs = todd_sides_by_oracle(a, b, MPoly.variable(1), table)
        report = check_todd_symmetry(a, b)
        if a == b:
            assert lhs == rhs and report.passed
        else:
            assert lhs != rhs
            assert report.witness == f"as polynomials in c_1..c_{n}, times M_{n}: {lhs} != {rhs}"

    @pytest.mark.parametrize("a, b", PAIRS)
    @pytest.mark.parametrize(
        "degrees",
        [(2,), (0, 3), (1, 2), (0, 1, 2, 3), ()],
        ids=["2", "0-3", "1-2", "0-1-2-3", "none"],
    )
    def test_faulty_witness_matches_fraction_route(self, monkeypatch, a, b, degrees):
        # Td_k - c_1**k at each k of degrees; for k > min(a, b) the shorter row reads
        # Td_k in its padded part.
        from coxsums import todd as todd_module

        n = a + b
        m = _todd_tables(n)
        table = list(todd_polynomials(n))
        for k in degrees:
            table[k] = table[k] - m[k] * MPoly.variable(1) ** k
        monkeypatch.setattr(todd_module, "todd_polynomials", lambda j: tuple(table[: j + 1]))
        report = check_todd_symmetry(a, b)
        want = todd_symmetry_witness_by_fractions(a, b, table)
        assert report.witness == want
        assert report.passed == (want is None) == (a == b or not degrees)

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_random_t_witness_matches_fraction_route(self, monkeypatch, a, b):
        from coxsums import todd as todd_module

        n = a + b
        real = todd_polynomials(n)
        rng = Random(f"difference:{a}:{b}")
        for _ in range(5):
            wrong = rng.randint(1, n)  # any T_k from k = wrong on
            table = list(real[:wrong]) + [random_polynomial(rng, n, k) for k in range(wrong, n + 1)]
            monkeypatch.setattr(
                todd_module, "todd_polynomials", lambda j, table=table: tuple(table[: j + 1])
            )
            report = check_todd_symmetry(a, b)
            want = todd_symmetry_witness_by_fractions(a, b, table)
            assert report.witness == want
            assert report.passed == (want is None) == (a == b)


class TestKostant:
    @pytest.mark.parametrize("label", ["D4", "D5", "D9", "E6", "E7", "E8"])
    def test_passes(self, label):
        report = check_de_kostant(parse_type(label))
        assert report.passed, report.witness

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            check_de_kostant(parse_type("A3"))

    def test_fails_with_corrupt_d(self):
        bad = corrupt(parameters(parse_type("E8")), d=F(7))
        report = check_de_kostant(parse_type("E8"), params=bad)
        assert not report.passed and report.witness


class TestTTransform:
    def test_tabulated_rows(self):
        for report in check_t_examples(order=20):
            assert report.passed, (report.subject, report.witness)

    def test_recursion_matches_pow_route(self):
        f = TruncatedSeries([1] + [2] * 30)
        via_recursion = t_transform(f)
        doubled = TruncatedSeries([c * F(2) ** n for n, c in enumerate(f.coefficients)])
        assert via_recursion == (doubled.log() * F(1, 2)).exp()

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_general_ell_matches_pow_route(self, ell):
        f = TruncatedSeries([1, 6, 3, -2, 5, 1, 0, 4, -3, 2, 7])
        got = t_transform(f, ell=ell)
        scaled = TruncatedSeries([c * F(ell) ** n for n, c in enumerate(f.coefficients)])
        assert got == (scaled.log() * F(1, ell)).exp()

    def test_iterations(self):
        f = TruncatedSeries([1] + [2] * 12)
        assert t_transform(f, iterations=3) == p_factor(8, 12)
        assert t_transform(f, iterations=0) == f

    def test_requires_constant_one(self):
        with pytest.raises(ConstantTermNotOne):
            t_transform(TruncatedSeries([2, 2, 2]))

    def test_integrality_sweep(self):
        assert check_t_integrality(5, 30).passed

    def test_integrality_fails_with_corrupt_start(self):
        report = check_t_integrality(2, 6, start=TruncatedSeries([1, 2, 3], order=6))
        assert not report.passed and report.witness

    def test_examples_fail_with_corrupt_row(self):
        row = (
            "a_n = n+1 -> b_n = 2**n (corrupted)",
            TruncatedSeries([n + 1 for n in range(8)]),
            TruncatedSeries([F(2) ** n + (1 if n == 5 else 0) for n in range(8)]),
        )
        reports = check_t_examples(rows=[row])
        assert not reports[0].passed and reports[0].witness


class TestSpecializations:
    def test_a_family_closed_form(self):
        report = check_gamma_specializations(parse_type("A2"), 10)
        assert report.passed

    def test_c_family_both_p(self):
        report = check_gamma_specializations(parse_type("C3"), 10)
        assert report.passed

    def test_c3_frozen_values(self):
        from coxsums import gamma_series

        ps = parameters(parse_type("C3"))
        assert gamma_series(ps, 1, 3)[3] == 202
        assert gamma_series(ps, 2, 2)[2] == 34

    @pytest.mark.parametrize("label", ["A3", "C4"])
    def test_passes_at_a_scale_above_one(self, label):
        # A factor (1 - v*t) in both V+ and V- cancels before the scale is taken.
        t = parse_type(label)
        ps = parameters(t)
        extra = (F(1, 3), F(-5, 4))
        scaled = corrupt(ps, V_plus=ps.V_plus + extra, V_minus=ps.V_minus + extra)
        report = check_gamma_specializations(t, 30, params=scaled)
        assert report.passed, report.witness

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            check_gamma_specializations(parse_type("E8"), 4)

    def test_fails_with_corrupt_multiset(self):
        bad = corrupt(parameters(parse_type("A2")), V_minus=(F(2), F(2)))
        report = check_gamma_specializations(parse_type("A2"), 6, params=bad)
        assert not report.passed and report.witness

    @pytest.mark.parametrize("family", ["A", "C"])
    def test_running_values_match_explicit_sums(self, family):
        for r in range(1 if family == "A" else 2, 13):
            got = list(_gamma_specializations(family, r, 40))
            assert got == specializations_by_sums(family, r, 40)

    @pytest.mark.parametrize(
        "label, changes",
        [
            ("A2", {"V_minus": (F(2), F(2))}),
            ("A5", {"V_plus": (F(3), F(7))}),
            ("C3", {"V_minus": (F(1), F(4))}),
            ("C4", {"V_plus": (F(5), F(8))}),
            ("A3", {"V_minus": (F(2, 3), F(3))}),
            ("C3", {"V_plus": (F(5, 4), F(1, 6))}),
        ],
    )
    def test_witness_matches_explicit_sums(self, label, changes):
        t = parse_type(label)
        bad = corrupt(parameters(t), **changes)
        report = check_gamma_specializations(t, 12, params=bad)
        assert not report.passed
        assert report.witness == specialization_witness_by_sums(t, 12, bad)


    @pytest.mark.parametrize("label, p, n", [("A3", 1, 5), ("C4", 1, 1), ("C4", 2, 7)])
    def test_wrong_integer_gives_the_fraction_witness(self, monkeypatch, label, p, n):
        """A wrong F_n fails the integer check with the witness that the same
        series gives in Fractions."""
        import coxsums.todd as todd_module

        t = parse_type(label)
        ps = parameters(t)
        real = todd_module._gamma_integers

        def wrong(params, q, order):
            f, s = real(params, q, order)
            if q == p:
                f[n] += 1
            return f, s

        monkeypatch.setattr(todd_module, "_gamma_integers", wrong)
        report = check_gamma_specializations(t, 12, params=ps)
        assert not report.passed
        f, s = wrong(ps, p, 12)
        got = [F(x, s**k) for k, x in enumerate(f)]
        want = {(q, k): v for q, k, v in specializations_by_sums(t.family, ps.r, 12)}
        assert report.witness == f"p={p}, n={n}: gamma_n = {got[n]}, formula {want[p, n]}"


class TestGamma34:
    @pytest.mark.parametrize("label", ["A2", "E8", "H4", "I2(9)", "C5"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_passes(self, label, p):
        report = check_gamma34(parse_type(label), p)
        assert report.passed, report.witness

    def test_a2_frozen_gamma3(self):
        # Formula value at (h, gamma, alpha, beta, p) = (3, 9, 1, 2, 1).
        h, g, s, q, p = 3, 9, 3, 2, 1
        gamma3 = (
            -(h**3) + 2 * h * g - 2 * g + F(2 * p * p + 4, 3)
            - (h * h - g - h + 2) * s - (h - 2) * q
        )
        assert gamma3 == 12

    def test_fails_with_corrupt_gamma(self):
        bad = corrupt(parameters(parse_type("A2")), gamma=10)
        report = check_gamma34(parse_type("A2"), 1, params=bad)
        assert not report.passed and report.witness

    @pytest.mark.parametrize("label", ["A2", "E8", "I2(9)"])
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("p", [1, 2])
    def test_wrong_numerator_gives_the_fraction_witness(self, monkeypatch, label, k, p):
        """A wrong F_3 or F_4 fails the integer check with the witness that the
        same series gives in Fractions."""
        import coxsums.todd as todd_module

        t = parse_type(label)
        ps = parameters(t)
        if label == "I2(9)":  # half-integer: the scale e of alpha and beta is 2
            assert (ps.alpha.denominator, ps.beta.denominator) == (1, 2)
        real = todd_module._gamma_integers
        f, u = real(ps, p, 4)
        f[k] += 1

        def wrong(params, p, order):
            assert (params, order) == (ps, 4)
            return list(f), u

        monkeypatch.setattr(todd_module, "_gamma_integers", wrong)
        report = check_gamma34(t, p, params=ps)
        assert not report.passed
        assert report.witness == gamma34_witness_by_fractions(ps, p, f, u)
        assert report.witness.startswith(f"gamma_{k} = ")


def gamma34_witness_by_fractions(ps, p, f, u):
    """The first gamma34 witness, from gamma_k = F_k / u**k and the
    formulas evaluated in Fractions."""
    h, g = ps.h, ps.gamma
    s, q = ps.alpha + ps.beta, ps.alpha * ps.beta
    gamma = [F(f[k], u**k) for k in range(5)]
    gamma3 = (
        -(h**3) + 2 * h * g - 2 * g + F(2 * p * p + 4, 3)
        - (h * h - g - h + 2) * s - (h - 2) * q
    )
    gamma4 = (
        -(h**4) + h * h * g + g * g + 3 * h**3 - 6 * h * g - h * h + 2 * g
        + F(2, 3) * h * (p * p + 5) - 2
        - (h * h - g - h + 2) * ((2 * h - 2 + s) * s - q)
        - (h - 2) * (2 * h - 2 + s) * q
    )
    for k, want in ((3, gamma3), (4, gamma4)):
        if gamma[k] != want:
            return f"gamma_{k} = {gamma[k]} but formula gives {want}"
    return None


class TestMethodsSuite:
    def test_passes(self):
        for label in ("E8", "A1", "H4", "I2(7)"):
            report = check_methods(parse_type(label), n_max=8)
            assert report.passed, (label, report.witness)

    def test_s4_negative_control(self):
        report = check_s4_nonuniversality()
        assert report.passed, report.witness

    def test_fails_with_corrupt_exponents(self):
        report = check_methods(
            parse_type("A2"), n_max=4, exps=ExponentList((1, 3))
        )
        assert not report.passed and report.witness

    def test_fails_with_corrupt_gamma_in_the_table(self, monkeypatch):
        """E8's gamma is a table entry, so the simply-laced gamma = h**2 check
        and the gamma formula both see a corrupt row."""
        import sys

        catalog_module = sys.modules["coxsums.catalog"]
        row = catalog_module._EXCEPTIONAL[("E", 8)]
        monkeypatch.setitem(catalog_module._EXCEPTIONAL, ("E", 8), row._replace(gamma=901))
        e8 = parse_type("E8")
        assert not check_gamma_formula(e8).passed
        report = check_methods(e8, n_max=6)
        assert not report.passed
        assert report.witness == "gamma = 901 != h**2 = 900"

    def test_reads_the_faulhaber_sum_that_cox_heights_runs(self, monkeypatch):
        from coxsums import todd as todd_module
        from coxsums.powersums import heightsum_closed
        from coxsums.verify import build_tasks, run_tasks

        real = todd_module.faulhaber_sum
        monkeypatch.setattr(todd_module, "faulhaber_sum", lambda n, sums: real(n, sums) + 1)
        e8 = parse_type("E8")
        direct = heightsum_direct(e8, 0).value
        assert heightsum_closed(e8, 0).value == direct + 1  # the command's value is wrong
        report = check_methods(e8, n_max=12)
        assert not report.passed
        assert report.witness == f"heights n=0: closed {direct + 1} != direct {direct}"
        reports = run_tasks(build_tasks(suites=["methods"]))
        passed = [r.subject for r in reports if r.passed]
        assert passed == ["A9 vs D6 (S4 not universal in h, gamma)"]

    @pytest.mark.parametrize("n_max", [0, 1, 12])
    def test_reads_the_single_degree_height_sum_at_n_max(self, monkeypatch, n_max):
        from coxsums import powersums as powersums_module

        real = powersums_module.dual_heightsum
        monkeypatch.setattr(powersums_module, "dual_heightsum", lambda d, n: real(d, n) + 1)
        e8 = parse_type("E8")
        want = real(dual_partition(exponents(e8)), n_max)
        assert heightsum_direct(e8, n_max).value == want + 1  # the command's value is wrong
        report = check_methods(e8, n_max=n_max)
        assert not report.passed
        assert report.witness == (
            f"heights n={n_max}: dual_heightsum {want + 1} != dual_heightsums {want}"
        )

    def test_fails_with_corrupt_params_on_the_todd_route(self):
        bad = corrupt(parameters(parse_type("E8")), V_plus=(F(20), F(25)))
        report = check_methods(parse_type("E8"), n_max=6, params=bad)
        assert not report.passed
        assert re.fullmatch(r"n=\d+, p=\d+: todd \S+ != direct \S+", report.witness)

    def test_todd_witness_is_the_route_value(self):
        e8 = parse_type("E8")
        bad = corrupt(parameters(e8), V_plus=(F(20), F(25)))
        report = check_methods(e8, n_max=6, params=bad)
        values = powersum_todd_upto(e8, 6, 1, bad)
        direct = exponent_power_sums(exponents(e8), 6)
        n = next(k for k in range(7) if values[k] != direct[k])
        assert report.witness == f"n={n}, p=1: todd {values[n]} != direct {direct[n]}"

    @pytest.mark.parametrize("wrong", [lambda b2: b2 + 1, lambda b2: 2 * b2, lambda b2: -b2])
    def test_wrong_p_squared_term_is_caught(self, monkeypatch, wrong):
        """A wrong p**2 term in the p-factor recurrence raises InternalMismatch
        from its checked division: at p = 1 on the Todd route, at p = 2 and 3 in
        the p-freeness; so every Todd-route check fails with a witness."""
        import coxsums.todd as todd_module

        real = todd_module._quotient_integers
        monkeypatch.setattr(
            todd_module, "_quotient_integers", lambda a, b2, order: real(a, wrong(b2), order)
        )
        message = r"^p-factor: F_\d+ is not an integer$"
        with pytest.raises(InternalMismatch, match=message):
            check_methods(parse_type("E8"), n_max=12)
        for p in (2, 3):
            with pytest.raises(InternalMismatch, match=message):
                verify_module._p_freeness(p, 12)
        tasks = verify_module.build_tasks(max_rank=3, max_m=8, n_max=6, suites=["methods"])
        reports = verify_module.run_tasks(tasks)
        todd_checks = [r for r in reports if "vs" not in r.subject]
        assert todd_checks and all(not r.passed for r in todd_checks)
        pattern = r"raised InternalMismatch\('p-factor: F_\d+ is not an integer'\)"
        assert all(re.fullmatch(pattern, r.witness) for r in todd_checks)

    def test_dual_partition_built_once_per_type(self, monkeypatch):
        import coxsums.powersums as powersums_module
        import coxsums.verify as verify_module

        calls = []

        def counting(exps):
            calls.append(exps)
            return dual_partition(exps)

        monkeypatch.setattr(powersums_module, "dual_partition", counting)
        monkeypatch.setattr(verify_module, "dual_partition", counting)
        report = check_methods(parse_type("E8"), n_max=12)
        assert report.passed, report.witness
        assert len(calls) == 1

    def test_closed_route_runs_once_per_type(self, monkeypatch):
        import coxsums.powersums as powersums_module

        real, calls = powersums_module.closed_power_sums, []

        def recording(params, n):
            calls.append(n)
            return real(params, n)

        def unused(*args, **kwargs):
            raise AssertionError("check_methods reads closed_power_sums only")

        monkeypatch.setattr(powersums_module, "closed_power_sums", recording)
        monkeypatch.setattr(powersums_module, "powersum_closed", unused)
        monkeypatch.setattr(powersums_module, "heightsum_closed", unused)
        report = check_methods(parse_type("E8"), n_max=6)
        assert report.passed, report.witness
        assert calls == [7]

    @pytest.mark.parametrize(
        "index, witness",
        [
            (6, "n=6: closed 820758681 != direct 820758680"),
            (13, "heights n=12: closed 13450128285371419201/13 != direct 1034625252720878400"),
        ],
        ids=["power-sum", "height-sum"],
    )
    def test_closed_sums_are_compared_up_to_n_max(self, monkeypatch, index, witness):
        import coxsums.powersums as powersums_module

        real = powersums_module.closed_power_sums

        def shifted(params, n):
            sums = real(params, n)
            sums[index] += 1
            return sums

        monkeypatch.setattr(powersums_module, "closed_power_sums", shifted)
        report = check_methods(parse_type("E8"), n_max=12)
        assert not report.passed
        assert report.witness == witness

    def test_fails_with_corrupt_alpha_on_the_closed_route(self):
        e8 = parse_type("E8")
        bad = corrupt(parameters(e8), alpha=F(4))
        direct = tuple(exponent_power_sums(exponents(e8), 12))
        for p in (1, 2, 3):
            assert powersum_todd_upto(e8, 12, p, bad) == direct
        report = check_methods(e8, n_max=12, params=bad)
        assert not report.passed
        assert report.witness == "n=2: closed 2472 != direct 2360"

    def test_passes_at_n_max_zero(self):
        for label in ("A3", "D4", "E8", "H4", "I2(7)"):
            report = check_methods(parse_type(label), n_max=0)
            assert report.passed, (label, report.witness)

    def test_runs_one_todd_pass_per_type_and_one_p_freeness_per_p(self, monkeypatch):
        import coxsums.powersums as powersums_module

        real_quotients, real_freeness = powersums_module._todd_quotients, verify_module._p_freeness
        passes, built = [], []

        def counted_quotients(t, n, p, params, degrees):
            passes.append(p)
            return real_quotients(t, n, p, params, degrees)

        def counted_freeness(p, n_max):
            built.append((p, n_max))
            return real_freeness(p, n_max)

        monkeypatch.setattr(powersums_module, "_todd_quotients", counted_quotients)
        monkeypatch.setattr(verify_module, "_p_freeness", counted_freeness)
        reports = verify_module.run_tasks(verify_module.build_tasks(suites=["methods"]))
        assert len(reports) == 65 and all(r.passed for r in reports)
        assert passes == [1] * 64
        assert built == [(2, 12), (3, 12)]
        passes.clear()
        built.clear()
        report = check_methods(parse_type("E8"), 12)
        assert report.passed, report.witness
        assert passes == [1] and built == [(2, 12), (3, 12)]

    def test_a_raising_p_freeness_is_kept_and_fails_every_type(self, monkeypatch):
        """The sweep computes the p-freeness at p = 3 once; the exception it raises
        fails each per-type check, and A9 vs D6 still passes."""
        import coxsums.todd as todd_module

        real, calls = todd_module._quotient_integers, []

        def remainder_at_p3(a, b2, order):
            if (a, b2) == (6, 81):  # p = 3, s = 3
                calls.append(order)
                raise InternalMismatch("p-factor: F_2 is not an integer")
            return real(a, b2, order)

        monkeypatch.setattr(todd_module, "_quotient_integers", remainder_at_p3)
        reports = verify_module.run_tasks(verify_module.build_tasks(suites=["methods"]))
        per_type, (s4,) = reports[:-1], reports[-1:]
        assert len(per_type) == 64 and s4.passed
        witness = "raised InternalMismatch('p-factor: F_2 is not an integer')"
        assert all(not r.passed and r.witness == witness for r in per_type)
        assert calls == [12]

    def test_p_freeness_checks_p_and_passes_its_witness_on(self):
        assert verify_module._p_freeness(1, 12) is None
        with pytest.raises(ValueError, match="p must be >= 1"):
            verify_module._p_freeness(0, 12)
        # A p-factor that fails: its witness text comes back as the check's.
        report = check_methods(
            parse_type("A2"), 4, p_freeness=lambda p, n_max: f"p={p}, k=4: made up"
        )
        assert report.witness == "p=2, k=4: made up"


# p up to 10**6, all of which cox powersum --p admits at n <= 40: the Todd
# route is as it is at p = 1.
@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 10**6), n=st.integers(0, 40))
def test_the_p_factor_is_p_free_at_any_p(p, n):
    assert verify_module._p_freeness(p, n) is None
    for label in ("E8", "H4", "I2(7)", "C5"):
        t = parse_type(label)
        assert powersum_todd_upto(t, n, p) == powersum_todd_upto(t, n, 1), label


class TestRunAll:
    def test_smoke_sweep_passes(self):
        reports = run_all(4, 6, 5, 1)
        assert all(r.passed for r in reports)
        assert len(reports) < 1000

    def test_desk_scale_sweep_passes(self):
        reports = run_all(12, 30, 12, 42)
        failed = [r for r in reports if not r.passed]
        assert not failed, failed[:3]

    def test_deterministic(self):
        assert run_all(4, 6, 4, 7) == run_all(4, 6, 4, 7)

    def test_failed_reports_always_carry_a_witness(self):
        bad = corrupt(parameters(parse_type("E8")), gamma=901)
        report = check_gamma_formula(parse_type("E8"), params=bad)
        assert not report.passed
        assert report.witness is not None

    def test_suite_selection(self):
        reports = run_all(2, 3, 3, 1, suites=["expsum"])
        assert reports and all(r.suite == "expsum" for r in reports)
        with pytest.raises(ValueError):
            run_all(2, 3, 3, 1, suites=["nope"])

    def test_per_profile_checks_get_the_built_parameter_sets(self, monkeypatch):
        import coxsums.verify as verify_module
        from coxsums.catalog import profile_parameters
        from coxsums.verify import CheckReport, build_tasks

        seen = []

        def record(t, profile=None, params=None):
            seen.append((t, profile, params))
            return CheckReport("gamma", t.name, True)

        monkeypatch.setattr(verify_module, "check_gamma_formula", record)
        tasks = build_tasks(4, 9, 3, 1, suites=["gamma"])
        for _, _, check in tasks:
            check()
        want = [(t, prof, ps) for t in catalog(4, 9) for prof, ps in profile_parameters(t)]
        assert seen == want


class TestSharedSweep:
    """build_tasks builds one parameter table per call."""

    @pytest.mark.parametrize("seed", [0, 11, 42])
    def test_reports_do_not_depend_on_the_seed(self, seed):
        # build_tasks takes a seed that no default suite reads.
        from coxsums.verify import build_tasks, run_tasks

        reports = run_tasks(build_tasks(seed=seed))
        assert reports == run_tasks(build_tasks(seed=seed + 1))
        assert len(reports) == 666 and all(r.passed for r in reports)

    def test_asks_of_a_kept_exception_add_no_frames(self, monkeypatch):
        """A build that raises is run once; every later ask raises the same
        exception from its first traceback, so 50 asks leave as many frames as one."""
        import traceback

        builds = []

        def broken(t):
            builds.append(t)
            raise InternalMismatch("table fault")

        monkeypatch.setattr(verify_module, "profile_parameters", broken)
        t = parse_type("A2")
        sweep = verify_module._Sweep([t], 1)

        def frames_after(asks):
            for _ in range(asks):
                ((_, error),) = sweep.profiles(t)
            return error, len(traceback.extract_tb(error.__traceback__))

        first, one = frames_after(1)
        again, fifty = frames_after(49)
        assert again is first and fifty == one and builds == [t]
        for _ in range(50):
            with pytest.raises(InternalMismatch) as caught:
                sweep.once(broken, t)
        assert caught.value is first and builds == [t]
        assert len(traceback.extract_tb(caught.value.__traceback__)) == one

    def test_default_sweep_builds_each_parameter_set_once(self, monkeypatch):
        import sys

        from coxsums.verify import build_tasks, run_tasks

        catalog_module = sys.modules["coxsums.catalog"]
        calls = {"parameters": 0, "profile_parameters": 0}
        originals = {name: getattr(catalog_module, name) for name in calls}

        def counting(name):
            def counted(*args, **kwargs):
                calls[name] += 1
                return originals[name](*args, **kwargs)

            return counted

        # Every coxsums module that binds either function, the verify module included.
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("coxsums"):
                for name, original in originals.items():
                    if vars(module).get(name) is original:
                        monkeypatch.setattr(module, name, counting(name))
        reports = run_tasks(build_tasks())
        assert len(reports) == 666 and all(r.passed for r in reports)
        # 64 types; 65 concrete profiles (one per type, two for H2), plus
        # check_s4_nonuniversality's A9 and D6.
        assert calls == {"profile_parameters": len(catalog(12, 30)), "parameters": 67}

    def test_default_entry_is_the_default_parameter_set(self, monkeypatch):
        import coxsums.verify as verify_module
        from coxsums.verify import CheckReport, build_tasks, run_tasks

        seen = {}

        def recorder(name):
            def record(t, *args, params=None, **kwargs):
                seen.setdefault(name, {})[t] = params
                return CheckReport(name, t.name, True)

            return record

        def record_profile(t, profile, params):
            seen.setdefault("profiles", {}).setdefault(t, []).append(params)
            return CheckReport("gamma", t.name, True)

        defaults = (
            "check_methods", "check_gamma34", "check_de_kostant", "check_gamma_specializations"
        )
        for name in defaults:
            monkeypatch.setattr(verify_module, name, recorder(name))
        monkeypatch.setattr(verify_module, "check_gamma_formula", record_profile)
        suites = ["gamma", "methods", "gamma34", "kostant", "specializations"]
        run_tasks(build_tasks(30, 60, 3, 1, suites))
        types = catalog(30, 60)
        assert {"H2", "I2(8)", "I2(9)", "I2(59)", "I2(60)"} <= {t.name for t in types}
        assert list(seen["check_methods"]) == types
        for t in types:
            got = seen["check_methods"][t]
            assert got == parameters(t), t.name
            # One table: the per-profile suites' set for that profile, not a copy.
            assert any(got is ps for ps in seen["profiles"][t]), t.name
            for name in defaults[1:]:
                if t in seen[name]:
                    assert seen[name][t] is got, (name, t.name)
        assert len(seen["check_de_kostant"]) == 27 + 3 and len(seen["check_gamma34"]) == len(types)

    def test_default_is_parameters_over_the_wide_catalog(self):
        # Only H2 has two profile entries; every I2 type has its redefined one alone.
        types = catalog(120, 600)
        sweep = verify_module._Sweep(types, 1)
        assert len(types) == 958
        assert [sweep.default(t) for t in types] == [parameters(t) for t in types]
