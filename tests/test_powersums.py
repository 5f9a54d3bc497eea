"""Cross-method power sums and height sums."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsums import (
    CoxeterType,
    catalog,
    dual_partition,
    exponents,
    heightsum_closed,
    heightsum_direct,
    parameters,
    parse_type,
    powersum_closed,
    powersum_direct,
    powersum_todd,
    powersum_todd_upto,
)
from coxsums.catalog import DualPartition, ExponentList, profile_parameters
from coxsums.errors import InternalMismatch
from coxsums.powersums import (
    closed_power_sums,
    dual_heightsum,
    dual_heightsums,
    exponent_power_sums,
)
from coxsums.todd import faulhaber_sum


def corrupt(ps, **changes):
    return dataclasses.replace(ps, **changes)


class TestDirect:
    def test_e8_values(self):
        e8 = parse_type("E8")
        assert powersum_direct(e8, 0).value == 8
        assert powersum_direct(e8, 1).value == 120
        assert powersum_direct(e8, 2).value == 2360

    def test_zeroth_power_is_rank(self):
        for label in ("A1", "C6", "F4", "I2(13)"):
            t = parse_type(label)
            assert powersum_direct(t, 0).value == t.rank

    def test_method_tag(self):
        res = powersum_direct(parse_type("A3"), 2)
        assert res.method == "direct"
        assert res.n == 2


class TestTodd:
    def test_a2_cubes(self):
        assert powersum_todd(parse_type("A2"), 3, 1).value == 9

    def test_e8_squares_both_p(self):
        e8 = parse_type("E8")
        assert powersum_todd(e8, 2, 1).value == 2360
        assert powersum_todd(e8, 2, 2).value == 2360

    def test_g2_cubes_any_p(self):
        g2 = parse_type("G2")
        for p in (1, 2, 3, 4):
            assert powersum_todd(g2, 3, p).value == 126

    def test_validation(self):
        with pytest.raises(ValueError):
            powersum_todd(parse_type("A2"), -1)
        with pytest.raises(ValueError):
            powersum_todd(parse_type("A2"), 2, 0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_single_value_equals_the_table_entry(self, p):
        # powersum_todd forms only S_n, from the same pass as powersum_todd_upto.
        for t in catalog(12, 30):
            upto = powersum_todd_upto(t, 20, p)
            for n in range(21):
                assert powersum_todd(t, n, p).value == upto[n], (t.name, n)

    @pytest.mark.parametrize("route", [powersum_todd, powersum_todd_upto])
    def test_single_value_and_table_raise_alike(self, route):
        a2 = parse_type("A2")
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            route(a2, -1)
        with pytest.raises(ValueError, match="^p must be >= 1$"):
            route(a2, 2, 0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_corrupt_table_keeps_rational_values(self, p):
        # V+ = {20, 25} breaks integrality: the route returns S_k, never a floor or an error.
        e8 = parse_type("E8")
        bad = corrupt(parameters(e8), V_plus=(F(20), F(25)))
        want = (8, 124, F(7544, 3), 57350, F(7059272, 5), F(109947700, 3), 987767144)
        assert powersum_todd_upto(e8, 6, p, bad) == want
        assert powersum_todd(e8, 6, p, bad).value == want[6]

    def test_reads_the_gamma_numerators_directly(self, monkeypatch):
        from coxsums import todd as todd_module

        def unused(*args, **kwargs):
            raise AssertionError("the Todd route runs the integer pass directly")

        monkeypatch.setattr(todd_module, "todd_values", unused)
        monkeypatch.setattr(todd_module, "gamma_series", unused)
        e8 = parse_type("E8")
        assert powersum_todd_upto(e8, 4, 3)[4] == powersum_todd(e8, 4, 3).value == 1246568


    def test_runs_no_weighted_scale(self, monkeypatch):
        """The gamma integers come at their own scale s, so the route takes no
        gcd-reduced weighted scale and feeds the Todd pass directly."""
        from coxsums import series as series_module
        from coxsums import todd as todd_module

        def unused(*args, **kwargs):
            raise AssertionError("the Todd route reads the gamma integers at scale s")

        for name in ("todd_values", "_scaled_todd_passes", "weighted_scale"):
            monkeypatch.setattr(todd_module, name, unused)
        monkeypatch.setattr(series_module, "weighted_scale", unused)
        e8 = parse_type("E8")
        want = tuple(exponent_power_sums(exponents(e8), 20))
        for p in (1, 2, 3, 9):
            assert powersum_todd_upto(e8, 20, p) == want
            assert powersum_todd(e8, 20, p).value == want[20]

    def test_quotients_are_the_route_values(self):
        from coxsums.powersums import _todd_quotients

        for label in ("E8", "I2(7)", "H3", "C5"):
            t = parse_type(label)
            pairs = _todd_quotients(t, 12, 3, None, range(13))
            assert tuple(F(x, d) for x, d in pairs) == powersum_todd_upto(t, 12, 3)
            assert _todd_quotients(t, 12, 3, None, (7, 2)) == [pairs[7], pairs[2]]


class TestClosed:
    def test_spot_values(self):
        assert powersum_closed(parse_type("E8"), 3).value == 52200
        assert powersum_closed(parse_type("A2"), 4).value == 17
        assert powersum_closed(parse_type("A2"), 5).value == 33

    def test_every_degree(self):
        e8 = parse_type("E8")
        want = exponent_power_sums(exponents(e8), 40)
        assert [powersum_closed(e8, n).value for n in range(41)] == want
        with pytest.raises(ValueError):
            powersum_closed(e8, -1)

    def test_beta_override_does_not_change_values(self):
        t = parse_type("A2")
        pinned = parameters(t)
        shifted = parameters(t, beta=5)
        for n in range(6):
            assert (
                powersum_closed(t, n, params=pinned).value
                == powersum_closed(t, n, params=shifted).value
            )


class TestHeightSums:
    def test_a2_values(self):
        a2 = parse_type("A2")
        # Positive roots of A2 have heights 1, 1, 2.
        heights = [1, 1, 2]
        for n in range(5):
            want = sum(h**n for h in heights)
            assert heightsum_direct(a2, n).value == want
            assert heightsum_closed(a2, n).value == want

    def test_counting_positive_roots(self):
        g2 = parse_type("G2")
        assert heightsum_direct(g2, 0).value == 6

    def test_e8_height_sum(self):
        assert heightsum_closed(parse_type("E8"), 1).value == 1240

    def test_h3_formal_height_sum(self):
        assert heightsum_closed(parse_type("H3"), 1).value == 61
        assert heightsum_direct(parse_type("H3"), 1).value == 61

    def test_closed_route_at_every_degree(self):
        e8 = parse_type("E8")
        for n in range(30):
            assert heightsum_closed(e8, n).value == heightsum_direct(e8, n).value, n
        with pytest.raises(ValueError):
            heightsum_closed(e8, -1)

    def test_direct_route_reads_only_the_dual_partition(self, monkeypatch):
        import coxsums.powersums as powersums_module
        import coxsums.todd as todd_module

        def unused(*args, **kwargs):
            raise AssertionError("heightsum_direct sums over the dual partition only")

        monkeypatch.setattr(powersums_module, "exponent_power_sums", unused)
        monkeypatch.setattr(todd_module, "faulhaber_sum", unused)
        assert heightsum_direct(parse_type("E8"), 3).value == 338332
        assert heightsum_direct(parse_type("A2"), 0).value == 3

    def test_direct_equals_dual_partition_enumeration(self):
        for label in ("E6", "C5", "H4", "I2(11)"):
            t = parse_type(label)
            dual = dual_partition(exponents(t))
            for n in range(5):
                want = sum(k * j**n for j, k in enumerate(dual.counts, start=1))
                assert heightsum_direct(t, n).value == want, (label, n)


def test_power_and_height_sums_match_brute_force_int_sums():
    """Each height sum also equals Faulhaber's formula over the direct S_k,
    the identity that joins the direct power sums to the direct heights."""
    for t in catalog(12, 30):
        exps = exponents(t).values
        sums = exponent_power_sums(exponents(t), 13)
        for n in range(13):
            want = sum(m**n for m in exps)
            assert sums[n] == want, (t.name, n)
            assert powersum_direct(t, n).value == want, (t.name, n)
            heights = sum(j**n for m in exps for j in range(1, m + 1))
            assert heightsum_direct(t, n).value == heights, (t.name, n)
            assert faulhaber_sum(n, sums[: n + 2]) == heights, (t.name, n)


@pytest.mark.parametrize(
    "raw, name", [(("B", 3), "C3/B3"), (("I2", 4), "C2/B2"), (("I2", 5), "H2"), (("I2", 6), "G2")]
)
def test_result_type_is_canonical(raw, name):
    """Every route's PowerSumResult carries the canonical type of its input."""
    t = CoxeterType(*raw)
    results = [
        powersum_direct(t, 3),
        powersum_todd(t, 3),
        powersum_closed(t, 3),
        heightsum_direct(t, 2),
        heightsum_closed(t, 2),
    ]
    for res in results:
        assert res.type == parse_type(name) and res.type.name == name
        assert (res.type.family, res.type.index) != raw


class TestExponentPowerSums:
    """exponent_power_sums, by running products, equals fresh powers."""

    def test_catalog(self):
        for t in catalog(30, 300):
            exps = exponents(t)
            for n in range(21):
                want = [sum(m**k for m in exps.values) for k in range(n + 1)]
                assert exponent_power_sums(exps, n) == want, (t.name, n)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_degree(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            exponent_power_sums(exponents(parse_type("E8")), n)

    def test_across_slice_boundaries(self):
        """The sums run slice by slice; lists that end on, before and past a
        slice boundary give the plain sums."""
        import coxsums.powersums as powersums_module

        size = powersums_module._POWER_SUM_SLICE
        for label in (f"A{size - 1}", f"A{size}", f"A{size + 1}", f"D{2 * size + 5}"):
            exps = exponents(parse_type(label))
            want = [sum(m**k for m in exps.values) for k in range(4)]
            assert exponent_power_sums(exps, 3) == want, label


class TestDualHeightSums:
    """dual_heightsums, by running products, equals the single-degree sums."""

    def test_catalog(self):
        for t in catalog(40, 200):
            dual = dual_partition(exponents(t))
            sums = dual_heightsums(dual, 13)
            assert sums == [dual_heightsum(dual, k) for k in range(14)], t.name

    def test_degree_zero_counts_the_positive_roots(self):
        dual = dual_partition(exponents(parse_type("E8")))
        assert dual_heightsums(dual, 0) == [120]

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_degree(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            dual_heightsums(dual_partition(exponents(parse_type("E8"))), n)


class TestValidation:
    """ExponentList and DualPartition reject the same inputs with the same messages."""

    @pytest.mark.parametrize("values", [(0, 1), (2, 1), (1, -1)])
    def test_exponent_list_rejects(self, values):
        with pytest.raises(ValueError, match=r"^exponents must be positive and nondecreasing$"):
            ExponentList(values)

    @pytest.mark.parametrize("counts", [(0, 1), (1, 2), (1, -1)])
    def test_dual_partition_rejects(self, counts):
        with pytest.raises(
            ValueError, match=r"^dual partition must be nonincreasing and nonnegative$"
        ):
            DualPartition(counts)

    def test_accepted(self):
        assert ExponentList((1, 2)).values == (1, 2)
        assert DualPartition((2, 1)).counts == (2, 1)
        assert sum(DualPartition(()).counts) == 0
        with pytest.raises(ValueError, match=r"^empty exponent list$"):
            ExponentList(())


class TestSweeps:
    def test_methods_agree_small_sweep(self):
        for t in catalog(6, 10):
            upto = {p: powersum_todd_upto(t, 8, p) for p in (1, 2, 3)}
            for n in range(9):
                direct = powersum_direct(t, n).value
                for p in (1, 2, 3):
                    assert powersum_todd(t, n, p).value == direct, (t.name, n, p)
                    assert upto[p][n] == direct, (t.name, n, p)
                if n <= 5:
                    assert powersum_closed(t, n).value == direct, (t.name, n)
                if n <= 4:
                    assert heightsum_closed(t, n).value == heightsum_direct(t, n).value

    def test_todd_route_at_orders_zero_and_one(self):
        for t in catalog(6, 10):
            for p in (1, 2, 3):
                for k in (0, 1):
                    want = tuple(powersum_direct(t, j).value for j in range(k + 1))
                    assert powersum_todd_upto(t, k, p) == want, (t.name, k, p)

    @pytest.mark.parametrize("p", [1, 3])
    def test_todd_route_at_depth(self, p):
        # At p = 3 the gamma series has denominators, so the Todd pass scales.
        e8 = parse_type("E8")
        want = tuple(exponent_power_sums(exponents(e8), 200))
        assert powersum_todd_upto(e8, 200, p) == want

    def test_dihedral_todd_route_at_depth(self):
        t = parse_type("I2(17)")
        assert powersum_todd(t, 150, 2).value == powersum_direct(t, 150).value

    def test_values_are_nonnegative_integers(self):
        for t in catalog(6, 10):
            for n in range(7):
                for res in (
                    powersum_direct(t, n),
                    powersum_todd(t, n, 2),
                    heightsum_direct(t, n),
                ):
                    assert res.value.denominator == 1
                    assert res.value >= 0

    def test_simply_laced_height_sum(self):
        for t in catalog(8, 3):
            if t.family not in ("A", "D", "E"):
                continue
            ps = parameters(t)
            assert ps.gamma == ps.h * ps.h, t.name
            want = F(ps.r * (ps.h * ps.h + ps.h), 6)
            assert heightsum_direct(t, 1).value == want, t.name


# Types whose table leaves beta free: the A, C/B, G2, H2, H3 and I2 families.
FREE_BETA_TYPES = (
    "A1", "A2", "A4", "C2", "C3", "C5", "G2", "H2", "H3", "I2(7)", "I2(10)",
)


@settings(max_examples=64, deadline=None)
@given(
    st.sampled_from(FREE_BETA_TYPES),
    st.fractions(min_value=0, max_value=40, max_denominator=12).filter(bool),
    st.sampled_from((1, 2)),
)
def test_property_todd_equals_direct_for_any_free_beta(label, beta, p):
    t = parse_type(label)
    got = powersum_todd_upto(t, 10, p, parameters(t, beta=beta))
    assert got == tuple(powersum_direct(t, n).value for n in range(11))


def _r45(ps):
    h, g = ps.h, ps.gamma
    s, q = ps.alpha + ps.beta, ps.alpha * ps.beta
    return (h * h - g - h + 2) * ((h - 2 + s) * s - q) + (h - 2) * (h - 2 + s) * q


def ladder_powersum(ps, n):
    """The printed closed forms of sum(m_i**n) in (r, h, gamma, alpha, beta), n <= 5."""
    r, h, g = ps.r, ps.h, ps.gamma
    return [
        lambda: F(r),
        lambda: F(r * h, 2),
        lambda: F(r, 6) * (h * h + g - h),
        lambda: F(r, 4) * h * (g - h),
        lambda: F(r, 30) * (
            -(h**4) + 5 * h * h * g + 2 * g * g - 7 * h**3 - 2 * h * g
            + 4 * h * h - 2 * g - 2 * h + 2 + _r45(ps)
        ),
        lambda: F(r, 12) * h * (
            2 * g * g - 2 * h**3 - 2 * h * g + 4 * h * h - 2 * g - 2 * h + 2 + _r45(ps)
        ),
    ][n]()


def ladder_heightsum(ps, n):
    """The printed closed forms of the height power sums, n <= 4."""
    r, h, g = ps.r, ps.h, ps.gamma
    return [
        lambda: F(r * h, 2),
        lambda: F(r, 12) * (h * h + g + 2 * h),
        lambda: F(r, 12) * (h + 1) * g,
        lambda: F(r, 120) * (
            -(h**4) + 5 * h * h * g + 2 * g * g - 7 * h**3 + 13 * h * g
            - 6 * h * h + 3 * g - 7 * h + 2 + _r45(ps)
        ),
        lambda: F(r, 60) * (h + 1) * (
            2 * g * g - 3 * h**3 + 3 * h * g - 2 * g - 3 * h + 2 + _r45(ps)
        ),
    ][n]()


def _sweep_parameter_sets(max_rank, max_m):
    for t in catalog(max_rank, max_m):
        for profile, ps in profile_parameters(t):
            yield t, profile, ps


# One beta override per family whose table leaves beta free.
BETA_OVERRIDES = (
    ("A3", 7), ("C4", F(5, 3)), ("G2", F(9, 2)), ("H2", 3), ("H3", F(11, 4)), ("I2(9)", F(5, 2)),
)


def _with_overrides(max_rank, max_m):
    yield from _sweep_parameter_sets(max_rank, max_m)
    for label, beta in BETA_OVERRIDES:
        t = parse_type(label)
        yield t, f"beta={beta}", parameters(t, beta=beta)


class TestClosedRoute:
    """closed_power_sums reads (h, r, alpha, beta) and gives S_n at every n."""

    def test_equals_the_printed_ladders(self):
        for t, profile, ps in _with_overrides(12, 30):
            sums = closed_power_sums(ps, 6)
            for n in range(6):
                assert sums[n] == ladder_powersum(ps, n), (t.name, profile, n)
                assert powersum_closed(t, n, params=ps).value == sums[n], (t.name, profile, n)
            for n in range(5):
                want = ladder_heightsum(ps, n)
                assert heightsum_closed(t, n, params=ps).value == want, (t.name, profile, n)

    def test_equals_direct_on_the_desk_sweep_to_degree_40(self):
        for t, profile, ps in _with_overrides(12, 30):
            want = exponent_power_sums(exponents(t), 40)
            assert closed_power_sums(ps, 40) == want, (t.name, profile)

    def test_equals_direct_on_the_wide_sweep_to_degree_12(self):
        for t, profile, ps in _sweep_parameter_sets(120, 600):
            want = exponent_power_sums(exponents(t), 12)
            assert closed_power_sums(ps, 12) == want, (t.name, profile)

    def test_deep_e8(self):
        e8 = parse_type("E8")
        assert closed_power_sums(parameters(e8), 300) == exponent_power_sums(exponents(e8), 300)

    def test_never_reads_gamma(self):
        ps = parameters(parse_type("E8"))
        assert closed_power_sums(corrupt(ps, gamma=901, V_plus=()), 12) == closed_power_sums(ps, 12)

    def test_corrupt_alpha_is_caught(self):
        e8 = parse_type("E8")
        ps = corrupt(parameters(e8), alpha=F(13, 2))
        want = exponent_power_sums(exponents(e8), 12)
        with pytest.raises(InternalMismatch, match="closed route: S_"):
            closed_power_sums(ps, 12)
        assert closed_power_sums(corrupt(ps, alpha=F(4)), 12)[2] == 2472 != want[2]
        assert list(powersum_todd_upto(e8, 12, 1, ps)) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_power_sums(parameters(parse_type("A2")), -1)
        assert closed_power_sums(parameters(parse_type("F4")), 0) == [4]


@settings(max_examples=64, deadline=None)
@given(
    st.sampled_from(FREE_BETA_TYPES),
    st.fractions(min_value=0, max_value=40, max_denominator=12).filter(bool),
)
def test_property_closed_equals_direct_for_any_free_beta(label, beta):
    t = parse_type(label)
    got = closed_power_sums(parameters(t, beta=beta), 12)
    assert got == exponent_power_sums(exponents(t), 12)
