"""Classification data: parsing, exponents, parameter tables, catalog."""

import tracemalloc
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from coxsums import (
    PROFILES,
    CoxeterType,
    ExponentList,
    applicable_profiles,
    catalog,
    dual_partition,
    exponents,
    parameters,
    parse_type,
)
from coxsums.catalog import (
    _ARBITRARY_BETA,
    _EXCEPTIONAL,
    DualPartition,
    ParameterSet,
    _profile_for,
    brief,
    gamma_invariant,
    profile_parameters,
)
from coxsums.errors import InternalMismatch, ParseError, ProfileMismatch, RangeError


class TestParse:
    @pytest.mark.parametrize(
        "text,family,index",
        [
            ("E8", "E", 8),
            ("e8", "E", 8),
            ("I2(7)", "I2", 7),
            ("i2(7)", "I2", 7),
            ("A1", "A", 1),
            ("b3", "C", 3),
            ("H4", "H", 4),
            (" F4 ", "F", 4),
        ],
    )
    def test_accepts(self, text, family, index):
        t = parse_type(text)
        assert (t.family, t.index) == (family, index)

    @pytest.mark.parametrize("text", ["", "X", "8E", "I2", "I2()", "A", "I3", "Z5"])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_type(text)

    @pytest.mark.parametrize(
        "text", ["D3", "E9", "E5", "I2(2)", "A0", "B1", "F5", "G3", "H5", "H1"]
    )
    def test_range_errors(self, text):
        with pytest.raises(RangeError):
            parse_type(text)

    @pytest.mark.parametrize(
        "family, index, label",
        [
            ("I2", 0, "I2(0)"),
            ("I2", 1, "I2(1)"),
            ("I2", 2, "I2(2)"),
            ("D", 3, "D3"),
            ("A", 0, "A0"),
            ("B", 1, "B1"),
        ],
    )
    def test_range_error_names_the_type(self, family, index, label):
        with pytest.raises(RangeError) as info:
            CoxeterType(family, index)
        assert str(info.value) == f"{label} is outside the classification"


class TestNormalize:
    def test_b_to_c(self):
        t = parse_type("B5")
        assert (t.family, t.index) == ("C", 5)
        assert t.name == "C5/B5"

    @pytest.mark.parametrize(
        "text,name",
        [
            ("I2(3)", "A2"),
            ("I2(4)", "C2/B2"),
            ("I2(5)", "H2"),
            ("I2(6)", "G2"),
            ("I2(7)", "I2(7)"),
            ("E7", "E7"),
        ],
    )
    def test_aliases(self, text, name):
        assert parse_type(text).name == name


_ALIASED = [(f"B{n}", ("B", n), ("C", n)) for n in range(2, 13)] + [
    ("I2(3)", ("I2", 3), ("A", 2)),
    ("I2(4)", ("I2", 4), ("C", 2)),
    ("I2(5)", ("I2", 5), ("H", 2)),
    ("I2(6)", ("I2", 6), ("G", 2)),
]


class TestCanonicalForm:
    """A type is canonical once built: the raw label and its canonical type
    are one value, with one hash."""

    @pytest.mark.parametrize("label, raw, canonical", _ALIASED, ids=[a[0] for a in _ALIASED])
    def test_raw_equals_canonical(self, label, raw, canonical):
        t, want = CoxeterType(*raw), CoxeterType(*canonical)
        assert t == want and hash(t) == hash(want)
        assert (t.family, t.index) == canonical
        assert parse_type(label) == want and hash(parse_type(label)) == hash(want)

    @pytest.mark.parametrize("max_rank", [1, 12])
    def test_catalog_holds_canonical_types_only(self, max_rank):
        types = catalog(max_rank, 30)
        assert not [t for t in types if t.family == "B"]
        assert not [t for t in types if t.family == "I2" and t.index <= 6]


class TestIndexType:
    @pytest.mark.parametrize(
        "family, index, kind",
        [
            ("A", True, "bool"),
            ("A", False, "bool"),
            ("E", 8.0, "float"),
            ("A", 2.5, "float"),
            ("A", F(3), "Fraction"),
        ],
    )
    def test_non_int_index_is_refused(self, family, index, kind):
        with pytest.raises(TypeError) as info:
            CoxeterType(family, index)
        assert str(info.value) == f"type index must be an int, not {kind}"


class TestBrief:
    """brief writes a number of more than 20 digits, and a type with such an
    index, by the digit count; anything shorter as str() does."""

    def test_digit_count_at_every_power_of_ten(self):
        for k in [*range(1, 100), *range(100, 4400, 89), 4300, 4301, 8600]:
            for n in (10**k - 1, 10**k, 10**k + 1):
                digits = k + (n >= 10**k)
                assert brief(n) == (str(n) if digits <= 20 else f"<{digits} digits>"), k

    def test_short_values_as_str(self):
        for n in (0, 7, -5, 10**20 - 1, -(10**40)):
            assert brief(n) == str(n)
        for t in catalog(12, 30):
            assert brief(t) == t.name
        assert brief(parse_type("A" + "9" * 20)) == "A" + "9" * 20

    @pytest.mark.parametrize(
        "label, shown",
        [
            ("A{}", "A<21 digits>"),
            ("B{}", "C<21 digits>/B<21 digits>"),
            ("D{}", "D<21 digits>"),
            ("I2({})", "I2(<21 digits>)"),
        ],
    )
    def test_long_index_by_family_and_digit_count(self, label, shown):
        assert brief(parse_type(label.format(10**20))) == shown


class TestExponents:
    @pytest.mark.parametrize(
        "text,values",
        [
            ("A1", (1,)),
            ("A4", (1, 2, 3, 4)),
            ("C4", (1, 3, 5, 7)),
            ("D4", (1, 3, 3, 5)),
            ("D5", (1, 3, 4, 5, 7)),
            ("D7", (1, 3, 5, 6, 7, 9, 11)),
            ("E6", (1, 4, 5, 7, 8, 11)),
            ("E7", (1, 5, 7, 9, 11, 13, 17)),
            ("E8", (1, 7, 11, 13, 17, 19, 23, 29)),
            ("F4", (1, 5, 7, 11)),
            ("G2", (1, 5)),
            ("H2", (1, 4)),
            ("H3", (1, 5, 9)),
            ("H4", (1, 11, 19, 29)),
            ("I2(7)", (1, 6)),
        ],
    )
    def test_tables(self, text, values):
        assert exponents(parse_type(text)).values == values

    def test_invariants_over_catalog(self):
        for t in catalog(12, 30):
            el = exponents(t)
            h, r = t.coxeter_number, t.rank
            assert el.values[0] == 1
            assert el.values[-1] == h - 1
            assert el.rank == r
            assert all(
                el.values[i] + el.values[r - 1 - i] == h for i in range(r)
            ), t.name
            assert 2 * sum(el.values) == r * h

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentList((2, 1))
        with pytest.raises(ValueError):
            ExponentList((0, 1))
        with pytest.raises(ValueError):
            ExponentList(())


class TestDualPartition:
    @pytest.mark.parametrize(
        "text,counts",
        [
            ("G2", (2, 1, 1, 1, 1)),
            ("A2", (2, 1)),
            ("A1", (1,)),
            ("D4", (4, 3, 3, 1, 1)),
        ],
    )
    def test_examples(self, text, counts):
        assert dual_partition(exponents(parse_type(text))).counts == counts

    def test_large_dihedral(self):
        counts = dual_partition(exponents(CoxeterType("I2", 10**5))).counts
        assert counts == (2,) + (1,) * (10**5 - 2)

    def test_total_is_number_of_positive_roots(self):
        for t in catalog(10, 20):
            dp = dual_partition(exponents(t))
            assert 2 * sum(dp.counts) == t.rank * t.coxeter_number
            assert len(dp.counts) == t.coxeter_number - 1

    def test_validation_copies_no_counts(self):
        # The counts tuple is most of what the result keeps; a validation that
        # copied it (k[1:]) would double the peak.
        e = exponents(CoxeterType("I2", 10**6))
        tracemalloc.start()
        try:
            dp = dual_partition(e)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dp.counts) == 10**6 - 1
        assert peak <= 1.25 * kept


def test_exponent_list_validation_copies_nothing():
    values = tuple(range(1, 10**5))
    tracemalloc.start()
    try:
        ExponentList(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024  # a copy of the values would take 800 KB


def bisect_dual_partition(e):
    """The per-height form of dual_partition: k_j = r - #{m_i < j}, one
    bisect per height j = 1 .. h-1."""
    h, r = e.coxeter_number, e.rank
    return DualPartition(tuple(r - bisect_left(e.values, j) for j in range(1, h)))


class TestDualPartitionOracle:
    """dual_partition, built by runs of equal counts, equals the per-height form."""

    def test_catalog(self):
        for t in catalog(30, 300):
            e = exponents(t)
            assert dual_partition(e) == bisect_dual_partition(e), t.name

    @pytest.mark.parametrize("label", ["D4", "D6", "D8"])
    def test_repeated_exponent(self, label):
        e = exponents(parse_type(label))
        assert len(set(e.values)) < e.rank
        assert dual_partition(e) == bisect_dual_partition(e)

    def test_large_dihedral(self):
        e = exponents(CoxeterType("I2", 10**5))
        assert dual_partition(e) == bisect_dual_partition(e)


# One frozen row per line of the parameter table, at the pinned beta.
# Fields: r, h, gamma, d, nu, {A,B}, {alpha,beta}.
TABLE_ROWS = {
    "A1": (1, 2, 4, F(1), 1, {F(1)}, {F(1)}),
    "A5": (5, 6, 36, F(1), 5, {F(5)}, {F(1), F(5)}),
    "C5": (5, 10, 108, F(2), 3, {F(5), F(10)}, {F(2), F(5)}),
    "D7": (7, 12, 144, F(2), 3, {F(7), F(10)}, {F(2), F(5)}),
    "E6": (6, 12, 144, F(3), 0, {F(8), F(9)}, {F(3), F(4)}),
    "E7": (7, 18, 324, F(4), 0, {F(12), F(14)}, {F(4), F(6)}),
    "E8": (8, 30, 900, F(6), 0, {F(20), F(24)}, {F(6), F(10)}),
    "F4": (4, 12, 162, F(4), 0, {F(8), F(12)}, {F(4), F(6)}),
    "G2": (2, 6, 48, F(3), 0, {F(3), F(8)}, {F(3), F(4)}),
    "H2": (2, 5, 31, F(2), 1, {F(2), F(6)}, {F(2), F(3)}),
    "H3": (3, 10, 124, F(4), 0, {F(6), F(12)}, {F(4), F(6)}),
    "H4": (4, 30, 1116, F(10), 0, {F(20), F(36)}, {F(10), F(18)}),
    "I2(8)": (2, 8, 94, F(4), 0, {F(4), F(12)}, {F(4), F(6)}),
    "I2(9)": (2, 9, 123, F(9, 2), 0, {F(9, 2), F(14)}, {F(9, 2), F(7)}),
}


class TestParameters:
    @pytest.mark.parametrize("label", sorted(TABLE_ROWS))
    def test_frozen_table_rows(self, label):
        r, h, gamma, d, nu, v_plus, v_minus = TABLE_ROWS[label]
        ps = parameters(parse_type(label))
        assert ps.r == r
        assert ps.h == h
        assert ps.gamma == gamma
        assert ps.d == d
        assert ps.nu == nu
        assert set(ps.V_plus) == v_plus
        assert set(ps.V_minus) == v_minus
        assert {ps.A, ps.B} == v_plus
        assert {ps.alpha, ps.beta} <= v_minus

    def test_i2_7_redefined(self):
        ps = parameters(parse_type("I2(7)"), "redefined")
        assert (ps.r, ps.h, ps.gamma) == (2, 7, 69)
        assert ps.d == F(7, 2)
        assert ps.nu == 0
        assert set(ps.V_plus) == {F(10), F(7, 2)}
        assert set(ps.V_minus) == {F(5), F(7, 2)}
        assert ps.alpha == 5 and ps.beta == F(7, 2)

    def test_h2_profiles(self):
        original = parameters(parse_type("H2"), "standard")
        assert (original.d, original.nu, original.beta) == (F(2), 1, F(2))
        assert set(original.V_plus) == {F(2), F(6)}
        redefined = parameters(parse_type("H2"), "redefined")
        assert (redefined.d, redefined.nu, redefined.beta) == (F(5, 2), 0, F(5, 2))
        assert parameters(parse_type("H2"), "h2-original") == original
        assert parameters(parse_type("H2")) == original

    def test_default_profile_for_plain_i2_is_redefined(self):
        assert parameters(parse_type("I2(9)")) == parameters(
            parse_type("I2(9)"), "redefined"
        )
        assert parameters(parse_type("I2(9)"), "h2-original") == parameters(
            parse_type("I2(9)"), "redefined"
        )

    def test_standard_profile_rejected_for_odd_i2(self):
        with pytest.raises(ProfileMismatch):
            parameters(parse_type("I2(9)"), "standard")

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            parameters(parse_type("E8"), "bogus")

    def test_alpha_is_second_exponent_minus_one(self):
        for t in catalog(12, 30):
            ps = parameters(t)
            if t.rank >= 2:
                assert ps.alpha == exponents(t).values[1] - 1, t.name

    def test_multiset_laws_all_profiles(self):
        for t in catalog(12, 30):
            for prof in applicable_profiles(t):
                ps = parameters(t, prof)
                prod_plus = F(1)
                for v in ps.V_plus:
                    prod_plus *= v
                prod_minus = F(1)
                for v in ps.V_minus:
                    prod_minus *= v
                assert prod_plus == ps.r * prod_minus, (t.name, prof)
                assert len(ps.V_plus) == len(ps.V_minus) == 2

    def test_cancelled_multisets_are_positive_integers(self):
        from oracles import cancelled_by_counter

        for t in catalog(12, 30):
            for prof in applicable_profiles(t):
                plus, minus = cancelled_by_counter(parameters(t, prof))
                rest = plus + minus
                assert all(v.denominator == 1 and v > 0 for v in rest), (t.name, prof)

    def test_beta_override(self):
        ps = parameters(parse_type("A2"), beta=7)
        assert ps.beta == 7
        assert set(ps.V_minus) == {F(1), F(7)}
        assert set(ps.V_plus) == {F(2), F(7)}
        with pytest.raises(ValueError):
            parameters(parse_type("E8"), beta=11)
        with pytest.raises(ValueError):
            parameters(parse_type("A2"), beta=-1)

    def test_beta_is_free_exactly_where_the_table_leaves_it(self):
        """The table leaves beta free for A, B/C, G2, H2, H3 and I2; every other
        type refuses an override.  The families are written out here, not read
        from _ARBITRARY_BETA, so a change to that tuple fails this test."""
        for t in catalog(8, 12):
            outcome = _outcome(parameters, t, None, 3)
            if t.family in ("A", "C", "G", "I2") or t.name in ("H2", "H3"):
                assert not isinstance(outcome, Exception) and outcome.beta == 3, t.name
            else:
                assert repr(outcome) == repr(ValueError(f"beta is determined for type {t.name}"))


def _oracle_d_nu(t, concrete):
    f, n = t.family, t.index
    if f == "A":
        return F(1), 1 if n == 1 else n
    if f == "C":
        return F(2), n - 2
    if f == "D":
        return F(2), n - 4
    if f == "E":
        return F({6: 3, 7: 4, 8: 6}[n]), 0
    if f == "F":
        return F(4), 0
    if f == "G":
        return F(3), 0
    if f == "H":
        if n == 2:
            return (F(5, 2), 0) if concrete == "redefined" else (F(2), 1)
        return (F(4), 0) if n == 3 else (F(10), 0)
    return F(n, 2), 0


def _oracle_remove_one(values, x):
    out = list(values)
    out.remove(x)
    return out


def fraction_parameters(t, profile=None, beta=None):
    """parameters() computed on Fractions throughout, from the undoubled
    multisets V- = {d, 2d-2+nu}, V+ = {4d-4+d*nu, h-d-(d-1)*nu}."""
    concrete = _profile_for(t, profile)
    r = t.rank
    h = t.coxeter_number
    gamma = gamma_invariant(t)
    d, nu = _oracle_d_nu(t, concrete)
    v_minus = [d, 2 * d - 2 + nu]
    v_plus = [4 * d - 4 + d * nu, h - d - (d - 1) * nu]
    alpha = F(1) if r == 1 else F(exponents(t).values[1] - 1)
    if alpha not in v_minus:
        raise InternalMismatch(f"internal table error for {t.name}")
    pinned_beta = _oracle_remove_one(v_minus, alpha)[0]
    key = f"{t.family}{t.index}" if t.family == "H" else t.family
    if beta is not None:
        if key not in _ARBITRARY_BETA:
            raise ValueError(f"beta is determined for type {t.name}")
        beta_val = F(beta)
        if beta_val <= 0:
            raise ValueError("beta must be positive")
        a_fixed = _oracle_remove_one(v_plus, pinned_beta)[0]
        v_minus = [alpha, beta_val]
        v_plus = [a_fixed, beta_val]
    else:
        beta_val = pinned_beta
    vp = tuple(sorted(v_plus))
    vm = tuple(sorted(v_minus))
    return ParameterSet(r, h, gamma, d, nu, alpha, beta_val, vp[0], vp[1], vp, vm)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return e


FIELD_TYPES = {
    "r": int, "h": int, "gamma": int, "nu": int,
    "d": F, "alpha": F, "beta": F, "A": F, "B": F, "V_plus": tuple, "V_minus": tuple,
}


class TestParametersOracle:
    """parameters(), built on doubled integers, equals the Fraction oracle."""

    def test_every_profile_and_beta(self):
        seen = set()
        for t in catalog(40, 200):
            for profile in (None, *PROFILES):
                for beta in (None, 1, F(7, 2), 3):
                    want = _outcome(fraction_parameters, t, profile, beta)
                    got = _outcome(parameters, t, profile, beta)
                    case = (t.name, profile, beta)
                    assert type(got) is type(want), case
                    if isinstance(want, Exception):
                        assert str(got) == str(want), case
                        seen.add(type(want).__name__)
                        continue
                    seen.add("ok")
                    assert got == want, case
                    for name, kind in FIELD_TYPES.items():
                        assert type(getattr(got, name)) is kind, (case, name)
                    for v in got.V_plus + got.V_minus:
                        assert type(v) is F, case
        assert seen == {"ok", "ProfileMismatch", "ValueError"}

    def test_no_exponent_list_is_built(self, monkeypatch):
        """parameters reads m_2 in O(1), so a type of huge rank has parameters."""
        import sys

        catalog_module = sys.modules["coxsums.catalog"]

        def outcomes():
            return [
                repr(_outcome(parameters, t, profile, beta))
                for t in catalog(12, 30)
                for profile in (None, *PROFILES)
                for beta in (None, 3)
            ]

        want, calls = outcomes(), []
        real = catalog_module.exponents

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(catalog_module, "exponents", counting)
        assert outcomes() == want
        huge = (("A99999999999999999999", 1), ("I2(99999999999999999999)", 10**20 - 3))
        for label, alpha in huge:
            ps = parameters(parse_type(label))
            assert ps.alpha == alpha and ps.h == parse_type(label).coxeter_number, label
        assert calls == []

    @pytest.mark.parametrize(
        "label, profile, beta, message",
        [
            ("I2(9)", "standard", None, "I2(9) has no standard parameter row; use profile 'redefined'"),
            ("E8", None, 11, "beta is determined for type E8"),
            ("D5", "redefined", F(7, 2), "beta is determined for type D5"),
            ("A2", None, -1, "beta must be positive"),
            ("I2(8)", "h2-original", 0, "beta must be positive"),
            ("E8", "bogus", None, "unknown profile 'bogus'; choose from "
             "('standard', 'redefined', 'h2-original')"),
        ],
    )
    def test_errors_match(self, label, profile, beta, message):
        t = parse_type(label)
        want = _outcome(fraction_parameters, t, profile, beta)
        got = _outcome(parameters, t, profile, beta)
        assert type(got) is type(want) and isinstance(got, Exception)
        assert str(got) == str(want) == message


class TestCatalog:
    def test_minimal(self):
        names = [t.name for t in catalog(1, 3)]
        assert names == ["A1", "A2"]

    def test_rank_four(self):
        names = [t.name for t in catalog(4, 6)]
        for expected in ("D4", "F4", "H4"):
            assert expected in names
        assert "E6" not in names

    def test_desk_scale_no_duplicates(self):
        types = catalog(12, 30)
        assert len(types) == len(set(types)) == 64
        names = [t.name for t in types]
        assert names[:3] == ["A1", "A2", "A3"]
        assert "I2(30)" in names and "I2(6)" not in names
        wide = catalog(300, 300)
        assert len(wide) == len(set(wide)) == 1198
        families = ["A", "C", "D", "E", "F", "G", "H", "I2"]
        assert wide == sorted(wide, key=lambda t: (families.index(t.family), t.index))

    def test_deterministic(self):
        assert catalog(9, 17) == catalog(9, 17)

    def test_exceptional_types_in_table_order(self):
        exceptional = [t for t in catalog(8, 6) if t.family in ("E", "F", "G", "H")]
        assert [(t.family, t.index) for t in exceptional] == list(_EXCEPTIONAL)
        names = [t.name for t in exceptional]
        assert names == ["E6", "E7", "E8", "F4", "G2", "H2", "H3", "H4"]

    def test_validation(self):
        with pytest.raises(ValueError):
            catalog(0, 5)
        with pytest.raises(ValueError):
            catalog(3, 2)


class TestApplicableProfiles:
    def test_h2_has_both(self):
        assert applicable_profiles(parse_type("H2")) == ("standard", "redefined")

    def test_odd_i2_only_redefined(self):
        assert applicable_profiles(parse_type("I2(9)")) == ("redefined",)

    def test_even_i2_single(self):
        assert applicable_profiles(parse_type("I2(8)")) == ("standard",)

    def test_named_types_single(self):
        assert applicable_profiles(parse_type("E8")) == ("standard",)

    def test_sets_match_parameters_and_dedupe_by_value(self):
        for t in catalog(12, 30) + [CoxeterType("B", 3), CoxeterType("I2", 6)]:
            pairs = profile_parameters(t)
            assert tuple(prof for prof, _ in pairs) == applicable_profiles(t)
            assert all(ps == parameters(t, prof) for prof, ps in pairs), t.name
            sets = [ps for _, ps in pairs]
            assert all(a != b for i, a in enumerate(sets) for b in sets[i + 1 :]), t.name

    @pytest.mark.parametrize(
        "label, builds", [("E8", 1), ("B3", 1), ("I2(8)", 1), ("I2(9)", 1), ("H2", 2)]
    )
    def test_each_concrete_profile_built_once(self, monkeypatch, label, builds):
        import sys

        catalog_module = sys.modules["coxsums.catalog"]
        calls = []
        real = catalog_module.parameters
        monkeypatch.setattr(
            catalog_module, "parameters", lambda *args: calls.append(args) or real(*args)
        )
        profile_parameters(parse_type(label))
        assert len(calls) == builds


def test_coxeter_numbers():
    cases = {
        "A7": 8, "C6": 12, "D9": 16, "E6": 12, "E7": 18, "E8": 30,
        "F4": 12, "G2": 6, "H2": 5, "H3": 10, "H4": 30, "I2(11)": 11,
    }
    for label, h in cases.items():
        assert parse_type(label).coxeter_number == h


def test_crystallographic_flag():
    assert parse_type("E8").is_crystallographic
    assert parse_type("I2(6)").is_crystallographic
    assert not parse_type("H3").is_crystallographic
    assert not parse_type("I2(7)").is_crystallographic


@pytest.mark.parametrize("m", range(3, 31))
def test_dihedral_crystallographic_flag(m):
    """I2(m) is crystallographic exactly for m = 3, 4, 6, built or parsed."""
    built, parsed = CoxeterType("I2", m), parse_type(f"I2({m})")
    assert built.is_crystallographic == parsed.is_crystallographic == (m in (3, 4, 6))
