"""CLI behavior: formats, exit codes, determinism."""

import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsums import PowerSumResult, parse_type
from coxsums.cli import main
from coxsums.verify import SUITE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal(n: int) -> str:
    """str(n) with no limit on the number of digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestInfo:
    def test_e8_json(self, capsys):
        code, out, _ = run(capsys, "info", "E8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "E8"
        assert payload["r"] == 8
        assert payload["h"] == 30
        assert payload["gamma"] == 900
        assert payload["d"] == 6
        assert payload["nu"] == 0
        assert payload["V_plus"] == [20, 24]
        assert payload["V_minus"] == [6, 10]
        assert payload["exponents"] == [1, 7, 11, 13, 17, 19, 23, 29]

    def test_i2_9_redefined_half_integer(self, capsys):
        code, out, _ = run(
            capsys, "info", "I2(9)", "--profile", "redefined", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == "9/2"
        assert payload["beta"] == "9/2"

    def test_beta_override(self, capsys):
        code, out, _ = run(capsys, "info", "A2", "--beta", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["beta"] == 7
        assert payload["V_minus"] == [1, 7]
        assert payload["V_plus"] == [2, 7]

    def test_beta_override_rejected_for_fixed_slot(self, capsys):
        code, _, err = run(capsys, "info", "E8", "--beta", "11")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("beta, shown", [("7/2", "7/2"), ("1e3", 1000)])
    def test_rational_beta_forms(self, capsys, beta, shown):
        code, out, _ = run(capsys, "info", "A2", "--beta", beta, "--format", "json")
        assert code == 0
        assert json.loads(out)["beta"] == shown

    @pytest.mark.parametrize("beta", ["1e999999999", "1e-999999999"])
    def test_huge_beta_exponent_is_refused_before_parsing(self, capsys, beta):
        start = time.perf_counter()
        code, out, err = run(capsys, "info", "A2", "--beta", beta)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err.startswith(f"error: bad rational {beta!r}")

    def test_beta_beyond_4300_digits_renders(self, capsys):
        code, out, err = run(capsys, "info", "A1", "--beta", "1e4300")
        assert code == 0 and not err
        assert f"beta: {decimal(10**4300)}" in out.splitlines()

    def test_out_of_range_type(self, capsys):
        code, _, err = run(capsys, "info", "E9")
        assert code == 2 and err

    def test_unparseable_type(self, capsys):
        code, _, err = run(capsys, "info", "wat")
        assert code == 2 and err

    @pytest.mark.parametrize(
        "label, name", [("I2(0)", "I2(0)"), ("I2(1)", "I2(1)"), ("I2(2)", "I2(2)"), ("D3", "D3")]
    )
    def test_out_of_range_type_is_named(self, capsys, label, name):
        code, out, err = run(capsys, "info", label)
        assert code == 2 and not out
        assert err == f"error: {name} is outside the classification\n"

    def test_normalizes_label(self, capsys):
        code, out, _ = run(capsys, "info", "B5", "--format", "json")
        assert code == 0
        assert json.loads(out)["type"] == "C5/B5"


class TestExponents:
    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "exponents", "G2")
        assert code == 0
        assert "exponents: 1 5" in out
        assert "dual_partition: 2 1 1 1 1" in out


class TestPowersum:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "powersum", "E8", "-n", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["method"] for row in rows] == ["direct", "todd", "closed"]
        assert all(row["value"] == 2360 for row in rows)

    def test_second_call_gets_fresh_defaults(self, capsys):
        run(capsys, "powersum", "E8", "-n", "2", "--format", "json")
        code, out, _ = run(capsys, "powersum", "E8", "-n", "2")
        assert code == 0
        assert out.splitlines()[0].split() == ["type", "n", "method", "p", "value"]

    def test_closed_method(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "A2", "-n", "5", "--method", "closed", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)[0]["value"] == 33

    def test_zeroth_power(self, capsys):
        code, out, _ = run(capsys, "powersum", "F4", "-n", "0", "--format", "json")
        assert code == 0
        assert all(row["value"] == 4 for row in json.loads(out))

    def test_closed_method_beyond_degree_five(self, capsys):
        code, out, err = run(capsys, "powersum", "A2", "-n", "6", "--method", "closed")
        assert code == 0 and not err
        assert out.split()[-1] == str(1 + 2**6)

    def test_all_keeps_closed_beyond_degree_five(self, capsys):
        code, out, _ = run(capsys, "powersum", "A2", "-n", "7", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["method"] for row in rows] == ["direct", "todd", "closed"]
        assert all(row["value"] == 1 + 2**7 for row in rows)

    def test_all_routes_agree_on_a_dihedral_beta_override(self, capsys):
        code, out, err = run(
            capsys, "powersum", "I2(9)", "-n", "40", "--profile", "redefined",
            "--beta", "5/2", "--format", "json",
        )
        assert code == 0 and not err
        rows = json.loads(out)
        assert [row["method"] for row in rows] == ["direct", "todd", "closed"]
        assert all(row["value"] == 1 + 8**40 for row in rows)

    def test_bad_p(self, capsys):
        code, _, err = run(capsys, "powersum", "A2", "-n", "2", "--p", "0")
        assert code == 2 and err

    def test_value_beyond_4300_digits_renders(self, capsys):
        code, out, err = run(capsys, "powersum", "E8", "-n", "20000", "--method", "direct")
        assert code == 0 and not err
        expected = sum(m**20000 for m in (1, 7, 11, 13, 17, 19, 23, 29))
        assert out.split()[-1] == decimal(expected)

    def test_value_beyond_output_bound_is_refused_quickly(self, capsys):
        # E8 at n >= 83048 is refused before any work (29**n >= 2**(4n) has more
        # than 332192 bits); at n = 83047 the rendered value is refused.
        for n in ("83047", "83048", "100000", "5000000"):
            start = time.perf_counter()
            code, out, err = run(capsys, "powersum", "E8", "-n", n, "--method", "direct")
            assert time.perf_counter() - start < 1, n
            assert code == 2 and not out, n
            assert err == "error: a value exceeds the output bound of 100000 digits\n", n

    def test_a1_renders_at_any_n(self, capsys):
        code, out, err = run(capsys, "powersum", "A1", "-n", "5000000", "--method", "direct")
        assert code == 0 and not err
        assert out.split()[-1] == "1"

    @pytest.mark.parametrize("n", ["20000", "100000"])
    def test_digit_limit_restored(self, capsys, n):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run(capsys, "powersum", "E8", "-n", n, "--method", "direct")
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["-n", "5000"],
                "error: the todd method needs n <= 1000 (use --method direct for larger n)\n",
            ),
            (["-n", "1001", "--method", "todd"], "error: the todd method needs n <= 1000\n"),
        ],
    )
    def test_deep_todd_route_is_refused_quickly(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "powersum", "E8", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == message

    def test_todd_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        monkeypatch.setattr(cli_module, "_MAX_TODD_N", 10)
        s10 = sum(m**10 for m in (1, 7, 11, 13, 17, 19, 23, 29))
        for method in ("todd", "all"):
            code, out, _ = run(capsys, "powersum", "E8", "-n", "10", "--method", method)
            assert code == 0 and out.split()[-1] == str(s10)
            code, _, err = run(capsys, "powersum", "E8", "-n", "11", "--method", method)
            assert code == 2 and err.startswith("error: the todd method needs n <= 10")
        code, out, _ = run(capsys, "powersum", "E8", "-n", "10", "--method", "closed")
        assert code == 0 and out.split()[-1] == str(s10)
        code, _, err = run(capsys, "powersum", "E8", "-n", "11", "--method", "closed")
        assert code == 2 and err == "error: the closed method needs n <= 10\n"
        code, _, _ = run(capsys, "powersum", "E8", "-n", "11", "--method", "direct")
        assert code == 0

    def test_distinct_betas_keep_caches_bounded(self, capsys):
        from coxsums import todd

        for k in range(1, 601):
            code, _, _ = run(
                capsys, "powersum", "A2", "-n", "2", "--method", "todd", "--beta", f"{k}/7"
            )
            assert code == 0
        for cached in (todd.gamma_series, todd.p_factor):
            assert cached.cache_info().currsize <= todd._CACHE_SIZE

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        import coxsums.powersums as powersums_module

        def fake(t, n, p=1, params=None):
            return PowerSumResult(parse_type("E8"), n, 999, "todd")

        monkeypatch.setattr(powersums_module, "powersum_todd", fake)
        code, _, err = run(capsys, "powersum", "E8", "-n", "2")
        assert code == 1
        assert "disagree" in err

    @pytest.mark.parametrize("route", ["direct", "closed"])
    def test_route_disagreement_exits_one(self, capsys, monkeypatch, route):
        import dataclasses

        import coxsums.powersums as powersums_module

        real = getattr(powersums_module, f"powersum_{route}")

        def shifted(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setattr(powersums_module, f"powersum_{route}", shifted)
        code, out, err = run(capsys, "powersum", "E8", "-n", "2", "--format", "json")
        assert code == 1
        s2 = sum(m * m for m in (1, 7, 11, 13, 17, 19, 23, 29))
        assert [(row["method"], row["value"]) for row in json.loads(out)] == [
            (m, s2 + (m == route)) for m in ("direct", "todd", "closed")
        ]
        assert err == "error: methods disagree\n"

    def test_equal_values_of_different_types_agree(self, capsys, monkeypatch):
        import dataclasses

        import coxsums.powersums as powersums_module

        code, want, _ = run(capsys, "powersum", "E8", "-n", "3", "--method", "all")
        real = powersums_module.powersum_closed

        def as_fraction(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, value=Fraction(result.value))

        monkeypatch.setattr(powersums_module, "powersum_closed", as_fraction)
        assert run(capsys, "powersum", "E8", "-n", "3", "--method", "all") == (0, want, "")


class TestHeights:
    def test_a2(self, capsys):
        code, out, _ = run(capsys, "heights", "A2", "-n", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(row["value"] == 6 for row in rows)
        assert all(row["note"] == "" for row in rows)

    def test_formal_label_for_noncrystallographic(self, capsys):
        code, out, _ = run(capsys, "heights", "H3", "-n", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(row["value"] == 61 for row in rows)
        assert all(row["note"] == "formal height sum" for row in rows)

    def test_closed_method_beyond_degree_four(self, capsys):
        code, out, err = run(capsys, "heights", "A2", "-n", "5", "--method", "closed")
        assert code == 0 and not err
        assert out.split()[-1] == str(2 + 2**5)

    def test_all_routes_agree_on_e8_at_degree_40(self, capsys):
        code, out, err = run(capsys, "heights", "E8", "-n", "40", "--format", "json")
        assert code == 0 and not err
        rows = json.loads(out)
        assert [row["method"] for row in rows] == ["direct", "closed"]
        assert rows[0]["value"] == rows[1]["value"]

    def test_route_disagreement_exits_one(self, capsys, monkeypatch):
        import dataclasses

        import coxsums.powersums as powersums_module

        real = powersums_module.dual_partition

        def shifted(exps):
            dual = real(exps)
            counts = (dual.counts[0] + 1,) + tuple(dual.counts[1:])
            return dataclasses.replace(dual, counts=counts)

        monkeypatch.setattr(powersums_module, "dual_partition", shifted)
        code, out, err = run(capsys, "heights", "A3", "-n", "2", "--format", "json")
        assert code == 1
        rows = json.loads(out)
        # Heights 1, 1, 1, 2, 2, 3 sum their squares to 20; the shift adds 1.
        assert [(row["method"], row["value"]) for row in rows] == [
            ("direct", 21),
            ("closed", 20),
        ]
        assert err == "error: methods disagree\n"

    def test_direct_route_at_the_degree_bound_on_a_large_rank(self, capsys):
        # h - 1 powers j**n: no power-sum table over the r exponents.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "heights", "A20000", "-n", "1000", "--method", "direct", "--format", "csv"
        )
        assert time.perf_counter() - start < 5
        assert code == 0 and not err
        assert out.splitlines()[1].startswith("A20000,1000,direct,")

    @pytest.mark.parametrize("method", ["direct", "all"])
    def test_deep_direct_route_is_refused_quickly(self, capsys, method):
        start = time.perf_counter()
        code, out, err = run(capsys, "heights", "E8", "-n", "1001", "--method", method)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == "error: the direct method needs n <= 1000\n"

    def test_direct_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        monkeypatch.setattr(cli_module, "_MAX_TODD_N", 10)
        for method in ("direct", "all"):
            code, out, _ = run(capsys, "heights", "A2", "-n", "10", "--method", method)
            assert code == 0 and out.split()[-1] == str(2**10 + 2)
            code, out, err = run(capsys, "heights", "A2", "-n", "11", "--method", method)
            assert code == 2 and not out
            assert err == "error: the direct method needs n <= 10\n"

    def test_closed_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        monkeypatch.setattr(cli_module, "_MAX_TODD_N", 10)
        code, out, _ = run(capsys, "heights", "A2", "-n", "10", "--method", "closed")
        assert code == 0 and out.split()[-1] == str(2**10 + 2)
        code, out, err = run(capsys, "heights", "A2", "-n", "11", "--method", "closed")
        assert code == 2 and not out
        assert err == "error: the closed method needs n <= 10\n"


class TestClosedBound:
    """The closed route runs at every n up to the Todd route's bound."""

    @pytest.mark.parametrize("command", ["powersum", "heights"])
    def test_deep_closed_route_is_refused_quickly(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "E8", "-n", "1001", "--method", "closed")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == "error: the closed method needs n <= 1000\n"


class TestOperandBound:
    """The Todd and closed routes refuse n * (bit length of p and the parameters) beyond a bound."""

    @staticmethod
    def message(method, bits, hint=""):
        return (
            f"error: the {method} method needs n * b <= 10000, where b = {bits} is the bit "
            "length of the largest of p and the parameters' numerators and denominators"
            f"{hint}\n"
        )

    @pytest.mark.parametrize(
        "argv, method, bits",
        [
            (["E8", "-n", "100", "--p", "9" * 2000, "--method", "todd"], "todd", 6644),
            (["E8", "-n", "200", "--p", "9" * 2000, "--method", "todd"], "todd", 6644),
            (["I2(7)", "-n", "400", "--beta", "1e4000", "--method", "closed"], "closed", 13288),
            (["I2(7)", "-n", "400", "--beta", "1e4000", "--method", "todd"], "todd", 13288),
        ],
    )
    def test_large_operands_are_refused_quickly(self, capsys, argv, method, bits):
        start = time.perf_counter()
        code, out, err = run(capsys, "powersum", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == self.message(method, bits)

    def test_all_names_the_todd_method_and_the_direct_way_out(self, capsys):
        code, out, err = run(capsys, "powersum", "I2(7)", "-n", "400", "--beta", "1e4000")
        assert code == 2 and not out
        assert err == self.message("todd", 13288, " (use --method direct)")
        code, out, _ = run(
            capsys, "powersum", "I2(7)", "-n", "400", "--beta", "1e4000", "--method", "direct"
        )
        assert code == 0 and out.split()[-1] == str(1 + 6**400)

    def test_heights_closed_route_is_bounded(self, capsys):
        argv = ("heights", "I2(7)", "-n", "400", "--beta", "1e4000")
        start = time.perf_counter()
        for method, hint in (("closed", ""), ("all", " (use --method direct)")):
            code, out, err = run(capsys, *argv, "--method", method)
            assert code == 2 and not out
            assert err == self.message("closed", 13288, hint)
        code, _, _ = run(capsys, *argv, "--method", "direct")
        assert code == 0
        assert time.perf_counter() - start < 5

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        # E8's largest parameter is h = 30, 5 bits, so n = 20 is exactly at 100.
        monkeypatch.setattr(cli_module, "_MAX_TODD_OPERAND_BITS", 100)
        s20 = sum(m**20 for m in (1, 7, 11, 13, 17, 19, 23, 29))
        for method in ("todd", "closed", "all"):
            code, out, _ = run(capsys, "powersum", "E8", "-n", "20", "--method", method)
            assert code == 0 and out.split()[-1] == str(s20)
            code, out, err = run(capsys, "powersum", "E8", "-n", "21", "--method", method)
            assert code == 2 and not out
            assert err.startswith("error: the ") and "n * b <= 100, where b = 5 " in err
        code, _, _ = run(capsys, "powersum", "E8", "-n", "20", "--method", "todd", "--p", "31")
        assert code == 0
        code, _, err = run(capsys, "powersum", "E8", "-n", "20", "--method", "todd", "--p", "32")
        assert code == 2 and "where b = 6 " in err
        code, _, _ = run(capsys, "powersum", "E8", "-n", "21", "--method", "direct")
        assert code == 0

    def test_e8_at_the_degree_bound_is_accepted(self):
        import argparse

        import coxsums.cli as cli_module
        from coxsums import parameters

        args = argparse.Namespace(n=cli_module._MAX_TODD_N, method="all")
        cli_module._check_operand_bits(args, "todd", parameters(parse_type("E8")))


class TestTable:
    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--all", "--max-rank", "8", "--max-m", "8",
            "--n-max", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "type,r,h,gamma,d,nu,alpha,beta,A,B,S0,S1,S2,S3"
        assert all("," in line for line in lines[1:])

    def test_json_a1(self, capsys):
        code, out, _ = run(
            capsys, "table", "--types", "A1", "--n-max", "1", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["type"] == "A1"
        assert row["r"] == 1
        assert row["h"] == 2
        assert row["gamma"] == 4
        assert row["S1"] == 1

    def test_latex_three_rows(self, capsys):
        code, out, _ = run(
            capsys, "table", "--types", "E6,E7,E8", "--format", "latex"
        )
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert out.count("\\\\") == 4  # header plus three data rows
        assert "20,24 & 6,10" in out

    def test_requires_selection(self, capsys):
        code, _, err = run(capsys, "table")
        assert code == 2 and err


def _rendered(fn, value):
    """fn(value), or the text of the CoxError it raises, with the digit limit
    lifted as OutputDocument.render lifts it."""
    from coxsums.cli import _MAX_OUTPUT_DIGITS
    from coxsums.errors import CoxError

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_MAX_OUTPUT_DIGITS)
    try:
        return fn(value)
    except CoxError as e:
        return ("CoxError", str(e))
    finally:
        sys.set_int_max_str_digits(limit)


class TestRenderedCell:
    """_rational reads numerator and denominator from the int or Fraction it is
    given, and agrees with the route through Fraction(value)."""

    def _both(self, value):
        from coxsums.cli import _rational
        from oracles import rational_via_fraction

        got, want = _rendered(_rational, value), _rendered(rational_via_fraction, value)
        assert got == want and type(got) is type(want), value
        return got

    @pytest.mark.parametrize("value", [0, 7, -7, True, False, 10**40, -(10**40)])
    def test_integers_render_as_plain_ints(self, value):
        got = self._both(value)
        assert got == int(value) and type(got) is int

    @pytest.mark.parametrize("value", ["6/3", "-7/2", "1/3", "-10/4"])
    def test_fractions(self, value):
        f = Fraction(value)
        got = self._both(f)
        assert got == (f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}")

    def test_bit_bound_on_each_path(self):
        from coxsums.cli import _MAX_OUTPUT_BITS as b

        message = ("CoxError", "a value exceeds the output bound of 100000 digits")
        for value in (2**b, -(2**b), Fraction(1, 2**b), Fraction(-(2**b), 3), Fraction(3, 2**b)):
            assert self._both(value) == message, value
        # Exactly _MAX_OUTPUT_BITS bits renders, in the numerator or the denominator.
        top = 2**b - 1
        assert self._both(top) == top and self._both(-top) == -top
        assert self._both(Fraction(1, top)) == f"1/{decimal(top)}"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.booleans(), st.integers(), st.fractions()))
    def test_matches_the_fraction_route(self, value):
        self._both(value)

    def test_text_keeps_a_string_cell(self):
        from coxsums.cli import _text

        cell = "I2(7)"
        assert _text(cell) is cell
        assert _text([1, "x", Fraction(1, 2)]) == "1 x 1/2"


class TestTableBound:
    """table refuses, before any work, cells whose lower-bound size exceeds a bound."""

    @staticmethod
    def message(bits):
        return (
            f"error: the table's power sums need at least {bits} bits, beyond the bound of "
            "20000000 (use fewer types or a smaller --n-max)\n"
        )

    @pytest.mark.parametrize(
        "argv, bits",
        [
            # E8: h - 1 = 29 has 5 bits, so cell n is at least 4 n + 1 bits.
            (["--types", "E8", "--n-max", "3162"], 2 * 3162**2 + 3 * 3162 + 1),
            (["--all", "--n-max", "453"], 20_081_101),
        ],
    )
    def test_large_tables_are_refused_quickly(self, capsys, argv, bits):
        start = time.perf_counter()
        code, out, err = run(capsys, "table", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == self.message(bits)

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        # E6 and E8: h - 1 = 11 and 29, 3 and 4 bits per degree; at n-max 2 that is
        # (1 + 3 + 1 + 6 + 1) + (1 + 4 + 1 + 8 + 1) = 27 bits.
        monkeypatch.setattr(cli_module, "_MAX_TABLE_BITS", 27)
        code, out, _ = run(capsys, "table", "--types", "E6,E8", "--n-max", "2", "--format", "csv")
        assert code == 0 and out.splitlines()[2].endswith(",8,120,2360")
        monkeypatch.setattr(cli_module, "_MAX_TABLE_BITS", 26)
        code, out, err = run(capsys, "table", "--types", "E6,E8", "--n-max", "2")
        assert code == 2 and not out
        assert "at least 27 bits, beyond the bound of 26 " in err
        # A1: every S_n is 1, one bit per cell.
        monkeypatch.setattr(cli_module, "_MAX_TABLE_BITS", 27)
        code, out, _ = run(capsys, "table", "--types", "A1", "--n-max", "26", "--format", "csv")
        assert code == 0 and out.splitlines()[1].endswith(",1" * 27)
        code, out, err = run(capsys, "table", "--types", "A1", "--n-max", "27")
        assert code == 2 and not out and "at least 28 bits" in err

    def test_catalog_wide_table_is_accepted(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "table", "--all", "--max-rank", "120", "--max-m", "600",
            "--n-max", "4", "--format", "csv",
        )
        assert time.perf_counter() - start < 10
        assert code == 0 and len(out.splitlines()) == 959


class TestLargeTable:
    def test_wide_table_of_one_type_is_fast(self, capsys):
        # 20000 exponents to degree 200: one multiply per exponent per degree.
        start = time.perf_counter()
        code, out, _ = run(capsys, "table", "--types", "A20000", "--n-max", "200", "--format", "csv")
        assert time.perf_counter() - start < 3
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "A20000" and len(row) == 1 + 9 + 201
        # S_0 = r, S_1 = r (r + 1) / 2, S_2 = r (r + 1) (2r + 1) / 6.
        assert row[10:13] == ["20000", "200010000", "2666866670000"]


class TestCatalogBound:
    """table --all and verify refuse, before any work, a catalog whose sum of
    r + h over its types exceeds a bound."""

    @staticmethod
    def message(max_rank, max_m, weight):
        return (
            f"error: the catalog of --max-rank {max_rank} --max-m {max_m} sums r + h to "
            f"{weight}, beyond the bound of 4000000 (use a smaller --max-rank or --max-m)\n"
        )

    def test_weight_is_the_catalog_sum(self):
        from coxsums.catalog import catalog
        from coxsums.cli import _catalog_weight

        for max_rank in range(1, 25):
            for max_m in range(3, 25):
                want = sum(t.rank + t.coxeter_number for t in catalog(max_rank, max_m))
                assert _catalog_weight(max_rank, max_m) == want, (max_rank, max_m)
        assert _catalog_weight(120, 600) == 239571

    @pytest.mark.parametrize(
        "argv, max_rank, max_m, weight",
        [
            (["table", "--all", "--max-rank", "30000", "--max-m", "3", "--n-max", "0"],
             30000, 3, 3600090144),
            (["table", "--all", "--max-rank", "1000", "--max-m", "3", "--n-max", "0"],
             1000, 3, 4003144),
            (["table", "--all", "--max-rank", "1", "--max-m", "10000000"], 1, 10000000, 50000024999996),
            (["verify", "--max-rank", "30000"], 30000, 30, 3600090636),
            (["verify", "--suite", "expsum", "--max-rank", "2", "--max-m", str(10**9)],
             2, 10**9, 500000002499999996),
        ],
    )
    def test_large_catalogs_are_refused_quickly(self, capsys, argv, max_rank, max_m, weight):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == self.message(max_rank, max_m, weight)

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        # A1, A2, C2/B2, G2, H2: (1 + 2) + (2 + 3) + (2 + 4) + (2 + 6) + (2 + 5) = 29.
        monkeypatch.setattr(cli_module, "_MAX_CATALOG_WEIGHT", 29)
        code, out, _ = run(capsys, "table", "--all", "--max-rank", "2", "--max-m", "4", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 6
        code, out, _ = run(capsys, "verify", "--suite", "expsum", "--max-rank", "2", "--max-m", "4")
        assert code == 0 and out.splitlines()[-1] == "all checks passed"
        monkeypatch.setattr(cli_module, "_MAX_CATALOG_WEIGHT", 28)
        for argv in (["table", "--all"], ["verify", "--suite", "expsum"]):
            code, out, err = run(capsys, *argv, "--max-rank", "2", "--max-m", "4")
            assert code == 2 and not out
            assert "sums r + h to 29, beyond the bound of 28 " in err

    def test_invalid_sizes_keep_their_message(self, capsys):
        code, out, err = run(capsys, "table", "--all", "--max-rank", "0", "--max-m", str(10**9))
        assert (code, out, err) == (2, "", "error: max_rank must be >= 1\n")
        code, out, err = run(capsys, "verify", "--max-rank", str(10**9), "--max-m", "2")
        assert (code, out, err) == (2, "", "error: max_m must be >= 3\n")

    def test_largest_accepted_rank(self, capsys):
        from coxsums.cli import _catalog_weight

        assert _catalog_weight(999, 3) <= 4_000_000 < _catalog_weight(1000, 3)
        start = time.perf_counter()
        code, out, _ = run(capsys, "table", "--all", "--max-rank", "999", "--max-m", "3", "--n-max", "0")
        assert time.perf_counter() - start < 10
        assert code == 0 and len(out.splitlines()) == 1 + 999 + 998 + 996 + 3 + 1 + 1 + 3


class TestDualPartitionBound:
    """info, exponents and the direct route of heights refuse, before any work,
    a type whose dual partition has more than a bound of h - 1 counts."""

    HUGE = "I2(99999999999999999999)"

    @staticmethod
    def message(name, counts, hint=""):
        return (
            f"error: the dual partition of {name} has h - 1 = {counts} counts, "
            f"beyond the bound of 1000000{hint}\n"
        )

    @pytest.mark.parametrize(
        "argv, name, counts, hint",
        [
            (["info", HUGE], HUGE, 99999999999999999998, ""),
            (["exponents", HUGE], HUGE, 99999999999999999998, ""),
            (["heights", HUGE, "-n", "2"], HUGE, 99999999999999999998, " (use --method closed)"),
            (["heights", HUGE, "-n", "2", "--method", "direct"], HUGE, 99999999999999999998,
             " (use --method closed)"),
            (["info", "I2(10000000)", "--format", "json"], "I2(10000000)", 9999999, ""),
            (["exponents", "I2(10000000000)"], "I2(10000000000)", 9999999999, ""),
            (["exponents", "A99999999999999999999"], "A99999999999999999999",
             99999999999999999999, ""),
            (["heights", "A10000000", "-n", "2"], "A10000000", 10000000, " (use --method closed)"),
        ],
    )
    def test_huge_types_are_refused_quickly(self, capsys, argv, name, counts, hint):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == self.message(name, counts, hint)

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        monkeypatch.setattr(cli_module, "_MAX_DUAL_PARTITION", 10)
        for argv in (["info", "I2(11)"], ["exponents", "I2(11)"], ["heights", "I2(11)", "-n", "2"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out, argv
        for argv in (["info", "I2(12)"], ["exponents", "I2(12)"], ["heights", "I2(12)", "-n", "2"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out, argv
            assert "has h - 1 = 11 counts, beyond the bound of 10" in err

    def test_catalog_is_accepted(self):
        from coxsums.catalog import catalog
        from coxsums.cli import _MAX_DUAL_PARTITION

        assert max(t.coxeter_number - 1 for t in catalog(120, 600)) <= _MAX_DUAL_PARTITION

    def test_routes_without_a_dual_partition_stay_unbounded(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "heights", self.HUGE, "-n", "2", "--method", "closed")
        assert code == 0 and not err
        assert "333333333333333333318333333333333333333550000000000000000000" in out
        code, out, err = run(capsys, "powersum", self.HUGE, "-n", "2")
        assert code == 0 and not err
        assert out.count("9999999999999999999600000000000000000005") == 3
        assert time.perf_counter() - start < 1


class TestHugeRank:
    """Types of huge rank or h end every command in a value or a refusal:
    parameters reads m_2 without the exponent list, and the routes that
    build the exponents refuse more than a bound of them."""

    N = 10**20 - 1
    TYPES = ("A99999999999999999999", "I2(99999999999999999999)")

    @pytest.mark.parametrize("label", TYPES)
    @pytest.mark.parametrize(
        "argv",
        [
            ["info"],
            ["exponents"],
            *(["powersum", "-n", "2", "--method", m] for m in ("direct", "todd", "closed", "all")),
            *(["heights", "-n", "2", "--method", m] for m in ("direct", "closed", "all")),
            ["table", "--types"],
        ],
        ids=" ".join,
    )
    def test_every_command_ends_quickly(self, capsys, argv, label):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv[:1], label, *argv[1:])
        assert time.perf_counter() - start < 1
        assert code in (0, 2)
        assert "internal error" not in err

    def test_closed_routes_print_their_values(self, capsys):
        n = self.N
        code, out, err = run(capsys, "powersum", self.TYPES[0], "-n", "2", "--method", "closed")
        assert code == 0 and not err
        assert out.split()[-1] == str(n * (n + 1) * (2 * n + 1) // 6)
        code, out, err = run(capsys, "heights", self.TYPES[0], "-n", "2", "--method", "closed")
        assert code == 0 and not err
        assert out.split()[-1] == str(n * (n + 1) ** 2 * (n + 2) // 12)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["powersum", "A99999999999999999999", "-n", "2", "--method", "direct"],
             "the direct method reads 99999999999999999999 exponents, beyond the bound of "
             "4000000 (use --method closed)"),
            (["powersum", "A99999999999999999999", "-n", "2"],
             "the direct method reads 99999999999999999999 exponents, beyond the bound of "
             "4000000 (use --method closed)"),
            (["table", "--types", "E8,A99999999999999999999", "--n-max", "0"],
             "the table reads <21 digits> exponents, beyond the bound of "
             "4000000 (use fewer or smaller types)"),
        ],
    )
    def test_exponent_lists_beyond_the_bound_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        import coxsums.cli as cli_module

        monkeypatch.setattr(cli_module, "_MAX_CATALOG_WEIGHT", 10)
        accepted = (["powersum", "A10", "-n", "2"], ["table", "--types", "A4,E6"])
        for argv in accepted:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out, argv
        for argv in (["powersum", "A11", "-n", "2"], ["table", "--types", "A5,E6"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out, argv
            assert "reads 11 exponents, beyond the bound of 10 " in err

    def test_existing_refusals_come_first(self, capsys):
        code, _, err = run(capsys, "table", "--types", "A99999999999999999999", "--n-max", "-1")
        assert (code, err) == (2, "error: n-max must be >= 0\n")
        code, _, err = run(
            capsys, "table", "--types", "A99999999999999999999,E8", "--beta", "3", "--n-max", "0"
        )
        assert (code, err) == (2, "error: beta is determined for type E8\n")
        code, _, err = run(capsys, "powersum", "A99999999999999999999", "-n", "2", "--p", "0")
        assert (code, err) == (2, "error: p must be >= 1\n")


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "expsum", "--max-rank", "3", "--max-m", "5"
        )
        assert code == 0
        assert "expsum A1 [standard]: PASS" in out
        assert "all checks passed" in out

    def test_default_output_is_pinned(self, capsys, monkeypatch):
        monkeypatch.delenv("COX_SEED", raising=False)
        code, out, err = run(capsys, "verify")
        assert code == 0 and not err
        assert out == (
            "verify: suites=all max-rank=12 max-m=30 n-max=12 seed=42\n"
            "expsum: PASS (65 checks)\n"
            "multiset: PASS (65 checks)\n"
            "gamma: PASS (65 checks)\n"
            "h-relation: PASS (65 checks)\n"
            "beta: PASS (65 checks)\n"
            "symmetry: PASS (64 checks)\n"
            "todd-symm: PASS (45 checks)\n"
            "kostant: PASS (12 checks)\n"
            "t-transform: PASS (4 checks)\n"
            "specializations: PASS (23 checks)\n"
            "gamma34: PASS (128 checks)\n"
            "methods: PASS (65 checks)\n"
            "all checks passed\n"
        )

    def test_a_selected_suite_with_no_checks_is_listed(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "kostant", "--max-rank", "3", "--seed", "42"
        )
        assert code == 0 and not err
        assert out == (
            "verify: suites=kostant max-rank=3 max-m=30 n-max=12 seed=42\n"
            "kostant: PASS (0 checks)\n"
            "all checks passed\n"
        )
        code, out, err = run(capsys, "verify", "--max-rank", "1", "--max-m", "3", "--seed", "42")
        assert code == 0 and not err
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[1:-1]] == list(SUITE_NAMES)
        assert "kostant: PASS (0 checks)" in lines
        assert lines[-1] == "all checks passed"

    def test_full_small_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-rank", "3", "--max-m", "4", "--n-max", "4"
        )
        assert code == 0
        for suite in ("expsum", "multiset", "gamma", "todd-symm", "methods"):
            assert f"{suite}: PASS" in out

    def test_jobs_do_not_change_output(self, capsys):
        _, solo, _ = run(
            capsys, "verify", "--max-rank", "3", "--max-m", "4", "--n-max", "3"
        )
        _, pooled, _ = run(
            capsys, "verify", "--max-rank", "3", "--max-m", "4", "--n-max", "3",
            "--jobs", "4",
        )
        assert solo == pooled

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "--suite", "todd-symm", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("COX_SEED", "7")
        _, out, _ = run(
            capsys, "verify", "--suite", "kostant", "--max-rank", "4", "--max-m", "3"
        )
        assert "seed=7" in out

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("COX_SEED", "7")
        _, out, _ = run(
            capsys, "verify", "--suite", "kostant", "--max-rank", "4", "--max-m", "3",
            "--seed", "9",
        )
        assert "seed=9" in out

    def test_seed_environment_ignored_by_other_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("COX_SEED", "abc")
        code, out, _ = run(capsys, "info", "E8")
        assert code == 0 and "type: E8" in out

    def test_bad_seed_environment_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COX_SEED", "abc")
        code, out, err = run(capsys, "verify", "--suite", "kostant")
        assert code == 2
        assert err.startswith("error: ") and "COX_SEED" in err
        assert out == ""

    @pytest.mark.parametrize("text", ["7" * 5000, "-" + "1" * 4301, " 9_" + "0" * 4400 + "\n"])
    def test_seed_environment_beyond_the_digit_limit_is_named_by_length(
        self, capsys, monkeypatch, text
    ):
        monkeypatch.setenv("COX_SEED", text)
        code, out, err = run(capsys, "verify", "--suite", "kostant")
        assert code == 2 and out == ""
        assert err == (
            f"error: COX_SEED of {len(text)} characters is an integer beyond the "
            "interpreter's 4300-digit limit\n"
        )

    def test_seed_environment_beyond_the_digit_limit_follows_the_echo_rule(
        self, capsys, monkeypatch
    ):
        import coxsums.cli as cli_module

        text = "7" * 5000
        monkeypatch.setenv("COX_SEED", text)
        monkeypatch.setattr(cli_module, "_MAX_ECHO_LABEL", len(text))
        code, _, err = run(capsys, "verify", "--suite", "kostant")
        assert code == 2
        assert err == (
            f"error: COX_SEED {text!r} is an integer beyond the interpreter's 4300-digit limit\n"
        )

    @pytest.mark.parametrize("text", ["abc", "7" * 4301 + "x", "1__0", "", "1" * 70 + " 1"])
    def test_seed_environment_that_is_no_integer_keeps_its_message(
        self, capsys, monkeypatch, text
    ):
        monkeypatch.setenv("COX_SEED", text)
        code, out, err = run(capsys, "verify", "--suite", "kostant")
        assert code == 2 and out == ""
        assert err == f"error: COX_SEED must be an integer, got {text!r}\n"

    def test_seed_flag_ignores_bad_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("COX_SEED", "abc")
        code, out, _ = run(
            capsys, "verify", "--suite", "kostant", "--max-rank", "4", "--max-m", "3",
            "--seed", "9",
        )
        assert code == 0 and "seed=9" in out

    def test_bad_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        import coxsums.verify as verify_module
        from coxsums.verify import CheckReport

        def broken(t, profile=None, params=None):
            return CheckReport("gamma", t.name, False, "injected fault")

        monkeypatch.setattr(verify_module, "check_gamma_formula", broken)
        code, out, _ = run(
            capsys, "verify", "--suite", "gamma", "--max-rank", "2", "--max-m", "3"
        )
        assert code == 1
        assert "FAIL" in out and "injected fault" in out

    def test_raising_check_is_a_failure_and_the_sweep_goes_on(self, capsys, monkeypatch):
        import coxsums.verify as verify_module

        def boom(t, profile=None, params=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify_module, "check_gamma_formula", boom)
        code, out, _ = run(
            capsys, "verify", "--max-rank", "2", "--max-m", "3", "--n-max", "2"
        )
        assert code == 1
        assert "gamma: FAIL (6/6 checks failed)" in out
        assert "  witness: A1 [standard]: raised RuntimeError('boom')" in out
        for later in ("h-relation", "methods"):
            assert f"{later}: PASS" in out
        assert out.splitlines()[-1] == "6 check(s) failed"

    @pytest.mark.parametrize(
        "suite, n_max, message",
        [("all", "0", ">= 1"), ("all", "-1", ">= 1"), ("methods", "-1", ">= 0")],
    )
    def test_bad_n_max_is_rejected_before_any_check(
        self, capsys, monkeypatch, suite, n_max, message
    ):
        import coxsums.verify as verify_module

        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify_module, "check_expsum", never)
        monkeypatch.setattr(verify_module, "check_methods", never)
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", n_max)
        assert code == 2
        assert err == f"error: n_max must be {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "methods", "--n-max", "1500", "--max-rank", "1", "--max-m", "3"],
            ["--suite", "specializations", "--n-max", "20000"],
            ["--n-max", "1001"],
        ],
    )
    def test_deep_n_max_is_refused_quickly(self, capsys, monkeypatch, argv):
        import coxsums.verify as verify_module

        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ("check_methods", "check_gamma_specializations", "check_expsum"):
            monkeypatch.setattr(verify_module, name, never)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == "error: n-max must be <= 1000\n"

    def test_n_max_bound_is_inclusive_and_only_for_suites_that_read_it(
        self, capsys, monkeypatch
    ):
        import coxsums.cli as cli_module

        monkeypatch.setattr(cli_module, "_MAX_TODD_N", 10)
        small = ("--max-rank", "2", "--max-m", "3")
        for suite in ("methods", "specializations"):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--n-max", "10", *small)
            assert code == 0 and out.endswith("all checks passed\n")
            code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "11", *small)
            assert code == 2 and not out and err == "error: n-max must be <= 10\n"
        code, out, _ = run(capsys, "verify", "--suite", "symmetry", "--n-max", "11", *small)
        assert code == 0 and "n-max=11" in out

    def test_deep_specializations_run_in_linear_time(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--suite", "specializations", "--n-max", "400")
        assert time.perf_counter() - start < 5
        assert code == 0 and out.endswith("specializations: PASS (23 checks)\nall checks passed\n")

    def test_specializations_at_n_max_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "specializations", "--n-max", "1")
        assert code == 0 and out.endswith("specializations: PASS (23 checks)\nall checks passed\n")

    def test_methods_alone_accepts_n_max_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "methods", "--max-rank", "3", "--max-m", "4",
            "--n-max", "0",
        )
        assert code == 0 and "all checks passed" in out


class TestOverLongIndex:
    """A label whose index has more digits than int() converts by default is
    refused by parse_type with its digit count; the digits are not echoed."""

    NINES = "9" * 5000
    ERROR = "error: type index has 5000 digits; the limit is 4300\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "A{}"),
            ("exponents", "E{}"),
            ("powersum", "I2({})", "-n", "2", "--method", "closed"),
            ("heights", "D{}", "-n", "2"),
            ("info", "C{}/B{}"),
            ("info", "A{}/C3"),
            ("table", "--types", "A3,B{}"),
        ],
        ids=["info", "exponents", "powersum-closed", "heights", "joint", "joint-half", "table"],
    )
    def test_refused_with_digit_count(self, capsys, argv):
        code, out, err = run(capsys, *(arg.replace("{}", self.NINES) for arg in argv))
        assert code == 2 and not out
        assert err == self.ERROR

    @pytest.mark.parametrize("limit, shown", [(1000, 1000), (0, 4300), (5000, 4300)])
    def test_interpreter_limit_caps_the_index(self, capsys, limit, shown):
        """A lower int-string limit (PYTHONINTMAXSTRDIGITS) lowers the refusal;
        none or a higher one leaves it at 4300."""
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run(capsys, "info", "A" + "9" * 4301)
            low = run(capsys, "info", "A" + "9" * 1001)
        finally:
            sys.set_int_max_str_digits(before)
        assert code == 2 and not out
        assert err == f"error: type index has 4301 digits; the limit is {shown}\n"
        refused = f"error: type index has 1001 digits; the limit is {shown}\n"
        assert (low[2] == refused) == (shown == 1000)

    def test_index_at_the_limit_reaches_the_size_bounds(self, capsys):
        label = f"I2({'9' * 4300})"
        code, out, err = run(capsys, "powersum", label, "-n", "2", "--method", "closed")
        assert code == 2 and not out
        assert err.startswith("error: the closed method needs n * b <= 10000")


class TestLongIndexEcho:
    """A refusal names an index, a count or a size of more than 20 digits by
    its digit count, so each is one short stderr line."""

    NINES = "9" * 2000
    ODD = "1" * 1999 + "3"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("info", "A{n}"), "the dual partition of A<2000 digits> has h - 1 = <2000 digits>"),
            (("exponents", "D{n}"), "the dual partition of D<2000 digits> has h - 1 = <2001 digits>"),
            (("heights", "A{n}", "-n", "2", "--method", "direct"), "the dual partition of A<2000"),
            (("info", "I2({odd})", "--profile", "standard"), "the dual partition of I2(<2000 digits>)"),
            (("info", "D{n}", "--beta", "3"), "the dual partition of D<2000 digits>"),
            (("powersum", "A{n}", "-n", "2", "--method", "direct"), "the direct method reads <2000"),
            (("table", "--types", "A{n}"), "the table reads <2000 digits> exponents"),
            (("info", "E{n}"), "E<2000 digits> is outside the classification"),
            (
                ("powersum", "I2({odd})", "-n", "2", "--profile", "standard", "--method", "closed"),
                "I2(<2000 digits>) has no standard parameter row",
            ),
            (
                ("powersum", "D{n}", "-n", "2", "--beta", "3", "--method", "closed"),
                "beta is determined for type D<2000 digits>",
            ),
            (
                ("table", "--all", "--max-rank", "{n}"),
                "the catalog of --max-rank <2000 digits> --max-m 30 sums r + h to <4001 digits>",
            ),
            (
                ("table", "--types", "A2", "--n-max", "{n}"),
                "the table's power sums need at least <4000 digits> bits",
            ),
            # h - 1 has one digit more than the 4300 that str() converts by default.
            (("info", "D" + "9" * 4300), "the dual partition of D<4300 digits> has h - 1 = <4301"),
        ],
    )
    def test_one_short_line(self, capsys, argv, error):
        argv = [arg.format(n=self.NINES, odd=self.ODD) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith(f"error: {error}")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    @pytest.mark.parametrize("label", ["Z{n}", "A{n}/D{n}", "I2({n})x", "A{n}/"])
    def test_long_malformed_label_is_named_by_its_length(self, capsys, label):
        label = label.format(n=self.NINES)
        code, out, err = run(capsys, "info", label)
        assert code == 2 and not out
        assert err == f"error: cannot parse a type label of {len(label)} characters\n"

    def test_malformed_label_up_to_the_echo_bound_is_echoed(self, capsys):
        label = "Z" + "9" * 63  # 64 characters
        code, out, err = run(capsys, "info", label)
        assert code == 2 and not out
        assert err == f"error: cannot parse type {label!r}\n"
        code, out, err = run(capsys, "info", label + "9")
        assert code == 2 and err == "error: cannot parse a type label of 65 characters\n"


# Every integer option, as (argv before the value, option name in the error).
INT_OPTIONS = [
    (("powersum", "A2", "-n"), "-n"),
    (("powersum", "A2", "-n", "2", "--p"), "--p"),
    (("heights", "A2", "-n"), "-n"),
    (("table", "--all", "--max-rank"), "--max-rank"),
    (("table", "--all", "--max-m"), "--max-m"),
    (("table", "--all", "--n-max"), "--n-max"),
    (("verify", "--max-rank"), "--max-rank"),
    (("verify", "--max-m"), "--max-m"),
    (("verify", "--n-max"), "--n-max"),
    (("verify", "--seed"), "--seed"),
    (("verify", "--jobs"), "--jobs"),
]


class TestIntOptions:
    """An integer option that int() refuses gets argparse's own text, with a
    value past 64 characters named by its length instead of echoed."""

    @pytest.mark.parametrize("argv, option", INT_OPTIONS)
    @pytest.mark.parametrize("text", ["x", "1.5", "", "9" * 63 + "x"])
    def test_short_value_is_echoed_as_argparse_does(self, capsys, argv, option, text):
        code, out, err = run(capsys, *argv, text)
        assert code == 2 and out == ""
        assert err.endswith(f": error: argument {option}: invalid int value: {text!r}\n")
        assert err.startswith("usage: cox ")

    @pytest.mark.parametrize("argv, option", INT_OPTIONS)
    @pytest.mark.parametrize("text", ["7" * 5000, "9" * 64 + "x", "1" * 4301])
    def test_long_value_is_named_by_its_length(self, capsys, argv, option, text):
        code, out, err = run(capsys, *argv, text)
        assert code == 2 and out == ""
        assert err.endswith(
            f": error: argument {option}: invalid int value of {len(text)} characters\n"
        )
        assert len(err.encode()) < 600

    def test_seed_of_5000_digits(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "kostant", "--seed", "7" * 5000)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            "cox verify: error: argument --seed: invalid int value of 5000 characters"
        )

    def test_valid_values_are_read_as_int_reads_them(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "kostant", "--max-rank", " 4 ", "--max-m", "3",
            "--seed", "1_0",
        )
        assert code == 0 and "max-rank=4 max-m=3 n-max=12 seed=10" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_negative_n(self, capsys):
        code, _, err = run(capsys, "powersum", "A2", "-n", "-1")
        assert code == 2 and err
