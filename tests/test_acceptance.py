"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is an exact integer or rational identity; there are no
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import dataclasses
import json
import time
from fractions import Fraction as F

from coxsums import (
    ExponentList,
    TruncatedSeries,
    applicable_profiles,
    catalog,
    exponents,
    faulhaber,
    heightsum_closed,
    heightsum_direct,
    parameters,
    parse_type,
    powersum_closed,
    powersum_direct,
    powersum_todd,
    todd_values,
)
from coxsums.cli import main as cli_main
from coxsums import todd as todd_module
from coxsums.mpoly import MPoly
from coxsums.todd import todd_polynomials
from coxsums.verify import (
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
)
from oracles import check_t_examples

SWEEP = catalog(12, 30)


def finish(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} [{label}]: {status}")
    assert not failures, failures[:5]


def test_criterion_1_main_theorem_sweep():
    failures = []
    start = time.monotonic()
    for t in SWEEP:
        for p in (1, 2, 3):
            for n in range(13):
                direct = powersum_direct(t, n).value
                todd = powersum_todd(t, n, p).value
                if direct != todd:
                    failures.append((t.name, n, p, direct, todd))
    elapsed = time.monotonic() - start
    print(f"criterion 1 sweep: {len(SWEEP)} types x 13 powers x 3 p in {elapsed:.1f}s")
    finish(1, "main theorem sweep", failures)


def test_criterion_2_cyclotomic_identity():
    failures = []
    for t in SWEEP:
        for prof in applicable_profiles(t):
            report = check_expsum(t, prof)
            if not report.passed:
                failures.append((t.name, prof, report.witness))
    names = {t.name for t in SWEEP}
    if "D4" not in names or "I2(7)" not in names:
        failures.append("sweep is missing the multiset/cancellation witnesses")
    finish(2, "cyclotomic identity", failures)


# The fourteen parameter-table rows, frozen: r, h, gamma, d, nu,
# {A,B}, alpha, beta.  H2 is its original d=2, nu=1 row (the default);
# plain I2 rows use the redefined profile (also the default).
TABLE = {
    "A1": (1, 2, 4, F(1), 1, {F(1)}, F(1), F(1)),
    "A5": (5, 6, 36, F(1), 5, {F(5)}, F(1), F(5)),
    "C5/B5": (5, 10, 108, F(2), 3, {F(10), F(5)}, F(2), F(5)),
    "D7": (7, 12, 144, F(2), 3, {F(7), F(10)}, F(2), F(5)),
    "E6": (6, 12, 144, F(3), 0, {F(8), F(9)}, F(3), F(4)),
    "E7": (7, 18, 324, F(4), 0, {F(12), F(14)}, F(4), F(6)),
    "E8": (8, 30, 900, F(6), 0, {F(20), F(24)}, F(6), F(10)),
    "F4": (4, 12, 162, F(4), 0, {F(8), F(12)}, F(4), F(6)),
    "G2": (2, 6, 48, F(3), 0, {F(8), F(3)}, F(4), F(3)),
    "H2": (2, 5, 31, F(2), 1, {F(6), F(2)}, F(3), F(2)),
    "H3": (3, 10, 124, F(4), 0, {F(12), F(6)}, F(4), F(6)),
    "H4": (4, 30, 1116, F(10), 0, {F(20), F(36)}, F(10), F(18)),
    "I2(9)": (2, 9, 123, F(9, 2), 0, {F(14), F(9, 2)}, F(7), F(9, 2)),
    "I2(8)": (2, 8, 94, F(4), 0, {F(12), F(4)}, F(6), F(4)),
}


def _as_fraction(value) -> F:
    return F(value) if not isinstance(value, str) else F(value)


def test_criterion_3_table_reproduction(capsys):
    failures = []
    for label, (r, h, gamma, d, nu, v_plus, alpha, beta) in TABLE.items():
        code = cli_main(["info", label, "--format", "json"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append((label, "exit", code))
            continue
        payload = json.loads(out)
        checks = [
            ("r", payload["r"], r),
            ("h", payload["h"], h),
            ("gamma", payload["gamma"], gamma),
            ("d", _as_fraction(payload["d"]), d),
            ("nu", payload["nu"], nu),
            ("V_plus", {_as_fraction(v) for v in payload["V_plus"]}, v_plus),
            ("alpha", _as_fraction(payload["alpha"]), alpha),
            ("beta", _as_fraction(payload["beta"]), beta),
        ]
        for field, got, want in checks:
            if got != want:
                failures.append((label, field, got, want))
        # The three printed relations recover gamma, beta and h per row.
        t = parse_type(label)
        for check in (check_gamma_formula, check_beta_formula, check_h_relation):
            report = check(t)
            if not report.passed:
                failures.append((label, check.__name__, report.witness))
    finish(3, "parameter table reproduction", failures)


def test_criterion_4_closed_form_sweep():
    failures = []
    for t in SWEEP:
        for n in range(6):
            direct = powersum_direct(t, n).value
            closed = powersum_closed(t, n).value
            if closed != direct:
                failures.append((t.name, "powersum", n, closed, direct))
        for n in range(5):
            hd = heightsum_direct(t, n).value
            hc = heightsum_closed(t, n).value
            if hd != hc:
                failures.append((t.name, "heights", n, hc, hd))
    spots = [
        (powersum_direct(parse_type("E8"), 2).value, 2360),
        (powersum_closed(parse_type("E8"), 3).value, 52200),
        (powersum_closed(parse_type("A2"), 4).value, 17),
        (powersum_closed(parse_type("A2"), 5).value, 33),
        (heightsum_direct(parse_type("A2"), 1).value, 4),
        (heightsum_direct(parse_type("A2"), 2).value, 6),
        (heightsum_direct(parse_type("A2"), 3).value, 10),
        (heightsum_direct(parse_type("A2"), 4).value, 18),
    ]
    failures += [(got, want) for got, want in spots if got != want]
    finish(4, "closed-form sweep", failures)


def test_criterion_5_todd_symmetry_pit():
    failures = []
    for total in range(9):
        for a in range(total + 1):
            report = check_todd_symmetry(a, total - a)
            if not report.passed:
                failures.append((a, total - a, report.witness))
    base = TruncatedSeries([1, 3, -2, F(5, 7), 4, -1, F(2, 3), 9])
    for n in (3, 5, 7):
        coeffs = list(base.coefficients)
        coeffs[n] += 17
        perturbed = TruncatedSeries(coeffs)
        if todd_values(base, n)[n] != todd_values(perturbed, n)[n]:
            failures.append(("odd-degree dependence", n))
    finish(5, "Todd symmetry over Z[c_1..c_n]", failures)


def test_criterion_6_t_transformation():
    failures = []
    for report in check_t_examples(order=20):
        if not report.passed:
            failures.append((report.subject, report.witness))
    integrality = check_t_integrality(5, 30)
    if not integrality.passed:
        failures.append(integrality.witness)
    finish(6, "T transformation", failures)


def test_criterion_7_specializations_and_bernoulli():
    failures = []
    for r in range(1, 11):
        report = check_gamma_specializations(parse_type(f"A{r}"), 10)
        if not report.passed:
            failures.append((f"A{r}", report.witness))
    for r in range(2, 11):
        report = check_gamma_specializations(parse_type(f"C{r}"), 10)
        if not report.passed:
            failures.append((f"C{r}", report.witness))
    for n in range(9):
        for r in range(21):
            direct = sum(i**n for i in range(1, r + 1))
            if faulhaber(n, r) != direct:
                failures.append(("faulhaber", n, r))
    finish(7, "gamma specializations and Bernoulli route", failures)


def test_criterion_8_negative_controls(monkeypatch):
    failures = []

    report = check_s4_nonuniversality()
    if not report.passed:
        failures.append(("S4 non-universality", report.witness))
    a9, d6 = parameters(parse_type("A9")), parameters(parse_type("D6"))
    if not (a9.h == d6.h == 10 and a9.gamma == d6.gamma == 100):
        failures.append("A9/D6 do not share (h, gamma)")
    if (
        powersum_direct(parse_type("A9"), 4).value / 9
        == powersum_direct(parse_type("D6"), 4).value / 6
    ):
        failures.append("S4/r unexpectedly equal for A9 and D6")

    # Single-constant fault injection: every suite must fail with a witness.
    e8, a2 = parse_type("E8"), parse_type("A2")
    ps_e8, ps_a2 = parameters(e8), parameters(a2)
    bad_exps = ExponentList((1, 7, 11, 13, 17, 19, 23, 28))

    # T_2 = M_2 Td_2 tampered by + c_2 in the table that todd-symm reads.
    polynomials = list(todd_polynomials(3))
    polynomials[2] += MPoly.variable(2)
    monkeypatch.setattr(todd_module._TABLE, "polynomials", polynomials)

    injected = {
        "expsum": check_expsum(
            e8, params=dataclasses.replace(ps_e8, V_plus=(F(20), F(25)))
        ),
        "multiset": check_multiset_laws(
            e8, params=dataclasses.replace(ps_e8, V_plus=(F(20), F(25)))
        ),
        "gamma": check_gamma_formula(e8, params=dataclasses.replace(ps_e8, gamma=901)),
        "h-relation": check_h_relation(e8, params=dataclasses.replace(ps_e8, d=F(7))),
        "beta": check_beta_formula(e8, params=dataclasses.replace(ps_e8, beta=F(11))),
        "symmetry": check_symmetry_identities(e8, 2, 3, exps=bad_exps),
        "todd-symm": check_todd_symmetry(1, 2),
        "kostant": check_de_kostant(e8, params=dataclasses.replace(ps_e8, d=F(7))),
        "t-transform": check_t_integrality(
            2, 6, start=TruncatedSeries([1, 2, 3], order=6)
        ),
        "specializations": check_gamma_specializations(
            a2, 6, params=dataclasses.replace(ps_a2, V_minus=(F(2), F(2)))
        ),
        "gamma34": check_gamma34(a2, 1, params=dataclasses.replace(ps_a2, gamma=10)),
        "methods": check_methods(a2, n_max=4, exps=ExponentList((1, 3))),
    }
    for suite, report in injected.items():
        if report.passed:
            failures.append((suite, "did not fail under injection"))
        elif not report.witness:
            failures.append((suite, "failed without a witness"))
    finish(8, "negative controls", failures)
