"""A table fault fails a verify check with a witness; it never aborts the sweep.

Each field of each exceptional row (every exponent, h, gamma, 2d and nu) is
changed by +1 and by -1, one at a time, and so is each family formula of
A, C, D and I2 (gamma, 2d, nu, the second and the largest exponent, and h)
through the catalog function that gives it.  Every mutant must fail at
least one check whose report names a changed type.  The sweep runs in
process over every suite but todd-symm, which reads no table, on a catalog
that still holds every exceptional type; a few mutants go through cli.main
for the exit code and the printed lines.

The profile choice (catalog._profile_for) and the families whose beta is
free (catalog._ARBITRARY_BETA) have mutants too.  Every verify check reads
the sets of profile_parameters, which none of these mutants changes, so no
verify check fails on them; each is paired with the catalog test that
catches it.

Two more mutants live outside the tables: a p-factor whose log is not odd,
and a changed gamma(t) gamma(-t) step of the Todd pass.  Each must fail
every per-type methods check, which runs the Todd route at p = 1 only and
covers p = 2 and 3 by the p-factor's p-freeness.
"""

import sys

import pytest

import coxsums.todd as todd_module
import coxsums.verify as verify_module
import test_catalog
from coxsums import cli, parse_type, powersum_todd_upto
from coxsums.errors import ParseError, ProfileMismatch
from coxsums.verify import SUITE_NAMES, build_tasks, check_methods, run_tasks

catalog_module = sys.modules["coxsums.catalog"]

MAX_RANK, MAX_M = 8, 7
TABLE_SUITES = [suite for suite in SUITE_NAMES if suite != "todd-symm"]


def row_mutants():
    """(key, field, index, delta): index is the exponent's place, None for the
    scalar fields."""
    for key, row in catalog_module._EXCEPTIONAL.items():
        for field in row._fields:
            places = range(len(row.exponents)) if field == "exponents" else [None]
            for index in places:
                for delta in (1, -1):
                    yield key, field, index, delta


ROW_MUTANTS = list(row_mutants())


def mutant_id(mutant):
    (family, n), field, index, delta = mutant
    place = "" if index is None else f"[{index}]"
    return f"{family}{n}.{field}{place}{delta:+d}"


def apply_row_mutant(monkeypatch, mutant):
    """Patch the row; return the name of the changed type."""
    key, field, index, delta = mutant
    row = catalog_module._EXCEPTIONAL[key]
    if index is None:
        changed = row._replace(**{field: getattr(row, field) + delta})
    else:
        values = list(row.exponents)
        values[index] += delta
        changed = row._replace(exponents=tuple(values))
    monkeypatch.setitem(catalog_module._EXCEPTIONAL, key, changed)
    return catalog_module.CoxeterType(*key).name


def subject_type(report):
    """The type a report's subject starts with, before any profile or p; None
    for a subject that names no type."""
    try:
        return parse_type(report.subject.split(" ")[0])
    except ParseError:
        return None


def failed_reports():
    reports = run_tasks(build_tasks(MAX_RANK, MAX_M, suites=TABLE_SUITES))
    return [report for report in reports if not report.passed]


def test_the_true_tables_pass():
    assert failed_reports() == []


def test_the_matrix_holds_every_field_of_every_row():
    assert len(ROW_MUTANTS) == 136
    assert {key for key, *_ in ROW_MUTANTS} == set(catalog_module._EXCEPTIONAL)
    types = catalog_module.catalog(MAX_RANK, MAX_M)
    assert {catalog_module.CoxeterType(*key) for key in catalog_module._EXCEPTIONAL} <= set(types)


@pytest.mark.parametrize("mutant", ROW_MUTANTS, ids=map(mutant_id, ROW_MUTANTS))
def test_row_mutant_fails_a_check_naming_its_type(monkeypatch, mutant):
    name = apply_row_mutant(monkeypatch, mutant)
    failed = failed_reports()
    assert any(str(subject_type(report)) == name for report in failed), failed[:3]


def patch_everywhere(monkeypatch, name, replacement):
    """Rebind a catalog function in every coxsums module that binds it."""
    original = getattr(catalog_module, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("coxsums") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


def shift_largest_exponent(el, delta):
    return catalog_module.ExponentList(el.values[:-1] + (el.values[-1] + delta,))


# Field -> (the catalog function that gives it, how a mutant changes its value).
FAMILY_FIELDS = {
    "gamma": ("gamma_invariant", lambda value, delta: value + delta),
    "2d": ("_twice_d_nu", lambda value, delta: (value[0] + delta, value[1])),
    "nu": ("_twice_d_nu", lambda value, delta: (value[0], value[1] + delta)),
    "m2": ("_second_exponent", lambda value, delta: value + delta),
    "m_r": ("exponents", shift_largest_exponent),
    "h": (None, None),  # CoxeterType.coxeter_number, a property
}
FAMILY_MUTANTS = [
    (family, field, delta)
    for family in ("A", "C", "D", "I2")
    for field in FAMILY_FIELDS
    for delta in (1, -1)
]


def apply_family_mutant(monkeypatch, family, field, delta):
    name, change = FAMILY_FIELDS[field]
    if name is None:
        real = catalog_module.CoxeterType.coxeter_number.fget
        shifted = property(lambda t: real(t) + delta if t.family == family else real(t))
        monkeypatch.setattr(catalog_module.CoxeterType, "coxeter_number", shifted)
        return
    real = getattr(catalog_module, name)

    def mutated(t, *args):
        value = real(t, *args)
        return change(value, delta) if t.family == family else value

    patch_everywhere(monkeypatch, name, mutated)


@pytest.mark.parametrize(
    "family, field, delta", FAMILY_MUTANTS, ids=[f"{f}.{x}{d:+d}" for f, x, d in FAMILY_MUTANTS]
)
def test_family_mutant_fails_a_check_naming_the_family(monkeypatch, family, field, delta):
    apply_family_mutant(monkeypatch, family, field, delta)
    failed = failed_reports()
    assert any(getattr(subject_type(report), "family", None) == family for report in failed), (
        failed[:3]
    )


def fails(test):
    """True when test fails: an assertion, a pytest.raises that saw nothing, or an error."""
    try:
        test()
    except (Exception, pytest.fail.Exception):
        return True
    return False


def is_even_i2(t):
    return t.family == "I2" and t.index % 2 == 0


# Mutant -> (the requests it changes, what they resolve to (None: refused), its catcher).
PROFILE_MUTANTS = {
    "H2.redefined=standard": (
        lambda t, profile: t.name == "H2" and profile == "redefined",
        "standard",
        test_catalog.TestParameters().test_h2_profiles,
    ),
    "H2.default=redefined": (
        lambda t, profile: t.name == "H2" and profile in (None, "h2-original"),
        "redefined",
        test_catalog.TestParameters().test_h2_profiles,
    ),
    "I2even.standard=refused": (
        lambda t, profile: is_even_i2(t) and profile == "standard",
        None,
        test_catalog.TestApplicableProfiles().test_even_i2_single,
    ),
    "I2odd.standard=redefined": (
        lambda t, profile: t.family == "I2" and t.index % 2 and profile == "standard",
        "redefined",
        test_catalog.TestParameters().test_standard_profile_rejected_for_odd_i2,
    ),
    "I2even.default=standard": (
        lambda t, profile: is_even_i2(t) and profile is None,
        "standard",
        test_catalog.TestParameters().test_alpha_is_second_exponent_minus_one,
    ),
}


@pytest.mark.parametrize("mutant", PROFILE_MUTANTS)
def test_profile_mutant_is_caught_by_its_catalog_test(monkeypatch, mutant):
    changes, concrete, catcher = PROFILE_MUTANTS[mutant]
    real = catalog_module._profile_for

    def mutated(t, profile):
        if not changes(t, profile):
            return real(t, profile)
        if concrete is None:
            raise ProfileMismatch(f"{t.name} has no {profile} parameter row")
        return concrete

    assert not fails(catcher)
    patch_everywhere(monkeypatch, "_profile_for", mutated)
    assert fails(catcher)


BETA_MUTANTS = [("-", key) for key in catalog_module._ARBITRARY_BETA] + [
    ("+", key) for key in ("D", "E", "F", "H4")
]


@pytest.mark.parametrize(
    "change, key", BETA_MUTANTS, ids=[change + key for change, key in BETA_MUTANTS]
)
def test_arbitrary_beta_mutant_is_caught_by_its_catalog_test(monkeypatch, change, key):
    catcher = test_catalog.TestParameters().test_beta_is_free_exactly_where_the_table_leaves_it
    real = catalog_module._ARBITRARY_BETA
    mutated = tuple(k for k in real if k != key) if change == "-" else real + (key,)
    assert not fails(catcher)
    monkeypatch.setattr(catalog_module, "_ARBITRARY_BETA", mutated)
    assert fails(catcher)


HEADER = f"verify: suites=all max-rank={MAX_RANK} max-m={MAX_M} n-max=12 seed=42"


@pytest.mark.parametrize(
    "mutant",
    [
        (("E", 8), "exponents", 1, 1),  # 7 -> 8: alpha is no entry of V-
        (("E", 8), "d2", None, 1),  # 12 -> 13: the same, through 2d
        (("H", 2), "nu", None, -1),
        (("F", 4), "gamma", None, 1),  # a value fault: parameters are built
    ],
    ids=mutant_id,
)
def test_cli_exits_one_with_a_header_and_a_witness(monkeypatch, capsys, mutant):
    name = apply_row_mutant(monkeypatch, mutant)
    code = cli.main(["verify", "--max-rank", str(MAX_RANK), "--max-m", str(MAX_M)])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[0] == HEADER
    assert lines[-1].endswith(" check(s) failed")
    witnesses = [line for line in lines if line.startswith("  witness: ")]
    assert any(line.startswith(f"  witness: {name}") for line in witnesses), witnesses
    # Every suite has its line, the table-free todd-symm passing.
    suite_lines = [line for line in lines for suite in SUITE_NAMES if line.startswith(f"{suite}: ")]
    assert len(suite_lines) == len(SUITE_NAMES)
    assert any(line.startswith("todd-symm: PASS") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "E8"],
        ["powersum", "E8", "-n", "3"],
        ["heights", "E8", "-n", "3"],
        ["table", "--types", "E8"],
    ],
    ids=lambda argv: argv[0],
)
def test_other_commands_exit_one_on_a_table_fault(monkeypatch, capsys, argv):
    # parameters() raises InternalMismatch: a failed internal check, exit 1.
    apply_row_mutant(monkeypatch, (("E", 8), "exponents", 1, 1))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: internal table error for E8\n")


def test_a_p_factor_whose_log_is_not_odd_fails_every_methods_check(monkeypatch):
    """1 added to the last F at p = 3 breaks f(t) f(-t) = 1 at k = n_max = 12:
    every per-type methods check fails with a witness naming p and k, and no
    other check fails.  At n_max = 11 the changed F_11 is read by no Todd
    value, and the check passes."""
    real = todd_module._quotient_integers

    def shifted_at_p3(a, b2, order):
        f = real(a, b2, order)
        if (a, b2) == (6, 81):  # p = 3, s = 3
            f[-1] += 1
        return f

    monkeypatch.setattr(todd_module, "_quotient_integers", shifted_at_p3)
    failed = [report for report in run_tasks(build_tasks()) if not report.passed]
    assert [(report.suite, subject_type(report)) for report in failed] == [
        ("methods", t) for t in catalog_module.catalog(12, 30)
    ]
    witness = "p=3, k=12: sum_i (-1)**i F_i F_(k-i) = 2 != 0"
    assert all(report.witness == witness for report in failed)
    e8 = parse_type("E8")
    assert powersum_todd_upto(e8, 11, 3) == powersum_todd_upto(e8, 11, 1)
    assert check_methods(e8, 11).passed


def test_a_changed_reflection_product_fails_every_methods_check(monkeypatch):
    """The Todd pass and the p-freeness read gamma(t) gamma(-t) through one
    function: 1 added to its last c changes P_12 of every Todd pass, so every
    per-type methods check fails at n = 12, and the p-freeness sees it too."""
    real = todd_module._reflection_product

    def shifted(g):
        c = real(g)
        c[-1] += 1
        return c

    monkeypatch.setattr(todd_module, "_reflection_product", shifted)
    reports = run_tasks(build_tasks(suites=["methods"]))
    failed = [report for report in reports if not report.passed]
    assert [subject_type(report) for report in failed] == catalog_module.catalog(12, 30)
    assert all(report.witness.startswith("n=12, p=1: todd ") for report in failed)
    witness = "p=2, k=12: sum_i (-1)**i F_i F_(k-i) = 1 != 0"
    assert verify_module._p_freeness(2, 12) == witness
