"""The benchmark tracer's view of the package: every name it wraps exists.

perfbench/tracing.py names the functions it wraps by module and attribute
path; a refactor that renames one of them breaks the benchmark, which its
own suite (python3 -m pytest perfbench) notices only slowly.  This reads
the tracer's tables without installing it.  It also reads the check counts
that perfbench/child.py pins for the verify-default workload, without
importing that file.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coxsums
from coxsums import IntPolynomial, TruncatedSeries, cli, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_entry_resolves(tracing):
    for prefix, module_name, path in tracing.TRACED:
        assert callable(resolve(module_name, path)), prefix


def test_every_cached_entry_has_cache_info(tracing):
    by_prefix = {prefix: (module, path) for prefix, module, path in tracing.TRACED}
    for prefix in tracing.CACHED:
        assert callable(resolve(*by_prefix[prefix]).cache_info), prefix


def test_suites_match_verify(tracing):
    assert tracing.SUITES == verify.SUITE_NAMES


def test_counter_attributes_resolve(tracing):
    # The per-call counters of a traced run (--trace 1) read TruncatedSeries
    # .order and .coefficients, and IntPolynomial.coefficients, from operands
    # and results; run them on real ones.
    series = TruncatedSeries([1, Fraction(1, 2), 3])
    poly = IntPolynomial([0, 2, 0, -1])
    assert series.order == 2 and len(series.coefficients) == 3
    assert poly.coefficients == (0, 2, 0, -1)
    tracer = tracing.Tracer("view")
    tracer._counter("series.mul")((series, series), series * series)
    tracer._counter("series.inverse")((series,), series.inverse())
    tracer._counter("intpoly.mul")((poly, poly), poly * poly)
    assert tracer.counts["series.mul.coeff_products"] == 6
    assert tracer.counts["series.max_coeff_bits"] > 0
    assert tracer.counts["intpoly.mul.coeff_products"] == 16


def test_importing_the_cli_loads_verify():
    # The benchmark child wraps coxsums.verify.build_tasks after importing
    # only coxsums.cli, so that import must load verify too.
    env = dict(os.environ, PYTHONPATH=str(Path(coxsums.__file__).resolve().parent.parent))
    code = "import sys, coxsums.cli; print('coxsums.verify' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "True\n"


def test_traced_verify_gives_every_metric_and_restores_every_name(tracing, capsys):
    owners = {
        id(module): module
        for name, module in list(sys.modules.items())
        if name == "coxsums" or name.startswith("coxsums.")
    }
    for _, module_name, path in tracing.TRACED:
        if "." in path:
            owner = resolve(module_name, path.rpartition(".")[0])
            owners[id(owner)] = owner
    before = [(owner, dict(vars(owner))) for owner in owners.values()]
    tracer = tracing.Tracer("tier-1")
    tracer.install()
    try:
        rebound = [
            (owner, key, value)
            for owner, names in before
            for key, value in names.items()
            if vars(owner).get(key) is not value
        ]
        code = cli.main(["verify", "--max-rank", "2", "--max-m", "3", "--n-max", "2"])
        metrics = tracer.metrics(1.0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    want = {name for name, _, _ in tracing.per_layer_names()} - {"trace.overhead_s"}
    assert set(metrics) == want
    assert metrics["cli.main.calls"] == 1 and metrics["verify.gamma.checks"] > 0
    traced = {path.rpartition(".")[2] for _, _, path in tracing.TRACED}
    assert {key for _, key, _ in rebound} == traced | {"build_tasks"}
    assert all(vars(owner).get(key) is value for owner, key, value in rebound)


def pinned_sizes():
    """perfbench/child.py's SIZES, read as a literal from the file's source."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SIZES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py has no SIZES")


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_verify_builds_the_check_count_the_benchmark_pins(size):
    # The verify-default workload fails every op whose suites report another count.
    pin = pinned_sizes()[size]
    args = cli._build_parser().parse_args(["verify", *pin["verify_flags"]])
    built = len(verify.build_tasks(args.max_rank, args.max_m, args.n_max, 42))
    assert built == pin["verify_checks"], (
        f"{' '.join(['cox verify', *pin['verify_flags']])} builds {built} checks, but "
        f"perfbench/child.py SIZES[{size!r}]['verify_checks'] pins "
        f"{pin['verify_checks']}: a change of the default checks lands with a "
        f"benchmark change that updates the pin"
    )
