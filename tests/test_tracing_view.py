"""The benchmark tracer's view of the package: every name it wraps exists.

perfbench/tracing.py names the functions it wraps by module and attribute
path; a refactor that renames one of them breaks the benchmark, which its
own suite (python3 -m pytest perfbench) notices only slowly.  This reads
the tracer's tables without installing it.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from coxsums import IntPolynomial, TruncatedSeries, verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
