"""The benchmark tracer's view of the package: every name it wraps exists.

perfbench/tracing.py names the functions it wraps by module and attribute
path; a refactor that renames one of them breaks the benchmark, which its
own suite (python3 -m pytest perfbench) notices only slowly.  This reads
the tracer's tables without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from coxsums import verify

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
