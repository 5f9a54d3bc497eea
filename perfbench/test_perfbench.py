"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench

The negative controls run the benchmark against a deliberately broken
library (patched in the child interpreter only) and require it to fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import reference
import run
from tracing import per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TODD_OFF_BY_ONE = """
import dataclasses
import coxsums.powersums as powersums

_original = powersums.powersum_todd

def powersum_todd(*args, **kwargs):
    result = _original(*args, **kwargs)
    return dataclasses.replace(result, value=result.value + 1)

powersums.powersum_todd = powersum_todd
"""

CORRUPT_VERIFY_CHECK = """
import dataclasses
import coxsums.verify as verify

_original = verify.check_h_relation

def check_h_relation(t, profile=None, params=None):
    report = _original(t, profile, params)
    if report.subject.startswith("G2"):
        return dataclasses.replace(report, passed=False, witness="corrupted on purpose")
    return report

verify.check_h_relation = check_h_relation
"""


def _bench(capsys, *argv: str) -> tuple[int, dict]:
    code = run.main(["--seconds", "0", "--size", "tiny", "--seed", "5", *argv])
    out = capsys.readouterr().out.splitlines()
    return code, json.loads(out[-1])


@pytest.fixture(autouse=True)
def _results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def _patched_child(tmp_path, monkeypatch, patch: str) -> None:
    """Make every child interpreter apply ``patch`` before it starts."""
    wrapper = tmp_path / "patched_child.py"
    wrapper.write_text(
        "import runpy, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        f"{patch}\n"
        f"sys.argv[0] = {str(HERE / 'child.py')!r}\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n"
    )
    monkeypatch.setattr(run, "CHILD_ARGV", [sys.executable, str(wrapper)])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_todd_off_by_one_fails(tmp_path, monkeypatch, capsys, trace):
    _patched_child(tmp_path, monkeypatch, TODD_OFF_BY_ONE)
    code, result = _bench(capsys, "--workload", "todd-deep", "--trace", trace)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_corrupt_verify_check_fails(tmp_path, monkeypatch, capsys):
    _patched_child(tmp_path, monkeypatch, CORRUPT_VERIFY_CHECK)
    code, result = _bench(capsys, "--workload", "verify-default", "--trace", "0")
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(capsys, workload):
    code, result = _bench(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())

    code, traced = _bench(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and traced["correct"]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    self_times = [v for name, v in layers.items() if name.endswith(".self_s")]
    assert all(v >= 0 for v in self_times)
    assert sum(self_times) + layers["cli.render.s"] <= layers["trace.wall_s"]


def test_work_is_scaled_by_the_samples_around_it():
    speed = child.Speedometer()
    # Samples at 0, 1 and 3 s of work, taking 4, 8 and 2 ms.
    speed.samples = [(0.0, 4.0), (1.0, 8.0), (3.0, 2.0)]
    nominal = reference.NOMINAL_MS
    assert speed.scaled_s(0.0, 1.0) == pytest.approx(nominal / 6.0)
    assert speed.scaled_s(1.0, 3.0) == pytest.approx(2 * nominal / 5.0)
    assert speed.scaled_s(0.5, 2.0) == pytest.approx(0.5 * nominal / 6.0 + nominal / 5.0)


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == per_layer_names()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_without_sources_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "todd-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
