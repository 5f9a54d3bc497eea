"""The coxsums benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload todd-deep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
repetition of the workload runs in a fresh single-threaded interpreter
(``child.py``), one at a time, so the measured program is always one
process with one thread.  With ``--trace 0`` untraced repetitions run
while the next one should still end within ``--seconds`` (at least
two), and the end-to-end metrics are medians over them, with every
time at reference speed (``reference.py``).  With
``--trace 1`` one traced repetition gives the per-layer metrics, and
an untraced one on each side of it the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment and the per-repetition details.  The exit code is 0 when
every op was correct, 1 when an op failed, and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SIZES, WORKLOADS
from tracing import per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "coxsums"
OUT = HERE / "out"
CHILD_ARGV = [sys.executable, str(HERE / "child.py")]

MIN_REPS = 2
SETUP_SAMPLES = 9
# Every run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(args) -> dict:
    """What a result must be read with: interpreter, cores, code, seed."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "processes": "one child interpreter at a time, one thread",
    }


class Runner:
    """Starts child interpreters, each bounded by the run's deadline."""

    def __init__(self, args, started: float):
        self.args = args
        self.deadline = started + DEADLINE_S

    def child(self, mode: str, spans: Path | None = None) -> dict:
        argv = CHILD_ARGV + [
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--size", self.args.size,
        ]
        if spans is not None:
            argv += ["--spans", str(spans)]
        remaining = self.deadline - _clock()
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        t0 = _clock()
        try:
            proc = subprocess.run(
                argv + ["--t0", repr(t0)],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {mode} repetition did not end in time") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"a {mode} repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(ops_per_rep: int) -> float:
    """The highest quantile with at least TAIL_BEYOND ops of a repetition
    beyond it, and never below the median; a repetition with too few ops
    reports its slowest."""
    if ops_per_rep <= TAIL_BEYOND:
        return 1.0
    return max(0.5, (ops_per_rep - TAIL_BEYOND) / ops_per_rep)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    start = _clock()
    reps = []
    while True:
        began = _clock()
        reps.append(runner.child("run"))
        now = _clock()
        # Stop unless one more repetition like the last ends in time.
        if len(reps) >= MIN_REPS and (now - start) + (now - began) > seconds:
            break
    setups = list(reps)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup"))
    latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
    q = tail_quantile(len(reps[0]["latencies_ms"]))
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, q),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    details = {
        "reps": len(reps),
        "ops_per_rep": len(reps[0]["latencies_ms"]),
        "op_tail_percentile": round(100 * q, 3),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "wall_samples_s": [rep["wall_s"] for rep in reps],
        "raw": {
            "setup_samples_s": [s["setup_raw_s"] for s in setups],
            "wall_samples_s": [rep["wall_raw_s"] for rep in reps],
            "op_p50_ms": statistics.median(ms for rep in reps for ms in rep["latencies_raw_ms"]),
            "ref_ms_median": statistics.median(ms for rep in reps for ms in rep["ref_ms"]),
        },
    }
    return reps, {"metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, **details}


def per_layer(runner: Runner) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.args.workload}-{runner.args.seed}.tsv"
    # Untraced repetitions on both sides of the traced one, so that a
    # steady drift in machine speed cancels out of the overhead, which
    # is taken at reference speed.
    before = runner.child("run")
    traced = runner.child("trace", spans)
    after = runner.child("run")
    untraced_wall_s = (before["wall_s"] + after["wall_s"]) / 2
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall_s
    metrics = {name: (layers[name], unit) for name, unit, _ in per_layer_names()}
    details = {
        "untraced_wall_s": [before["wall_s"], after["wall_s"]],
        "traced_wall_s": traced["wall_s"],
        "traced_wall_raw_s": traced["wall_raw_s"],
        "spans": traced["spans"],
        "spans_file": spans.name,
    }
    return [before, traced, after], {"metrics": metrics, **details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny runs the workloads at toy size, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = _clock()
    try:
        if not (SRC / "__init__.py").is_file():
            raise BenchError(f"no coxsums sources at {SRC.relative_to(ROOT)}; run from a source checkout")
        env = environment(args)
        runner = Runner(args, started)
        runner.child("setup")  # warm-up: byte-code caches, not counted
        reps, report = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    messages = [m for rep in reps for m in rep["messages"]]
    metrics = report.pop("metrics")
    details = {"environment": env, **report, "failure_messages": messages[:10]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, "metrics": metrics}, indent=1)
    )
    for message in messages[:10]:
        print(f"failed op: {message}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
