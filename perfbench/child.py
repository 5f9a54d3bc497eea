"""One repetition of a workload, in a fresh single-threaded interpreter.

    python3 perfbench/child.py --workload todd-deep --seed 1 --mode run --t0 <clock>

``--t0`` is the CLOCK_MONOTONIC reading the parent took just before it
started this interpreter; set-up time runs from there until the
workload's inputs are ready.  Modes:

* ``setup`` - import coxsums, generate the inputs, report set-up time.
* ``run``   - also run every op untraced, then check every result.
* ``trace`` - the same as ``run`` with spans around every layer.

The last line of stdout is one JSON object.  Every op is timed on its
own; the checks run after the last op, so they count in no latency.
An op that raises is a failed op and its message is kept; no op is
skipped and the run is never aborted.

Every time is reported twice: raw, and at reference speed.  The host
reference of ``reference.py`` is timed right after set-up, before an op
or a verify task when ``REF_EVERY_S`` have passed since the last
sample, and after the last op.  Set-up time is scaled by the first
sample, and the work between two samples by their mean.  No op's time
and no raw wall time includes a sample.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# Workload sizes.  ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        # cox verify defaults: --max-rank 12 --max-m 30 --n-max 12.
        "verify_flags": [],
        "verify_checks": 666,
        "todd_sweep": (12, 30),
        "todd_ops": 32,
        "todd_n": (48, 96),
        "catalog_sweep": (120, 600),
        "catalog_k": 4,
    },
    "tiny": {
        "verify_flags": ["--max-rank", "3", "--max-m", "8", "--n-max", "4"],
        "verify_checks": 150,
        "todd_sweep": (3, 8),
        "todd_ops": 5,
        "todd_n": (8, 12),
        "catalog_sweep": (4, 10),
        "catalog_k": 4,
    },
}

MAX_MESSAGES = 5
REF_EVERY_S = 0.25


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs ----------------------------------------------------------------


def sweep_labels(max_rank: int, max_m: int) -> list[str]:
    """Type labels in catalog order: A, C/B, D, E, F4, G2, H, then I2.

    Generated here rather than by ``catalog()`` so that the catalog's own
    cost stays in its layer, and so the table op's type column has an
    independent reference.  I2(3..6) are the aliases A2, C2/B2, H2, G2.
    """
    labels = [f"A{n}" for n in range(1, max_rank + 1)]
    labels += [f"C{n}/B{n}" for n in range(2, max_rank + 1)]
    labels += [f"D{n}" for n in range(4, max_rank + 1)]
    labels += [f"E{n}" for n in (6, 7, 8) if n <= max_rank]
    labels += ["F4"] if max_rank >= 4 else []
    labels += ["G2"] if max_rank >= 2 else []
    labels += [f"H{n}" for n in (2, 3, 4) if n <= max_rank]
    labels += [f"I2({m})" for m in range(7, max_m + 1)]
    return labels


def _coxeter_type(label: str):
    from coxsums.catalog import CoxeterType

    if label.startswith("I2("):
        return CoxeterType("I2", int(label[3:-1]))
    return CoxeterType(label[0], int(label.split("/")[0][1:]))


def todd_queries(seed: int, size: dict) -> list[tuple[str, int, int]]:
    """``todd_ops`` queries ``(type, n, p)`` on distinct sweep types.

    The seed picks the types and decides which type gets which n and p.
    Across the queries n steps evenly through its range and p takes the
    values 1, 2, 3 in equal shares.  Each marginal is uniform, as with
    independent draws, but the work of a repetition hardly depends on
    the seed, because an op's cost grows with n and barely with the type
    or p.  No two queries share an n, so no query hits a cache that an
    earlier one filled.
    """
    rng = random.Random(seed)
    count = size["todd_ops"]
    labels = rng.sample(sweep_labels(*size["todd_sweep"]), count)
    lo, hi = size["todd_n"]
    ns = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    ps = [1 + i % 3 for i in range(count)]
    rng.shuffle(ns)
    rng.shuffle(ps)
    return list(zip(labels, ns, ps))


# -- ops -------------------------------------------------------------------


class Speedometer:
    """Samples of the host reference on a work clock.

    The work clock is ``perf_counter`` less the time spent taking
    samples, so a sample is a point on it, and the time between two
    samples is the workload's alone.  A stretch of work is scaled by
    ``NOMINAL_MS`` over the mean of the two samples around it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (work clock, ref ms)
        self.spent_s = 0.0
        self._last = float("-inf")

    def now(self) -> float:
        return time.perf_counter() - self.spent_s

    def sample(self) -> float:
        start = time.perf_counter()
        ms = reference.ref_ms()
        self._last = time.perf_counter()
        self.samples.append((start - self.spent_s, ms))
        self.spent_s += self._last - start
        return ms

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def scaled_s(self, start: float, end: float) -> float:
        """Work from ``start`` to ``end`` on the work clock, in seconds at
        reference speed; samples must lie at or before ``start`` and at
        or after ``end``."""
        at = [w for w, _ in self.samples]
        i = bisect.bisect_right(at, start) - 1
        total = 0.0
        while start < end:
            stop = min(end, at[i + 1])
            total += (stop - start) * 2 * reference.NOMINAL_MS / (self.samples[i][1] + self.samples[i + 1][1])
            start, i = stop, i + 1
        return total


@dataclass
class Rep:
    """Timings and outcomes of one repetition."""

    speed: Speedometer = field(default_factory=Speedometer)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from coxsums import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _timed(rep: Rep, fn, *args):
    """Run one op; an exception is recorded as the op's outcome."""
    rep.speed.sample_if_due()
    start = rep.speed.now()
    try:
        outcome = fn(*args)
    except Exception as e:  # a raising op is a failed op, not a crash
        outcome = e
    rep.intervals.append((start, rep.speed.now()))
    return outcome


@contextlib.contextmanager
def sampling_between_verify_tasks(speed: Speedometer):
    """Let the reference be sampled between the tasks of ``cox verify``.

    A verify run is one op of several seconds, and the host's speed can
    change within it.  The tasks that ``coxsums.verify.build_tasks``
    returns are wrapped so that a due sample is taken before a task
    starts; the op's time leaves the sample out.  Without a
    ``build_tasks`` the op is scaled by the samples around it alone.
    """
    verify = sys.modules["coxsums.verify"]
    build = getattr(verify, "build_tasks", None)
    if build is None:
        yield
        return

    def between(task):
        def run(*args, **kwargs):
            speed.sample_if_due()
            return task(*args, **kwargs)

        return run

    def build_tasks(*args, **kwargs):
        return [(suite, subject, between(task)) for suite, subject, task in build(*args, **kwargs)]

    verify.build_tasks = build_tasks
    try:
        yield
    finally:
        verify.build_tasks = build


class VerifyDefault:
    """``cox verify --seed <seed>`` with every other flag at its default."""

    def __init__(self, seed: int, size: dict):
        self.argv = ["verify", "--seed", str(seed)] + size["verify_flags"]
        self.expected_checks = size["verify_checks"]

    def run(self, rep: Rep) -> list:
        return [_timed(rep, _cli, self.argv)]

    def check(self, outcomes: list, rep: Rep) -> None:
        (outcome,) = outcomes
        if isinstance(outcome, Exception):
            rep.attempted += self.expected_checks
            rep.fail(f"verify raised {outcome!r}")
            return
        code, out, err = outcome
        rep.attempted += self.expected_checks
        checks = failed = 0
        for line in out.splitlines():
            suite, _, status = line.partition(": ")
            if status.startswith("PASS ("):
                checks += int(status[6:].split()[0])
            elif status.startswith("FAIL ("):
                bad, total = status[6:].split()[0].split("/")
                checks += int(total)
                failed += int(bad)
                rep.fail(f"{suite}: {status}", int(bad))
        if checks != self.expected_checks:
            rep.fail(f"suites report {checks} checks, expected {self.expected_checks}")
        if not failed and (code != 0 or out.splitlines()[-1:] != ["all checks passed"]):
            rep.fail(f"verify exited {code} without a failed check: {err.strip()}")


class ToddDeep:
    """powersum_todd(t, n, p), compared exactly with powersum_direct(t, n)."""

    def __init__(self, seed: int, size: dict):
        self.queries = [(_coxeter_type(label), n, p) for label, n, p in todd_queries(seed, size)]

    def run(self, rep: Rep) -> list:
        from coxsums import powersums

        return [_timed(rep, powersums.powersum_todd, t, n, p) for t, n, p in self.queries]

    def check(self, outcomes: list, rep: Rep) -> None:
        from coxsums import powersums

        for (t, n, p), outcome in zip(self.queries, outcomes):
            rep.attempted += 1
            if isinstance(outcome, Exception):
                rep.fail(f"powersum_todd({t}, {n}, {p}) raised {outcome!r}")
                continue
            direct = powersums.powersum_direct(t, n).value
            if outcome.value != direct:
                rep.fail(f"powersum_todd({t}, {n}, {p}) = {outcome.value} != direct {direct}")


class CatalogWide:
    """``cox heights T -n k`` for every sweep type, plus one expsum verify
    and one CSV table over the same sweep."""

    def __init__(self, seed: int, size: dict):
        rng = random.Random(seed)
        max_rank, max_m = size["catalog_sweep"]
        self.labels = sweep_labels(max_rank, max_m)
        self.types = [_coxeter_type(label) for label in self.labels]
        self.n_max = size["catalog_k"]
        self.argvs = [["heights", label, "-n", str(rng.randint(0, self.n_max))] for label in self.labels]
        sweep = ["--max-rank", str(max_rank), "--max-m", str(max_m)]
        self.argvs.append(["verify", "--suite", "expsum"] + sweep)
        self.argvs.append(["table", "--all", "--n-max", str(self.n_max), "--format", "csv"] + sweep)

    def run(self, rep: Rep) -> list:
        return [_timed(rep, _cli, argv) for argv in self.argvs]

    def check(self, outcomes: list, rep: Rep) -> None:
        for argv, outcome in zip(self.argvs, outcomes):
            rep.attempted += 1
            if isinstance(outcome, Exception):
                rep.fail(f"cox {' '.join(argv)} raised {outcome!r}")
                continue
            code, out, err = outcome
            try:
                problem = self._problem(argv[0], code, out, err)
            except (KeyError, IndexError, ValueError) as e:
                problem = f"unreadable output: {e!r}"
            if problem:
                rep.fail(f"cox {' '.join(argv)}: {problem}")

    def _problem(self, command: str, code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if command == "heights" and [line.split()[2] for line in out.splitlines()[1:]] != ["direct", "closed"]:
            return "output lacks the direct and closed rows"
        if command == "verify" and out.splitlines()[-1:] != ["all checks passed"]:
            return "no 'all checks passed' line"
        if command == "table":
            return self._check_table(out)
        return None

    def _check_table(self, out: str) -> str | None:
        from fractions import Fraction

        from coxsums import powersums

        lines = out.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if [row["type"] for row in rows] != self.labels:
            return "type column differs from the sweep"
        for t, row in zip(self.types, rows):
            for n in range(self.n_max + 1):
                want = powersums.powersum_closed(t, n).value
                if Fraction(row[f"S{n}"]) != want:
                    return f"{row['type']} S{n} = {row[f'S{n}']}, closed form gives {want}"
        return None


KINDS = {"verify-default": VerifyDefault, "todd-deep": ToddDeep, "catalog-wide": CatalogWide}
WORKLOADS = tuple(KINDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--spans", default=None, help="file for the spans of a traced run")
    args = parser.parse_args(argv)

    import coxsums.cli  # noqa: F401  (set-up includes the package import)

    workload = KINDS[args.workload](args.seed, SIZES[args.size])
    ready = clock()
    rep = Rep()
    reference.warm_up()
    setup_ref_ms = rep.speed.sample()
    result = {
        "setup_s": (ready - args.t0) * reference.NOMINAL_MS / setup_ref_ms,
        "setup_raw_s": ready - args.t0,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}:{args.seed}")
        tracer.install()
    start = rep.speed.now()
    with sampling_between_verify_tasks(rep.speed):
        outcomes = workload.run(rep)
    end = rep.speed.now()
    if tracer is not None:
        tracer.uninstall()
    rep.speed.sample()
    workload.check(outcomes, rep)
    result.update(
        wall_s=rep.speed.scaled_s(start, end),
        wall_raw_s=end - start,
        latencies_ms=[rep.speed.scaled_s(a, b) * 1000 for a, b in rep.intervals],
        latencies_raw_ms=[(b - a) * 1000 for a, b in rep.intervals],
        ref_ms=[ms for _, ms in rep.speed.samples],
        attempted=rep.attempted,
        failed=rep.failed,
        messages=rep.messages,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["spans"] = len(tracer.spans)
        result["layers"] = tracer.metrics(end - start)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
