"""Spans around the public entry points of each coxsums layer.

The tracer treats every layer as a black box: it replaces the listed
functions and methods with wrappers that record a span per call, and
edits no source file.  ``verify``, ``cli`` and ``powersums`` import
names directly, so each wrapper replaces every binding of the original
in every ``coxsums.*`` module namespace, not only the defining module.

Spans are ``(name, start, end, parent)`` tuples kept in memory; the
index of a span in the list is its id.  A layer's self time is a span's
duration minus the durations of its direct children.  Calls in one
process are strictly nested (one thread), so the children of a span
never overlap and their durations can simply be subtracted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SUITES = (
    "expsum",
    "multiset",
    "gamma",
    "h-relation",
    "beta",
    "symmetry",
    "todd-symm",
    "kostant",
    "t-transform",
    "specializations",
    "gamma34",
    "methods",
)

# (metric prefix, module, attribute path) of every traced entry point.
TRACED = (
    ("series.mul", "coxsums.series", "TruncatedSeries.__mul__"),
    ("series.inverse", "coxsums.series", "TruncatedSeries.inverse"),
    ("series.log", "coxsums.series", "TruncatedSeries.log"),
    ("series.exp", "coxsums.series", "TruncatedSeries.exp"),
    ("series.pow", "coxsums.series", "TruncatedSeries.pow"),
    ("todd.p_factor", "coxsums.todd", "p_factor"),
    ("todd.gamma_series", "coxsums.todd", "gamma_series"),
    ("todd.todd_values", "coxsums.todd", "todd_values"),
    ("todd.faulhaber", "coxsums.todd", "faulhaber"),
    ("todd.bernoulli_polynomial", "coxsums.todd", "bernoulli_polynomial"),
    ("powersums.powersum_todd", "coxsums.powersums", "powersum_todd"),
    ("powersums.powersum_direct", "coxsums.powersums", "powersum_direct"),
    ("powersums.powersum_closed", "coxsums.powersums", "powersum_closed"),
    ("powersums.heightsum_direct", "coxsums.powersums", "heightsum_direct"),
    ("powersums.heightsum_closed", "coxsums.powersums", "heightsum_closed"),
    ("catalog.catalog", "coxsums.catalog", "catalog"),
    ("catalog.parameters", "coxsums.catalog", "parameters"),
    ("catalog.exponents", "coxsums.catalog", "exponents"),
    ("catalog.dual_partition", "coxsums.catalog", "dual_partition"),
    ("catalog.applicable_profiles", "coxsums.catalog", "applicable_profiles"),
    ("intpoly.mul", "coxsums.intpoly", "IntPolynomial.__mul__"),
    ("intpoly.exact_div", "coxsums.intpoly", "IntPolynomial.exact_div"),
    ("intpoly.poly_from_factors", "coxsums.intpoly", "poly_from_factors"),
    ("cli.main", "coxsums.cli", "main"),
    ("cli.render", "coxsums.cli", "OutputDocument.render"),
)

CACHED = ("todd.p_factor", "todd.gamma_series")


def _coeff_bits(series) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in series.coefficients
    )


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for prefix, _, _ in TRACED:
        if prefix == "cli.render":
            out += [("cli.render.s", "s", "lower"), ("cli.render.chars", "chars", "lower")]
            continue
        out.append((f"{prefix}.calls", "count", "lower"))
        if prefix == "cli.main":
            out.append(("cli.main.s", "s", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
        if prefix in CACHED:
            out.append((f"{prefix}.hit_ratio", "ratio", "higher"))
        if prefix in ("series.mul", "intpoly.mul"):
            out.append((f"{prefix}.coeff_products", "count", "lower"))
    out.append(("series.max_coeff_bits", "bits", "lower"))
    for suite in SUITES:
        out += [
            (f"verify.{suite}.checks", "count", "higher"),
            (f"verify.{suite}.s", "s", "lower"),
            (f"verify.{suite}.failed", "count", "lower"),
        ]
    out += [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.failed_checks: dict[str, int] = defaultdict(int)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for prefix, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals[prefix] = original
            wrapper = self._wrap(prefix, original, self._counter(prefix))
            if cls_path:
                self._rebind(owner, attr, wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if name == "coxsums" or name.startswith("coxsums."):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, key, wrapper)
        verify = sys.modules["coxsums.verify"]
        self._rebind(verify, "build_tasks", self._traced_tasks(verify.build_tasks))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, prefix: str):
        """The per-call bookkeeping of a traced entry point, if it has any."""
        counts = self.counts

        def track_bits(result):
            bits = _coeff_bits(result)
            if bits > counts["series.max_coeff_bits"]:
                counts["series.max_coeff_bits"] = bits

        if prefix == "series.mul":
            series_type = sys.modules["coxsums.series"].TruncatedSeries

            def after(args, result):
                # Operand pairs of the schoolbook loop, computed from the
                # orders rather than counted inside it.
                n = result.order
                scalar = not isinstance(args[1], series_type)
                counts["series.mul.coeff_products"] += n + 1 if scalar else (n + 1) * (n + 2) // 2
                track_bits(result)

            return after
        if prefix.startswith("series."):
            return lambda args, result: track_bits(result)
        if prefix == "intpoly.mul":

            def after(args, result):
                a, b = args
                counts["intpoly.mul.coeff_products"] += len(a.coefficients) * len(b.coefficients)

            return after
        if prefix == "cli.render":

            def after(args, result):
                counts["cli.render.chars"] += len(result)

            return after
        return None

    def _traced_tasks(self, build_tasks):
        """Wrap each verify task in a span named after its suite."""
        failed = self.failed_checks

        def traced_build_tasks(*args, **kwargs):
            out = []
            for suite, subject, task in build_tasks(*args, **kwargs):
                def note(_args, report, suite=suite):
                    if not report.passed:
                        failed[suite] += 1

                out.append((suite, subject, self._wrap(f"verify.{suite}", task, note)))
            return out

        return traced_build_tasks

    # -- reporting ----------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics; ``trace.overhead_s`` needs an untraced run
        and is left to the caller."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent in spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[spans[parent][0]] -= duration
        values: dict[str, float] = {}
        for name, _, _ in per_layer_names():
            prefix, _, field = name.rpartition(".")
            if prefix == "trace":
                continue
            if field in ("calls", "checks"):
                values[name] = calls[prefix]
            elif field == "self_s":
                values[name] = self_time[prefix]
            elif field == "s":
                values[name] = total[prefix]
            elif field == "failed":
                values[name] = self.failed_checks[prefix.split(".", 1)[1]]
            elif field == "hit_ratio":
                info = self._originals[prefix].cache_info()
                lookups = info.hits + info.misses
                values[name] = info.hits / lookups if lookups else 0.0
            else:
                values[name] = self.counts[name]
        values["trace.wall_s"] = wall_s
        return values

    def write_spans(self, path) -> None:
        """One line per span: id, name, start, end, parent, run id."""
        with open(path, "w") as out:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{self.run_id}\n")
