"""Command-line front end.

    cox info E8
    cox exponents I2(7)
    cox powersum E8 -n 2 --method all
    cox heights A2 -n 2
    cox table --types E6,E7,E8 --format latex
    cox verify --suite all --max-rank 12 --max-m 30 --n-max 12 --seed 42

Exit codes: 0 success, 1 verification or cross-method failure, 2 usage
error.  Machine output renders rationals as "a/b" strings (integers as
plain numbers) so no value ever passes through floating point.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import powersums as _powersums
from .catalog import (
    _MAX_ECHO_LABEL,
    PROFILES,
    brief,
    catalog,
    dual_partition,
    exponents,
    parameters,
    parse_type,
)
from . import verify as _verify
from .errors import CoxError, InternalMismatch

FORMATS = ("pretty", "json", "csv", "latex")

# Fraction("1e<k>") computes 10**|k|, which for |k| in the billions runs for
# hours; --beta refuses decimal exponents beyond Python's default limit on
# int-string digits.
_MAX_BETA_EXPONENT = 4300

# A decimal integer as int() reads it: a COX_SEED of this shape that int()
# refuses has more digits than the interpreter's int-string limit.
_INT_PATTERN = r"\s*[+-]?\d+(?:_\d+)*\s*"

# Every output format renders integers (numerators and denominators) of up
# to this many decimal digits, and refuses larger ones by bit length first.
_MAX_OUTPUT_DIGITS = 100_000
_MAX_OUTPUT_BITS = int(_MAX_OUTPUT_DIGITS / math.log10(2))  # 2**bits <= 10**digits

# The Todd and closed routes cost about n**2 big-integer products whose
# operands grow with n: powersum E8 -n 1000 --method all takes 8.5 s (2-core
# host, Python 3.11.7), at n = 5000 far longer.  Beyond this bound every
# method but powersum's direct one is refused before any work, and so is
# verify --n-max when a suite that reads it runs: methods takes the Todd
# and closed routes and specializations the gamma series up to n-max.  The
# direct route of heights is bounded by it too: it forms the h - 1 powers
# j**n, each of up to n * log2(h) bits, so its time grows with n as well as
# h: heights --method direct on A20000 at n = 1000 takes 0.9 s, on A100000
# 4.6 s, and on A999999 (at _MAX_DUAL_PARTITION) 57 s.
_MAX_TODD_N = 1000

# The same routes' operands grow like n times the bit length b of their
# inputs, so n within _MAX_TODD_N is not enough: powersum and heights refuse
# either route before any work when n * b exceeds this bound, b being the
# bit length of the largest of p and the numerators and denominators of h,
# r, alpha, beta, V+ and V-.  At a fixed n * b the Todd route is slowest at
# the largest n; measured on the same host: E8 (b = 5) at n = 1000 takes
# 10 s, E8 --p 1023 (b = 10, at the bound) 31 s, E8 --p 2**20-1 at n = 500
# (at the bound) 5 s, while E8 -n 100 --p 10**2000-1 (n * b = 664400) took
# 23 s and I2(7) -n 400 --beta 1e4000 --method closed 96 s.
_MAX_TODD_OPERAND_BITS = 10_000

# A table's cells S_0 .. S_N of each type are each at least (h-1)**n, so its
# output grows like N**2 per type: table --types E8 --n-max 5000 takes 3.5 s,
# 130 MB peak RSS and writes 37 MB.  table refuses, before any work, a table
# whose cells' lower bound, the sum of n * (bit_length(h-1) - 1) + 1 bits
# over n <= N and over the types, exceeds this bound.  At the bound, on the
# same host: E8 --n-max 3161 takes 1.1 s, 62 MB and writes 15 MB; --all
# --n-max 452 0.5 s, 50 MB; --all --max-rank 120 --max-m 600 --n-max 78
# 1.9 s, 57 MB.
_MAX_TABLE_BITS = 20_000_000

# table --all and verify build catalog(--max-rank, --max-m), and each type's
# exponents, dual partition and parameters cost O(r + h): table --all
# --max-rank 30000 --max-m 3 --n-max 0 did not end in 2 minutes.  Both
# refuse, before any work, a catalog whose sum of r + h over its types
# exceeds this bound.  At the bound, on the same host: --max-rank 999
# --max-m 3 (3995145) table --all --n-max 0 takes 0.6 s, verify --suite
# expsum 2.3 s and verify 17 s; --max-rank 2 --max-m 2800 verify 17 s.
# --max-rank 120 --max-m 600 sums to 239571.  table (with --types too) and
# the direct route of powersum build only the exponents, r per type, and
# refuse more than this many in all: at the bound, table --types A4000000
# --n-max 3 takes 1.5 s and 170 MB, and powersum A4000000 -n 2 --method
# direct 1.0 s and 170 MB.  The Todd and closed routes read no exponent list.
_MAX_CATALOG_WEIGHT = 4_000_000

# info, exponents and the direct route of heights build the dual partition,
# h - 1 counts, and info and exponents print it with the exponents: on the
# same host, exponents I2(1000001) takes 3.3 s, 101 MB and writes 2 MB, info
# A999999 6.8 s, 177 MB and 14 MB, heights A999999 -n 2 --method direct
# 1.4 s and 147 MB, and info I2(3000000) 10 s and 252 MB; at h beyond a
# machine word they ended in an internal OverflowError.  They refuse, before
# any work, a type whose h - 1 exceeds this bound.  catalog(120, 600) reaches
# h = 600.
_MAX_DUAL_PARTITION = 1_000_000


def _check_output_bits(bits: int) -> None:
    if bits > _MAX_OUTPUT_BITS:
        raise CoxError(f"a value exceeds the output bound of {_MAX_OUTPUT_DIGITS} digits")


def _check_operand_bits(args, method: str, params, p: int = 1) -> None:
    values = (params.h, params.r, params.alpha, params.beta, *params.V_plus, *params.V_minus)
    largest = max(p, *(abs(v.numerator) for v in values), *(v.denominator for v in values))
    bits = largest.bit_length()
    if args.n * bits > _MAX_TODD_OPERAND_BITS:
        hint = " (use --method direct)" if args.method == "all" else ""
        raise CoxError(
            f"the {method} method needs n * b <= {_MAX_TODD_OPERAND_BITS}, where b = {bits} "
            "is the bit length of the largest of p and the parameters' numerators and "
            f"denominators{hint}"
        )


def _check_dual_partition_size(t, hint: str = "") -> None:
    counts = t.coxeter_number - 1
    if counts > _MAX_DUAL_PARTITION:
        raise CoxError(
            f"the dual partition of {brief(t)} has h - 1 = {brief(counts)} counts, "
            f"beyond the bound of {_MAX_DUAL_PARTITION}{hint}"
        )


def _catalog_weight(max_rank: int, max_m: int) -> int:
    """The sum of r + h over catalog(max_rank, max_m): the types of rank <= 8
    and m <= 6 one by one, the rest in closed form."""

    def total(lo: int, hi: int, a: int, b: int) -> int:  # sum of a*n + b, lo <= n <= hi
        count = max(0, hi - lo + 1)
        return a * (count * (lo + hi) // 2) + b * count

    small = sum(t.rank + t.coxeter_number for t in catalog(min(max_rank, 8), min(max_m, 6)))
    # Each rank n >= 9 adds A_n, C_n and D_n: (2n + 1) + 3n + (3n - 2); each
    # m >= 7 adds I2(m): m + 2.
    return small + total(9, max_rank, 8, -1) + total(7, max_m, 1, 2)


def _check_catalog_size(max_rank: int, max_m: int) -> None:
    """Refuse a catalog beyond _MAX_CATALOG_WEIGHT; sizes that catalog()
    rejects are left to its own message."""
    if max_rank < 1 or max_m < 3:
        return
    weight = _catalog_weight(max_rank, max_m)
    if weight > _MAX_CATALOG_WEIGHT:
        raise CoxError(
            f"the catalog of --max-rank {brief(max_rank)} --max-m {brief(max_m)} sums r + h to "
            f"{brief(weight)}, beyond the bound of {_MAX_CATALOG_WEIGHT} (use a smaller "
            "--max-rank or --max-m)"
        )


def _check_exponent_count(types, subject: str, hint: str) -> None:
    """Refuse direct work over more than _MAX_CATALOG_WEIGHT exponents in all."""
    count = sum(t.rank for t in types)
    if count > _MAX_CATALOG_WEIGHT:
        raise CoxError(
            f"{subject} reads {brief(count)} exponents, beyond the bound of {_MAX_CATALOG_WEIGHT} "
            f"({hint})"
        )


def _rational(value: Fraction | int):
    """JSON-facing value: plain int when integral, 'a/b' string otherwise.

    Reads the numerator and denominator of the int or Fraction as given,
    with no Fraction built, and bounds their bits before any becomes text.
    """
    num, den = value.numerator, value.denominator
    _check_output_bits(max(num.bit_length(), den.bit_length()))
    if den == 1:
        return num
    return f"{num}/{den}"


def _text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction)):
        return str(_rational(value))
    if isinstance(value, (list, tuple)):
        return " ".join(_text(v) for v in value)
    return str(value)


@dataclass
class OutputDocument:
    columns: list[str]
    rows: list[dict]
    kv_pretty: bool = False  # render pretty format as key: value lines

    def render(self, fmt: str) -> str:
        # _rational bounds every integer, so lift the interpreter's
        # int-to-str digit limit to that bound while rendering.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(_MAX_OUTPUT_DIGITS)
        try:
            if fmt == "json":
                return self._render_json()
            if fmt == "csv":
                return self._render_csv()
            if fmt == "latex":
                return self._render_latex()
            return self._render_pretty()
        finally:
            sys.set_int_max_str_digits(limit)

    def _json_value(self, value):
        if isinstance(value, (int, Fraction)):
            return _rational(value)
        if isinstance(value, (list, tuple)):
            return [self._json_value(v) for v in value]
        return value

    def _render_json(self) -> str:
        payload = [
            {col: self._json_value(row[col]) for col in self.columns}
            for row in self.rows
        ]
        if self.kv_pretty and len(payload) == 1:
            return json.dumps(payload[0], indent=2)
        return json.dumps(payload, indent=2)

    def _render_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_text(row[col]) for col in self.columns))
        return "\n".join(lines)

    def _render_latex(self) -> str:
        columns = self.columns
        merged = [c for c in columns if c not in ("A", "B", "alpha", "beta")]
        if "A" in columns and "B" in columns:
            idx = merged.index("d") + 1 if "d" in merged else len(merged)
            merged[idx:idx] = ["A,B", "alpha,beta"]
        header = {
            "type": "type",
            "r": "$r$",
            "h": "$h$",
            "gamma": "$\\gamma$",
            "d": "$d$",
            "nu": "$\\nu$",
            "A,B": "$A,B$",
            "alpha,beta": "$\\alpha,\\beta$",
        }
        lines = [
            "\\begin{tabular}{l" + "r" * (len(merged) - 1) + "}",
            "\\hline",
            " & ".join(header.get(c, c.replace("_", "\\_")) for c in merged) + " \\\\",
            "\\hline",
        ]
        for row in self.rows:
            cells = []
            for col in merged:
                if col == "A,B":
                    cells.append(f"{_text(row['A'])},{_text(row['B'])}")
                elif col == "alpha,beta":
                    cells.append(f"{_text(row['alpha'])},{_text(row['beta'])}")
                else:
                    cells.append(_text(row[col]))
            lines.append(" & ".join(cells) + " \\\\")
        lines += ["\\hline", "\\end{tabular}"]
        return "\n".join(lines)

    def _render_pretty(self) -> str:
        if self.kv_pretty:
            lines = []
            for row in self.rows:
                for col in self.columns:
                    lines.append(f"{col}: {_text(row[col])}")
            return "\n".join(lines)
        table = [self.columns] + [
            [_text(row[col]) for col in self.columns] for row in self.rows
        ]
        widths = [max(len(line[i]) for line in table) for i in range(len(self.columns))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in table
        )


def _parse_beta(text: str | None) -> Fraction | None:
    if text is None:
        return None
    match = re.search(r"[eE][-+]?([\d_]*)", text)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    if len(digits) > len(str(_MAX_BETA_EXPONENT)) or int(digits or 0) > _MAX_BETA_EXPONENT:
        raise CoxError(f"bad rational {text!r}: exponent beyond +-{_MAX_BETA_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise CoxError(f"bad rational {text!r}: {e}") from None


# -- commands ----------------------------------------------------------------

_PARAMETER_COLUMNS = ("r", "h", "gamma", "d", "nu", "alpha", "beta", "A", "B")


def _parameter_cells(ps) -> dict:
    return {col: getattr(ps, col) for col in _PARAMETER_COLUMNS}


def _exponent_cells(exps) -> dict:
    return {"exponents": list(exps.values), "dual_partition": list(dual_partition(exps).counts)}


def _print_row(args, row: dict) -> int:
    print(OutputDocument(list(row), [row], kv_pretty=True).render(args.format))
    return 0


def _cmd_info(args) -> int:
    t = parse_type(args.type)
    _check_dual_partition_size(t)
    ps = parameters(t, args.profile, _parse_beta(args.beta))
    row = {
        "type": t.name,
        "profile": args.profile or "default",
        **_parameter_cells(ps),
        "V_plus": list(ps.V_plus),
        "V_minus": list(ps.V_minus),
        **_exponent_cells(exponents(t)),
    }
    return _print_row(args, row)


def _cmd_exponents(args) -> int:
    t = parse_type(args.type)
    _check_dual_partition_size(t)
    exps = exponents(t)
    row = {"type": t.name, "r": exps.rank, "h": exps.coxeter_number, **_exponent_cells(exps)}
    return _print_row(args, row)


def _compare_routes(args, t, columns, routes, cells) -> int:
    """One row per route that --method selects, in the order of routes.
    Exit 1 when the routes' values differ."""
    rows = [
        {"type": t.name, "n": args.n, "method": m, "value": routes[m]().value, **cells(m)}
        for m in routes
        if args.method in (m, "all")
    ]
    print(OutputDocument(columns, rows).render(args.format))
    if any(row["value"] != rows[0]["value"] for row in rows):
        print("error: methods disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_powersum(args) -> int:
    t, n = parse_type(args.type), args.n
    if n < 0:
        raise CoxError("n must be >= 0")
    if args.p < 1:
        raise CoxError("p must be >= 1")
    if args.method != "direct" and n > _MAX_TODD_N:
        method = "todd" if args.method == "all" else args.method
        hint = " (use --method direct for larger n)" if args.method == "all" else ""
        raise CoxError(f"the {method} method needs n <= {_MAX_TODD_N}{hint}")
    params = parameters(t, args.profile, _parse_beta(args.beta))
    # The value is at least (h-1)**n >= 2**(n * (bit_length(h-1) - 1)).
    _check_output_bits(n * ((params.h - 1).bit_length() - 1) + 1)
    if args.method != "direct":
        _check_operand_bits(args, "todd" if args.method == "all" else args.method, params, args.p)
    if args.method in ("direct", "all"):
        _check_exponent_count([t], "the direct method", "use --method closed")
    routes = {
        "direct": lambda: _powersums.powersum_direct(t, n),
        "todd": lambda: _powersums.powersum_todd(t, n, args.p, params=params),
        "closed": lambda: _powersums.powersum_closed(t, n, params=params),
    }
    columns = ["type", "n", "method", "p", "value"]
    return _compare_routes(
        args, t, columns, routes, lambda m: {"p": args.p if m == "todd" else ""}
    )


def _cmd_heights(args) -> int:
    t, n = parse_type(args.type), args.n
    if n < 0:
        raise CoxError("n must be >= 0")
    if n > _MAX_TODD_N:
        method = "direct" if args.method == "all" else args.method
        raise CoxError(f"the {method} method needs n <= {_MAX_TODD_N}")
    if args.method != "closed":
        _check_dual_partition_size(t, " (use --method closed)")
    params = parameters(t, args.profile, _parse_beta(args.beta))
    if args.method != "direct":
        _check_operand_bits(args, "closed", params)
    routes = {
        "direct": lambda: _powersums.heightsum_direct(t, n),
        "closed": lambda: _powersums.heightsum_closed(t, n, params=params),
    }
    note = "" if t.is_crystallographic else "formal height sum"
    columns = ["type", "n", "method", "value", "note"]
    return _compare_routes(args, t, columns, routes, lambda m: {"note": note})


def _cmd_table(args) -> int:
    if args.types:
        types = [parse_type(s) for s in args.types.split(",")]
    elif args.all:
        _check_catalog_size(args.max_rank, args.max_m)
        types = catalog(args.max_rank, args.max_m)
    else:
        raise CoxError("need --types or --all")
    if args.n_max < 0:
        raise CoxError("n-max must be >= 0")
    n_max = args.n_max
    bits = sum(
        ((t.coxeter_number - 1).bit_length() - 1) * n_max * (n_max + 1) // 2 + n_max + 1
        for t in types
    )
    if bits > _MAX_TABLE_BITS:
        raise CoxError(
            f"the table's power sums need at least {brief(bits)} bits, beyond the bound of "
            f"{_MAX_TABLE_BITS} (use fewer types or a smaller --n-max)"
        )
    beta = _parse_beta(args.beta)
    params = [parameters(t, args.profile, beta) for t in types]
    _check_exponent_count(types, "the table", "use fewer or smaller types")
    columns = ["type", *_PARAMETER_COLUMNS] + [f"S{n}" for n in range(args.n_max + 1)]
    rows = []
    for t, ps in zip(types, params):
        row = {"type": t.name, **_parameter_cells(ps)}
        sums = _powersums.exponent_power_sums(exponents(t), args.n_max)
        row.update((f"S{n}", s) for n, s in enumerate(sums))
        rows.append(row)
    print(OutputDocument(columns, rows).render(args.format))
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise CoxError("jobs must be >= 1")
    if args.suite in ("all", "methods", "specializations") and args.n_max > _MAX_TODD_N:
        raise CoxError(f"n-max must be <= {_MAX_TODD_N}")
    seed = args.seed
    if seed is None:
        text = os.environ.get("COX_SEED", "42")
        try:
            seed = int(text)
        except ValueError:
            if not re.fullmatch(_INT_PATTERN, text):
                raise CoxError(f"COX_SEED must be an integer, got {text!r}") from None
            shown = repr(text) if len(text) <= _MAX_ECHO_LABEL else f"of {len(text)} characters"
            raise CoxError(
                f"COX_SEED {shown} is an integer beyond the interpreter's "
                f"{sys.get_int_max_str_digits()}-digit limit"
            ) from None
    _check_catalog_size(args.max_rank, args.max_m)
    suites = None if args.suite == "all" else [args.suite]
    tasks = _verify.build_tasks(
        max_rank=args.max_rank,
        max_m=args.max_m,
        n_max=args.n_max,
        seed=seed,
        suites=suites,
    )
    print(
        f"verify: suites={args.suite} max-rank={args.max_rank} "
        f"max-m={args.max_m} n-max={args.n_max} seed={seed}"
    )
    reports = _verify.run_tasks(tasks)
    single_suite = suites is not None
    # Every selected suite gets a line, one with no checks too.
    by_suite: dict[str, list] = {suite: [] for suite in suites or _verify.SUITE_NAMES}
    for report in reports:
        by_suite.setdefault(report.suite, []).append(report)
        if single_suite:
            status = "PASS" if report.passed else "FAIL"
            print(f"{report.suite} {report.subject}: {status}")
    failed_total = 0
    for suite, suite_reports in by_suite.items():
        failed = [rep for rep in suite_reports if not rep.passed]
        failed_total += len(failed)
        if failed:
            print(f"{suite}: FAIL ({len(failed)}/{len(suite_reports)} checks failed)")
            print(f"  witness: {failed[0].subject}: {failed[0].witness}")
        else:
            print(f"{suite}: PASS ({len(suite_reports)} checks)")
    if failed_total:
        print(f"{failed_total} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# -- parser -------------------------------------------------------------------


def _int_option(text: str) -> int:
    """int(text), refused as argparse does, but past _MAX_ECHO_LABEL characters by length."""
    try:
        return int(text)
    except ValueError:
        shown = f": {text!r}" if len(text) <= _MAX_ECHO_LABEL else f" of {len(text)} characters"
        raise argparse.ArgumentTypeError(f"invalid int value{shown}") from None


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="pretty")


def _add_profile_beta(parser) -> None:
    parser.add_argument(
        "--profile", choices=PROFILES, default=None,
        help="parameter profile (default: standard, redefined for plain I2)",
    )
    parser.add_argument(
        "--beta", default=None, metavar="RAT",
        help="override the arbitrary beta slot (rational, e.g. 7/2)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cox",
        description="Exact power sums of Coxeter exponents and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="parameters, exponents and dual partition")
    p.add_argument("type")
    _add_profile_beta(p)
    _add_format(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("exponents", help="exponent list and dual partition")
    p.add_argument("type")
    _add_format(p)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("powersum", help="sum of n-th powers of the exponents")
    p.add_argument("type")
    p.add_argument("-n", type=_int_option, required=True)
    p.add_argument("--method", choices=("direct", "todd", "closed", "all"), default="all")
    p.add_argument("--p", type=_int_option, default=1, help="free parameter of the todd method")
    _add_profile_beta(p)
    _add_format(p)
    p.set_defaults(func=_cmd_powersum)

    p = sub.add_parser("heights", help="sum of n-th powers of root heights")
    p.add_argument("type")
    p.add_argument("-n", type=_int_option, required=True)
    p.add_argument("--method", choices=("direct", "closed", "all"), default="all")
    _add_profile_beta(p)
    _add_format(p)
    p.set_defaults(func=_cmd_heights)

    p = sub.add_parser("table", help="parameter and power-sum table")
    p.add_argument("--types", default=None, help="comma-separated type labels")
    p.add_argument("--all", action="store_true", help="every catalog type")
    p.add_argument("--max-rank", type=_int_option, default=12)
    p.add_argument("--max-m", type=_int_option, default=30)
    p.add_argument("--n-max", type=_int_option, default=3)
    _add_profile_beta(p)
    _add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument(
        "--suite", choices=("all",) + _verify.SUITE_NAMES, default="all"
    )
    p.add_argument("--max-rank", type=_int_option, default=12)
    p.add_argument("--max-m", type=_int_option, default=30)
    p.add_argument("--n-max", type=_int_option, default=12)
    p.add_argument(
        "--seed", type=_int_option, default=None,
        help="accepted, validated and echoed in the header; no default suite "
        "reads it (default: $COX_SEED, else 42)",
    )
    p.add_argument(
        "--jobs", type=_int_option, default=1,
        help="accepted for compatibility and checked to be >= 1; "
        "checks always run one after another",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (CoxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        # Two internal routes that disagree are a failed verification.
        return 1 if isinstance(e, InternalMismatch) else 2
    except Exception as e:  # exit codes are pinned to {0, 1, 2}
        print(f"internal error: {e!r}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
