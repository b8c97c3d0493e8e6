"""Command-line interface: thin wrappers over the library.

Each subcommand parses arguments, calls library functions, and prints the
structured result; no numeric logic lives here.  Output is deterministic:
JSON with big integers and rationals rendered as decimal strings ("p/q"
for non-integral rationals), or the same fields as CSV or an aligned text
table.

Exit codes: 0 success, 1 verification failure, 2 invalid parameters or
input schema, 3 non-positive table-driven total (no degree exists), 4 an
internal invariant failed (an exactness or bounds check raised
ArithmeticError: a bug, not a property of the input).  Under `verify` such
a failure is a failed check, so it exits 1.

`main` may be called any number of times in one process; the parser is
built on the first call and reused.  A cost guard refuses, with exit 2,
inputs whose numbers would be too large to compute, before any big-integer
work starts.
"""

import argparse
import csv
import io
import json
import os
import re
import sys
from functools import cache
from pathlib import Path

from .degrees import (
    MAX_DIGITS,
    METHODS,
    NotGenericallyFiniteError,
    bounds_sweep,
    check_digits,
    conjecture_scan,
    degree_generic,
    dim_xm,
    guard_reference,
    guard_sweep,
)
from .grassmann import GrassmannShape, degree_digits, grassmann_degree, grassmann_dim
from .partitions import (
    DEFAULT_BRUTE_CAP,
    canonical,
    message,
    syt_count_bruteforce,
    syt_count_digits,
    syt_count_hook,
    weight,
)
from .schur import SegreIntegralTable, VeroneseVariety
from .verify import SUITE_NAMES, run_suite

ENV_BRUTE_CAP = "GAUSSDEG_BRUTE_CAP"
FORMATS = ("json", "csv", "table")
MAX_SYT_CELLS = 4_000_000  # `syt`'s sieve and hook lists take about 23 bytes a cell

_DIGITS = re.compile("[0-9]+")


def effective_brute_cap() -> int:
    """Weight cap of the brute-force tableau count, overridable via GAUSSDEG_BRUTE_CAP."""
    raw = os.environ.get(ENV_BRUTE_CAP)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    # int() alone would also take spaces, '_', '+' and non-ASCII digits
    if not _DIGITS.fullmatch(raw):
        raise ValueError(message("%s must be an integer, got %r", ENV_BRUTE_CAP, raw))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(message("%s must be an integer, got %r", ENV_BRUTE_CAP, raw)) from exc
    if cap < 1:
        raise ValueError(message("%s must be >= 1, got %s", ENV_BRUTE_CAP, cap))
    return cap


def parse_range(text: str) -> range:
    """Parse '3' or '1..4' (inclusive endpoints) into a range of integers."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        return range(int(lo_text), int(hi_text) + 1)
    return range(int(text), int(text) + 1)


def parse_partition(text: str):
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return canonical(int(piece) for piece in items)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(item) for item in value)
    return str(value)


def _csv_text(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    headers = list(rows[0].keys())
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(h)) for h in headers])
    return buffer.getvalue().rstrip("\n")


def _table_text(rows: list[dict]) -> str:
    headers = list(rows[0].keys())
    cells = [[_fmt_cell(row.get(h)) for h in headers] for row in rows]
    widths = [
        max(len(header), max(len(line[i]) for line in cells))
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for line in cells:
        lines.append(
            "  ".join(line[i].ljust(widths[i]) for i in range(len(headers))).rstrip()
        )
    return "\n".join(lines)


def _render_rows(rows: list[dict], fmt: str, envelope: dict | None = None) -> str:
    if fmt == "json":
        return json.dumps(envelope if envelope is not None else rows, indent=2)
    if fmt == "csv":
        return _csv_text(rows)
    return _table_text(rows)


def _render_object(doc: dict, fmt: str) -> str:
    return _render_rows([doc], fmt, envelope=doc)


def cmd_degree(args) -> int:
    v = VeroneseVariety(args.n, args.d)
    method = METHODS[args.method]
    if not method.applies(v, args.m):
        raise ValueError(f"method {args.method} requires {method.requires}")
    method.guard(v, args.m)
    report = method.compute(v, args.m)
    print(_render_object(report.to_dict(), args.format))
    return 0


def cmd_table(args) -> int:
    v = VeroneseVariety(args.n, args.d)
    guard_sweep(v)
    rows = [
        {
            "m": b.m,
            "dim": dim_xm(v.n, v.N, b.m),
            "degree": str(b.degree),
            "ratio": str(b.ratio),
            "within_conjecture": b.within_conjecture,
        }
        for b in bounds_sweep(v)
    ]
    envelope = {"n": v.n, "d": v.d, "N": v.N, "rows": rows}
    print(_render_rows(rows, args.format, envelope=envelope))
    return 0


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else list(SUITE_NAMES)
    options = {"identity": {"max_n": args.max_n}}
    if "syt" in names:
        options["syt"] = {"max_weight": args.max_weight, "cap": effective_brute_cap()}
    results = [run_suite(name, **options.get(name, {})) for name in names]
    ok = all(result.ok for result in results)
    if args.format == "table":
        for result in results:
            print(f"suite {result.name}: {result.passed} passed, {result.failed} failed")
            for failure in result.failures:
                print(f"  FAIL {failure}")
    else:
        rows = [
            {
                "suite": result.name,
                "passed": result.passed,
                "failed": result.failed,
                "failures": result.failures,
            }
            for result in results
        ]
        flat = [{**row, "failures": "; ".join(row["failures"])} for row in rows]
        print(_render_rows(flat, args.format, envelope={"suites": rows, "ok": ok}))
    return 0 if ok else 1


def cmd_conjecture(args) -> int:
    n_values, d_values = parse_range(args.n), parse_range(args.d)
    if n_values and d_values:
        # any range error of the box is one of its smallest variety, and a
        # variety the guard refuses stays refused at every larger n and d,
        # so guarding the largest variety guards the box
        VeroneseVariety(n_values[0], d_values[0])
        guard_sweep(VeroneseVariety(n_values[-1], d_values[-1]))
    rows = [record.to_dict() for record in conjecture_scan(n_values, d_values)]
    violations = sum(not row["within_conjecture"] for row in rows)
    text = _render_rows(rows, args.format, envelope={"rows": rows, "violations": violations})
    if args.format == "table":
        text += f"\nviolations: {violations}"
    print(text)
    return 0


def cmd_generic(args) -> int:
    text = Path(args.table).read_text(encoding="utf-8")
    table = SegreIntegralTable.from_json(text)
    guard_reference(table.n, table.N, args.m, 0.0)
    report = degree_generic(table, args.m)
    print(_render_object(report.to_dict(), args.format))
    return 0


def cmd_syt(args) -> int:
    lam = parse_partition(args.shape)
    cells = weight(lam)
    what = "the tableau count of a shape of %s cells"
    if cells > MAX_SYT_CELLS:
        limit = f"at most {MAX_SYT_CELLS:,} cells are counted"
        raise ValueError(message(f"too large: {what}; {limit}", cells))
    check_digits(syt_count_digits(lam, MAX_DIGITS), what, cells)
    cap = effective_brute_cap()
    doc: dict = {"shape": list(lam), "weight": cells, "hook": str(syt_count_hook(lam))}
    if cells <= cap:
        doc["bruteforce"] = str(syt_count_bruteforce(lam, cap=cap))
    else:
        doc["bruteforce"] = None
        doc["note"] = (
            f"weight {cells} exceeds brute-force cap {cap}; "
            f"set {ENV_BRUTE_CAP} to raise it"
        )
    print(_render_object(doc, args.format))
    return 0


def cmd_grassmann(args) -> int:
    shape = GrassmannShape(args.d, args.r)
    digits = degree_digits(shape, MAX_DIGITS)
    check_digits(digits, "the Pluecker degree of G(%s, %s)", args.d, args.r)
    doc = {
        "d": args.d,
        "r": args.r,
        "dim": grassmann_dim(shape),
        "degree": str(grassmann_degree(shape)),
    }
    print(_render_object(doc, args.format))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="json")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its error text cut as `message` cuts a long echo."""

    def error(self, text):
        super().error(message("%s", text))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `gaussdeg` parser, built on the first call and shared after it.

    `parse_args` leaves a parser as it was, and building one costs over
    ten times as much as a parse, so every `main` call in a process
    reuses this one.  Being shared, it must not be changed by a caller.
    """
    parser = _Parser(
        prog="gaussdeg",
        description="Exact degrees of tangent m-plane varieties of Veronese embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    degree = sub.add_parser("degree", help="degree and dimension at one (n, d, m)")
    degree.add_argument("--n", type=int, required=True, help="dimension of the source space")
    degree.add_argument("--d", type=int, required=True, help="degree of the embedding forms")
    degree.add_argument("--m", type=int, required=True, help="tangent plane dimension")
    degree.add_argument("--method", choices=tuple(METHODS), default="main")
    _add_format(degree)
    degree.set_defaults(func=cmd_degree)

    table = sub.add_parser("table", help="sweep all m for one variety")
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--d", type=int, required=True)
    _add_format(table)
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run self-check suites")
    verify.add_argument("--suite", choices=SUITE_NAMES)
    verify.add_argument("--max-n", type=int, default=6, help="identity suite range")
    verify.add_argument("--max-weight", type=int, default=8, help="syt suite range")
    _add_format(verify)
    verify.set_defaults(func=cmd_verify)

    conjecture = sub.add_parser("conjecture", help="scan the conjectured power bound")
    conjecture.add_argument("--n", required=True, help="value or inclusive range, e.g. 1..3")
    conjecture.add_argument("--d", required=True, help="value or inclusive range, e.g. 2..4")
    _add_format(conjecture)
    conjecture.set_defaults(func=cmd_conjecture)

    generic = sub.add_parser("generic", help="degree from a Schur integral table file")
    generic.add_argument("--table", required=True, help="path to a table JSON file")
    generic.add_argument("--m", type=int, required=True)
    _add_format(generic)
    generic.set_defaults(func=cmd_generic)

    syt = sub.add_parser("syt", help="standard tableau count, both ways")
    syt.add_argument("--shape", required=True, help="comma-separated parts, e.g. 3,1")
    _add_format(syt)
    syt.set_defaults(func=cmd_syt)

    grassmann = sub.add_parser("grassmann", help="Grassmannian dimension and degree")
    grassmann.add_argument("--d", type=int, required=True, help="quotient rank")
    grassmann.add_argument("--r", type=int, required=True, help="ambient rank")
    _add_format(grassmann)
    grassmann.set_defaults(func=cmd_grassmann)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotGenericallyFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
