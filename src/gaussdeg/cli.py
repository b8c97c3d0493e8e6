"""Command-line interface: thin wrappers over the library.

Each subcommand parses arguments, calls library functions, and prints the
structured result, `table`, `conjecture` and `verify` the row tuples the
library writes under one header per command; no numeric logic lives here,
and no digit arithmetic: each command's cost guard is one call into
`cost`.  Output is deterministic: JSON with big integers and rationals
rendered as decimal strings ("p/q" for non-integral rationals), or the
same fields as CSV or an aligned text table.  The JSON is
`json.dumps(doc, indent=2)`'s text and the CSV `csv.writer`'s, byte for
byte, each written by one writer here (`_json_text`, `_csv_text`,
`_table_text`).  A writer takes a header and its rows and works a column
at a time: a column of one kind is made text in one C-level pass, and a
number's decimal text is copied as it is, where json's indenting encoder
would escape it and csv would scan it character by character; JSON makes
the text around its values once for all rows and copies each number
once, by the one join that makes the output.  Integer options, and the
numbers of a shape or a range, are ASCII `-?[0-9]+` (`integer`).

Exit codes: 0 success, 1 verification failure, 2 invalid parameters or
input schema, 3 non-positive table-driven total (no degree exists), 4 an
internal invariant failed (an exactness or bounds check raised
ArithmeticError: a bug, not a property of the input).  Under `verify` such
a failure is a failed check, so it exits 1.

`main` may be called any number of times in one process.  Each subcommand
and its options are declared once, in `COMMANDS`.  A canonical argv, the
subcommand and then `--flag value` pairs, is read straight from that table
with no parser built (`read_canonical`); argparse's parser, built from the
same table for each argv that needs it and kept by nothing, handles the
rest: help, abbreviated flags, `--flag=value` forms, repeated flags,
negative numbers and every error.  What not every command needs is
imported on first use, so a one-command process loads only its own:
`argparse` with an argv the table does not read, `verify` with the
`verify` command or a parser, and `csv` with a cell that needs quoting.
A cost guard refuses, with exit 2,
inputs whose numbers would be too large to compute, or, but for
`generic`, to print, before any big-integer work starts.
"""

import io
import json
import os
import re
import sys
from collections.abc import Callable
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .cost import guard_grassmann, guard_reference, guard_scan, guard_syt
from .degrees import (
    CONJECTURE_COLUMNS,
    METHODS,
    TABLE_COLUMNS,
    NotGenericallyFiniteError,
    conjecture_scan,
    degree_generic,
    table_rows,
)
from .grassmann import GrassmannShape, grassmann_degree, grassmann_dim
from .partitions import (
    DEFAULT_BRUTE_CAP,
    Numeral,
    canonical,
    integer,
    message,
    syt_count_bruteforce,
    syt_count_hook,
    weight,
)
from .schur import SegreIntegralTable, VeroneseVariety

ENV_BRUTE_CAP = "GAUSSDEG_BRUTE_CAP"
FORMATS = ("json", "csv", "table")

# what `csv.writer` quotes: its delimiter, its quote and line breaks, here
# with every control character, a superset over CPython 3.11 to 3.13
_CSV_QUOTED = re.compile(r'[,"\x00-\x1f\x7f]')
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_TEXT_CONSTANTS = {None: "", True: "true", False: "false"}


def effective_brute_cap() -> int:
    """Weight cap of the brute-force tableau count, overridable via GAUSSDEG_BRUTE_CAP."""
    raw = os.environ.get(ENV_BRUTE_CAP)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = integer(raw)
    except ValueError as exc:
        raise ValueError(message("%s must be an integer, got %r", ENV_BRUTE_CAP, raw)) from exc
    if cap < 1:
        raise ValueError(message("%s must be >= 1, got %s", ENV_BRUTE_CAP, cap))
    return cap


def parse_range(text: str, flag: str = "a range") -> range:
    """Parse '3' or '1..4' (inclusive endpoints) into a range of integers.

    Anything else raises a ValueError naming `flag` and the a..b form.
    """
    lo, dots, hi = text.partition("..")
    try:
        lo = integer(lo)
        hi = integer(hi) if dots else lo
    except ValueError:
        template = "%s must be an integer or an inclusive range a..b, got %r"
        raise ValueError(message(template, flag, text)) from None
    return range(lo, hi + 1)


def parse_partition(text: str):
    """Comma-separated `integer` parts, spaces around each ignored, as a partition."""
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return canonical(integer(piece) for piece in items)


class Rows:
    """Row tuples under one header: JSON writes them as a list of objects, one a row."""

    __slots__ = ("header", "rows")

    def __init__(self, header: tuple, rows: list):
        self.header, self.rows = header, rows


# A csv or table cell's text by its kind, and a value's JSON by its kind: any
# other kind's text is its str(), and its JSON the recursive writer's.  A
# string, a `Numeral` included, is its own text; a `Numeral`'s JSON is it,
# quoted.
_TEXT = {
    type(None): _TEXT_CONSTANTS.__getitem__,
    bool: _TEXT_CONSTANTS.__getitem__,
    int: int.__repr__,
    list: lambda items: " ".join(map(str, items)),
}
_TEXT_KINDS = frozenset((str, Numeral))
_JSON = {
    type(None): _JSON_CONSTANTS.__getitem__,
    bool: _JSON_CONSTANTS.__getitem__,
    int: int.__repr__,
    str: encode_basestring_ascii,
}


def _text_column(column: tuple):
    """The csv or table text of `column`'s cells: one kind in one C-level pass, mixed one by one."""
    kinds = set(map(type, column))
    if kinds <= _TEXT_KINDS:
        return column
    if len(kinds) == 1:
        return list(map(_TEXT.get(kinds.pop(), str), column))
    return [_TEXT.get(type(cell), str)(cell) for cell in column]


def _csv_text(header: tuple, columns: list) -> str:
    """`csv.writer(lineterminator="\\n")`'s text of `header` over `columns`, less its last newline.

    The writer quotes a cell that holds its delimiter, its quote or a line
    break, and the lone empty cell of a line; it scans every character to
    find them, the digits of a long number included.  Here the header and
    every column not of `Numeral`s alone are scanned at once for a comma, a
    quote or a control character.  Each line is its cells joined by commas
    unless it has one cell, or, if the scan finds one, a cell not a
    `Numeral` that holds one: such a line is the writer's own, and only
    such a line imports `csv`.
    """
    rows = [header, *zip(*columns)]
    lines = list(map(",".join, rows))
    if len(header) == 1:
        quoted = range(len(rows))
    else:
        scanned = [
            column for column in columns
            if type(column[0]) is not Numeral or set(map(type, column)) != {Numeral}
        ]
        quoted = ()
        if _CSV_QUOTED.search("".join(chain(header, *scanned))):
            quoted = [
                i for i, row in enumerate(rows)
                if _CSV_QUOTED.search("".join([cell for cell in row if type(cell) is not Numeral]))
            ]
    if quoted:
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for i in quoted:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow(rows[i])
            lines[i] = buffer.getvalue()[:-1]
    return "\n".join(lines)


def _table_text(header: tuple, columns: list) -> str:
    """`header` over `columns` aligned: each cell left-justified to its column's widest.

    Two spaces part the columns and each line ends at its last non-blank
    character, so the last column needs no padding.
    """
    *padded, last = [(key, *column) for key, column in zip(header, columns)]
    padded = [map(str.ljust, column, repeat(max(map(len, column)))) for column in padded]
    return "\n".join(map(str.rstrip, map("  ".join, zip(*padded, last))))


def _json_text(doc, newline: str = "\n") -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for a doc of str keys nested at `newline`.

    With an indent set, CPython runs json's pure-Python encoder, which passes
    every string through `encode_basestring_ascii`: about 4 ns a character,
    the digits of a long number included, and every key of every object
    again.  A `partitions.Numeral` needs no escaping and is copied between
    quotes as it is; every other string is escaped as json escapes it.  A
    `Rows` is written a column at a time (`_json_rows`).  The text is
    gathered as one list of chunks and joined once.
    """
    chunks: list[str] = []
    _json_chunks(doc, newline, chunks)
    return "".join(chunks)


def _json_chunks(value, newline: str, chunks: list[str]) -> None:
    """Append `value`'s JSON to `chunks`; `newline` starts a line at its depth."""
    if isinstance(value, dict) and value:
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            opening += encode_basestring_ascii(key) + ": "
            kind = type(item)
            if kind is Numeral:
                chunks += (opening, '"', item, '"')
            elif kind in _JSON:
                chunks += (opening, _JSON[kind](item))
            else:
                chunks.append(opening)
                _json_chunks(item, inner, chunks)
            opening = "," + inner
        chunks.append(newline + "}")
    elif type(value) is Numeral:
        chunks += ('"', value, '"')
    elif type(value) in _JSON:
        chunks.append(_JSON[type(value)](value))
    elif isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif type(value) is Rows:
        _json_rows(value, newline, chunks)
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        opening = "[" + inner
        for item in value:
            chunks.append(opening)
            _json_chunks(item, inner, chunks)
            opening = "," + inner
        chunks.append(newline + "]")
    else:  # an empty container or a float
        chunks.append(json.dumps(value))


def _json_rows(table: Rows, newline: str, chunks: list[str]) -> None:
    """Append the JSON of `table`, a list of objects under its header, to `chunks`.

    Each column is one stream of its values' JSON: of a column of one kind,
    one C-level pass (`int.__repr__`, the null/false/true map,
    `encode_basestring_ascii`, or a `Numeral` as it is); of a column of mixed
    kinds, the recursive writer's cell by cell.  The text between two values
    of a row, a key with the quotes of the `Numeral`s on either side, is made
    once for all rows, and the streams are interleaved row by row into
    `chunks`: each value one chunk, copied only by the final join.
    """
    inner, deeper = newline + "  ", newline + "    "
    streams, quotes = [], []
    for column in zip(*table.rows):
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is Numeral:
            streams.append(column)
            quotes.append('"')
        else:
            convert = _JSON.get(kind)
            streams.append(
                map(convert, column) if convert else [_json_text(cell, deeper) for cell in column]
            )
            quotes.append("")
    keys = [encode_basestring_ascii(key) + ": " for key in table.header]
    start, end = "{" + deeper + keys[0] + quotes[0], quotes[-1] + inner + "}"
    interleaved = [chain(("[" + inner + start,), repeat(end + "," + inner + start)), streams[0]]
    for before, key, quote, stream in zip(quotes, keys[1:], quotes[1:], streams[1:]):
        interleaved += (repeat(before + "," + deeper + key + quote), stream)
    chunks += chain.from_iterable(zip(*interleaved))
    chunks.append(end + newline + "]")


def _render_rows(header: tuple, rows: list[tuple], fmt: str, envelope: dict | None = None) -> str:
    """JSON of `envelope`, or of `rows` under `header`; or csv or table lines of them.

    `rows` holds one tuple or more, each of `header`'s length.  Every writer
    works a column at a time: a column's cells are made text together
    (`_text_column`) and its values JSON together (`_json_rows`).
    """
    if fmt == "json":
        return _json_text(envelope if envelope is not None else Rows(header, rows))
    if len(rows) == 1:  # a single object: its row made text as one column
        columns = [(text,) for text in _text_column(rows[0])]
    else:
        columns = [_text_column(column) for column in zip(*rows)]
    return _csv_text(header, columns) if fmt == "csv" else _table_text(header, columns)


def _render_object(doc: dict, fmt: str) -> str:
    return _render_rows(tuple(doc), [tuple(doc.values())], fmt, envelope=doc)


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
    guard_scan((v.n,), (v.d,))
    rows = list(table_rows(v))
    envelope = {"n": v.n, "d": v.d, "N": v.N, "rows": Rows(TABLE_COLUMNS, rows)}
    print(_render_rows(TABLE_COLUMNS, rows, args.format, envelope))
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITE_COLUMNS, SUITE_NAMES, run_suite  # the one command that needs them

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
        rows = [(result.name, result.passed, result.failed, result.failures) for result in results]
        flat = [(*row[:-1], "; ".join(row[-1])) for row in rows]
        envelope = {"suites": Rows(SUITE_COLUMNS, rows), "ok": ok}
        print(_render_rows(SUITE_COLUMNS, flat, args.format, envelope))
    return 0 if ok else 1


def cmd_conjecture(args) -> int:
    n_values, d_values = parse_range(args.n, "--n"), parse_range(args.d, "--d")
    guard_scan(n_values, d_values)
    rows = list(conjecture_scan(n_values, d_values))
    violations = [row[-1] for row in rows].count(False)  # the last column, within_conjecture
    envelope = {"rows": Rows(CONJECTURE_COLUMNS, rows), "violations": violations}
    text = _render_rows(CONJECTURE_COLUMNS, rows, args.format, envelope)
    if args.format == "table":
        text += f"\nviolations: {violations}"
    print(text)
    return 0


def cmd_generic(args) -> int:
    with open(args.table, encoding="utf-8") as file:
        text = file.read()
    table = SegreIntegralTable.from_json(text)
    guard_reference(table.n, table.N, args.m, 0.0)
    report = degree_generic(table, args.m)
    print(_render_object(report.to_dict(), args.format))
    return 0


def cmd_syt(args) -> int:
    lam = parse_partition(args.shape)
    guard_syt(lam)
    cells = weight(lam)
    cap = effective_brute_cap()
    doc: dict = {"shape": list(lam), "weight": cells, "hook": Numeral(syt_count_hook(lam))}
    if cells <= cap:
        doc["bruteforce"] = Numeral(syt_count_bruteforce(lam, cap=cap))
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
    guard_grassmann(shape)
    doc = {
        "d": args.d,
        "r": args.r,
        "dim": grassmann_dim(shape),
        "degree": Numeral(grassmann_degree(shape)),
    }
    print(_render_object(doc, args.format))
    return 0


REQUIRED = object()  # an `Option` default: the flag must be given


class Option:
    """One `--flag value` option of a subcommand; `default` may be REQUIRED."""

    def __init__(
        self,
        flag: str,
        type: Callable[[str], object] | None = None,
        default: object = None,
        choices=None,
        help: str | None = None,
    ):
        self.flag = flag
        self.type = type
        self.default = default
        self.choices = choices
        self.help = help
        self.dest = flag[2:].replace("-", "_")


class _SuiteNames:
    """`verify.SUITE_NAMES`, the `--suite` choices, read on first use, not at import."""

    def __iter__(self):
        from .verify import SUITE_NAMES

        return iter(SUITE_NAMES)

    def __contains__(self, name) -> bool:
        return name in tuple(self)


FORMAT = Option("--format", choices=FORMATS, default="json")


class Command:
    """One subcommand: its handler, its help line and its options, `--format` last."""

    def __init__(self, handler, help: str, *options: Option):
        self.handler = handler
        self.help = help
        self.options = (*options, FORMAT)
        self.by_flag = {option.flag: option for option in self.options}
        self.defaults = {
            option.dest: option.default for option in self.options if option.default is not REQUIRED
        }
        self.required = {option.flag for option in self.options if option.default is REQUIRED}


# The one declaration of the command line: `build_parser` builds argparse's
# parser from it and `read_canonical` reads a canonical argv by it.
COMMANDS = {
    "degree": Command(
        cmd_degree, "degree and dimension at one (n, d, m)",
        Option("--n", integer, REQUIRED, help="dimension of the source space"),
        Option("--d", integer, REQUIRED, help="degree of the embedding forms"),
        Option("--m", integer, REQUIRED, help="tangent plane dimension"),
        Option("--method", choices=tuple(METHODS), default="main"),
    ),
    "table": Command(
        cmd_table, "sweep all m for one variety",
        Option("--n", integer, REQUIRED),
        Option("--d", integer, REQUIRED),
    ),
    "verify": Command(
        cmd_verify, "run self-check suites",
        Option("--suite", choices=_SuiteNames()),
        Option("--max-n", integer, 6, help="identity suite range"),
        Option("--max-weight", integer, 8, help="syt suite range"),
    ),
    "conjecture": Command(
        cmd_conjecture, "scan the conjectured power bound",
        Option("--n", default=REQUIRED, help="value or inclusive range, e.g. 1..3"),
        Option("--d", default=REQUIRED, help="value or inclusive range, e.g. 2..4"),
    ),
    "generic": Command(
        cmd_generic, "degree from a Schur integral table file",
        Option("--table", default=REQUIRED, help="path to a table JSON file"),
        Option("--m", integer, REQUIRED),
    ),
    "syt": Command(
        cmd_syt, "standard tableau count, both ways",
        Option("--shape", default=REQUIRED, help="comma-separated parts, e.g. 3,1"),
    ),
    "grassmann": Command(
        cmd_grassmann, "Grassmannian dimension and degree",
        Option("--d", integer, REQUIRED, help="quotient rank"),
        Option("--r", integer, REQUIRED, help="ambient rank"),
    ),
}


def build_parser() -> "argparse.ArgumentParser":
    """A new `gaussdeg` parser, built from `COMMANDS`; its errors cut as `message` cuts an echo.

    `main` builds one only for an argv that `read_canonical` declines,
    so no canonical command pays for it or imports `argparse`.  Its
    `verify --suite` choices import `verify`.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, text):
            super().error(message("%s", text))

    parser = Parser(
        prog="gaussdeg",
        description="Exact degrees of tangent m-plane varieties of Veronese embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for option in command.options:
            subparser.add_argument(
                option.flag,
                dest=option.dest,
                type=option.type,
                required=option.default is REQUIRED,
                default=None if option.default is REQUIRED else option.default,
                choices=option.choices,
                help=option.help,
            )
        subparser.set_defaults(func=command.handler)
    return parser


class Arguments(SimpleNamespace):
    """A canonical argv's arguments, equal as argparse's Namespace is: by their attributes."""

    def __eq__(self, other):
        return vars(self) == vars(other) if hasattr(other, "__dict__") else NotImplemented


def read_canonical(argv) -> Arguments | None:
    """`build_parser().parse_args(argv)` for a canonical argv, else None.

    Canonical is a subcommand of `COMMANDS`, then `--flag value` pairs:
    each flag the subcommand's, spelt in full and given once, no value
    starting with "-", every required flag present, and each value of its
    option's type and among its choices.  Anything else, help, an
    abbreviated flag, `--flag=value`, a repeated flag, a negative number
    or an error, is argparse's to read, and gets None here.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or not len(argv) % 2:
        return None
    values = {"command": argv[0], "func": command.handler, **command.defaults}
    given = set()
    for i in range(1, len(argv), 2):
        flag, value = argv[i], argv[i + 1]
        option = command.by_flag.get(flag)
        if option is None or flag in given or type(value) is not str or value[:1] == "-":
            return None
        given.add(flag)
        if option.type is not None:
            try:
                value = option.type(value)
            except (TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if not command.required <= given:
        return None
    return Arguments(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_canonical(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
