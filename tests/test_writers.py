"""The three writers against the rules they must keep, byte for byte.

A command hands `cli._render` one document, a dict.  JSON is
`json.dumps(doc, indent=2)` of it with each row of its `Rows` a dict under
the header; CSV is `csv.writer(lineterminator="\\n")` over the header and
each row's cells of the document's one `Rows`, or of the document itself
as one row, less the last newline; the aligned table is the rule below,
`_reference_table`, over the same header and rows.  Both references are
the rules as written before the writers copied a number's digits as they
are and worked a column at a time.  The documents compared are those
every command hands its writer, recorded as it runs, and random ones:
random rows under random headers, their columns of one kind or of mixed
kinds, beside other values or as a single object.
"""

import csv
import io
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaussdeg.cli
import gaussdeg.verify
from gaussdeg.cli import Rows, main
from gaussdeg.degrees import (
    CONJECTURE_COLUMNS,
    TABLE_COLUMNS,
    bounds,
    conjecture_scan,
    table_rows,
)
from gaussdeg.partitions import Numeral
from gaussdeg.schur import VeroneseVariety
from gaussdeg.verify import SuiteResult

# the writer, as imported: `_recorded` patches the module's name to record its calls
render = gaussdeg.cli._render
# what a command's document is made of: plain containers, `Rows` and scalars
PLAIN = {dict, list, tuple, Rows, Numeral, str, int, bool, type(None)}


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(item) for item in value)
    return str(value)


def _reference_csv(header: tuple, rows: list[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_cell(cell) for cell in row])
    return buffer.getvalue().rstrip("\n")


def _reference_table(header: tuple, rows: list[tuple]) -> str:
    cells = [[_reference_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(key), max(len(line[i]) for line in cells)) for i, key in enumerate(header)
    ]
    lines = ["  ".join(key.ljust(widths[i]) for i, key in enumerate(header)).rstrip()]
    for line in cells:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return "\n".join(lines)


def _plain(doc):
    """`doc` with each `Rows` a list of dicts, one a row, as json.dumps is handed it."""
    if isinstance(doc, Rows):
        return [dict(zip(doc.header, row)) for row in doc.rows]
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    return doc


def _kinds(value) -> set:
    """The types of `value` and of everything in it, a `Rows`'s cells included."""
    inner = ()
    if type(value) is Rows:
        inner = [cell for row in value.rows for cell in row]
    elif isinstance(value, dict):
        inner = value.values()
    elif isinstance(value, (list, tuple)):
        inner = value
    return {type(value)}.union(*map(_kinds, inner))


def _table(doc: dict) -> Rows:
    """The rows CSV and the table write: `doc`'s one `Rows`, or `doc` as one row."""
    tables = [value for value in doc.values() if isinstance(value, Rows)]
    return tables[0] if tables else Rows(tuple(doc), [tuple(doc.values())])


def _assert_written_as_the_rules_write(doc: dict):
    table = _table(doc)
    assert render(doc, "json") == json.dumps(_plain(doc), indent=2)
    assert render(doc, "csv") == _reference_csv(table.header, table.rows)
    assert render(doc, "table") == _reference_table(table.header, table.rows)


def _recorded(monkeypatch, capsys, argv) -> list[dict]:
    """The document each writer call of `main(argv)` was handed, in json and csv."""
    docs = []

    def recorded(doc, fmt):
        docs.append(doc)
        return render(doc, fmt)

    monkeypatch.setattr(gaussdeg.cli, "_render", recorded)
    for fmt in ("json", "csv"):
        assert main([*argv, "--format", fmt]) in (0, 1)
    capsys.readouterr()
    assert len(docs) == 2  # one call a command
    return docs


GENERIC_TABLE = {
    "n": 2,
    "N": 9,
    "entries": [{"partition": [2], "integral": "3"}, {"partition": [1, 1], "integral": "5"}],
}
COMMANDS = [
    ("degree", "--n", "2", "--d", "3", "--m", "4"),
    ("degree", "--n", "1", "--d", "6", "--m", "3", "--method", "curve_closed"),
    ("degree", "--n", "2", "--d", "2", "--m", "4", "--method", "boole"),
    ("table", "--n", "2", "--d", "3"),
    # one row, of `Numeral`, bool and int columns
    ("table", "--n", "1", "--d", "2"),
    # rows of Decimal degrees of up to 35,095 digits, past the 4,300-digit str() limit
    ("table", "--n", "3", "--d", "10"),
    ("conjecture", "--n", "1..2", "--d", "2..4"),
    ("conjecture", "--n", "1", "--d", "200"),
    ("verify", "--suite", "identity"),
    ("verify",),
    ("generic", "--table", "{table}", "--m", "4"),
    ("syt", "--shape", "3,1"),
    # past the brute-force cap: `bruteforce` is None and a note is written
    ("syt", "--shape", "4,3,2,1,1,1"),
    ("grassmann", "--d", "2", "--r", "5"),
    ("grassmann", "--d", "0", "--r", "3"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv)[:40])
def test_every_command_writes_its_rows_as_the_rules_write(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "10")
    table = tmp_path / "table.json"
    table.write_text(json.dumps(GENERIC_TABLE), encoding="utf-8")
    argv = [arg.format(table=table) for arg in argv]
    for doc in _recorded(monkeypatch, capsys, argv):
        assert type(doc) is dict and _kinds(doc) <= PLAIN
        assert [type(value) for value in doc.values()].count(Rows) <= 1
        written = _table(doc)
        assert all(type(row) is tuple and len(row) == len(written.header) for row in written.rows)
        _assert_written_as_the_rules_write(doc)


def test_long_decimal_rows_are_copied_whole(monkeypatch, capsys):
    (doc, _) = _recorded(monkeypatch, capsys, ["table", "--n", "3", "--d", "10"])
    assert doc["rows"].header == TABLE_COLUMNS
    m, dim, degree, ratio, _ = max(doc["rows"].rows, key=lambda row: len(row[2]))
    assert len(degree) > 4300 and type(degree) is Numeral
    assert f"{m},{dim},{degree},{ratio}," in render(doc, "csv")


def test_verify_failures_with_commas_quotes_and_line_breaks(monkeypatch, capsys):
    # csv quotes the joined failures, doubling each quote; json lists them
    failures = ('a, "quoted" one', "two\nlines", 'plain', 'carriage\r, return "')
    result = SuiteResult("crossform", 3, len(failures), failures)
    monkeypatch.setattr(gaussdeg.verify, "run_suite", lambda name, **options: result)
    as_json, as_csv = _recorded(monkeypatch, capsys, ["verify", "--suite", "crossform"])
    assert _plain(as_json)["suites"][0]["failures"] == failures
    assert _plain(as_csv)["suites"][0]["failures"] == "; ".join(failures)
    for doc in (as_json, as_csv):
        _assert_written_as_the_rules_write(doc)
    for fmt in ("json", "csv"):
        assert main(["verify", "--suite", "crossform", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["suites"][0]["failures"] == list(failures)
        else:
            assert list(csv.reader(io.StringIO(out)))[1][3] == "; ".join(failures)


def test_syt_note_and_empty_cell(monkeypatch, capsys):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "5")
    (doc, _) = _recorded(monkeypatch, capsys, ["syt", "--shape", "3,2,1"])
    assert doc["bruteforce"] is None and "exceeds brute-force cap 5" in doc["note"]
    assert main(["syt", "--shape", "3,2,1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("3 2 1,6,16,,weight 6 exceeds")


@pytest.mark.parametrize("v", [VeroneseVariety(1, 200), VeroneseVariety(3, 7)], ids=str)
def test_sweep_rows_are_their_headers_length_and_the_single_cells(v):
    table = list(table_rows(v))
    scanned = list(conjecture_scan((v.n,), (v.d,)))
    assert len(table) == len(scanned) == v.N - v.n
    assert {len(row) for row in table} == {len(TABLE_COLUMNS)}
    assert {len(row) for row in scanned} == {len(CONJECTURE_COLUMNS)}
    # a single cell's record holds ints, whose text passes 4,300 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for m, row in enumerate(scanned, start=v.n):
            assert dict(zip(CONJECTURE_COLUMNS, row)) == bounds(v, m).to_dict(), m
    finally:
        sys.set_int_max_str_digits(limit)


_KEYS = st.sampled_from(["m", "degree", "a,b", 'say "x"', "", "line\nbreak", "é", "nul\x00"])
_TEXTS = st.text(max_size=8) | st.sampled_from(
    ["", " ", ",", '"', '""', "\r", "\n", "\r\n", "\x00", " lead", "trail ", "é ∂ 😀", 'a, "b"']
)
# a number's text past the 4,300-digit str() limit, as a sweep's Decimal writes it
_LONG_NUMERALS = st.builds(
    lambda sign, digits: Numeral(sign + "9" * digits), st.sampled_from(["", "-"]),
    st.integers(5_000, 6_000),
)
# the cells of a column of one kind each, and of a column of any kinds
_KINDS = (
    st.none(),
    st.booleans(),
    st.integers(),
    _TEXTS,
    st.integers().map(Numeral) | st.fractions().map(Numeral) | _LONG_NUMERALS,
    st.lists(st.integers(min_value=0, max_value=99), max_size=3),
)
_MIXED = st.one_of(*_KINDS)


@st.composite
def _documents(draw) -> dict:
    """1-5 keys over 1-4 row tuples, each column one kind or mixed, as a document.

    The rows are a `Rows` among 0-3 other values, or their first row is a
    single object under the keys.
    """
    header = tuple(draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True)))
    count = draw(st.integers(min_value=1, max_value=4))
    columns = [
        draw(st.lists(draw(st.sampled_from((*_KINDS, _MIXED))), min_size=count, max_size=count))
        for _ in header
    ]
    rows = list(zip(*columns))
    if draw(st.booleans()):
        return dict(zip(header, rows[0]))
    items = list(draw(st.dictionaries(_KEYS, _MIXED, max_size=3)).items())
    key = draw(_KEYS.filter(lambda key: key not in dict(items)))
    items.insert(draw(st.integers(0, len(items))), (key, Rows(header, rows)))
    return dict(items)


@given(_documents())
def test_random_flat_rows_are_written_as_the_rules_write(doc):
    _assert_written_as_the_rules_write(doc)
