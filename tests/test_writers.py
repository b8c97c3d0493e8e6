"""The three writers against the rules they must keep, byte for byte.

JSON is `json.dumps(doc, indent=2)` of the document with each row a dict
under its header; CSV is `csv.writer(lineterminator="\\n")` over the header
and each row's cells, less the last newline; the aligned table is the rule
below, `_reference_table`.  Both references are the rules as written
before the writers copied a number's digits as they are and worked a
column at a time.  The rows compared are those every command hands its
writer, recorded as it runs, and random rows under random headers, their
columns of one kind or of mixed kinds.
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
render_rows = gaussdeg.cli._render_rows


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


def _assert_written_as_the_rules_write(header, rows, envelope=None):
    doc = envelope if envelope is not None else Rows(header, rows)
    assert render_rows(header, rows, "json", envelope) == json.dumps(_plain(doc), indent=2)
    assert render_rows(header, rows, "csv", envelope) == _reference_csv(header, rows)
    assert render_rows(header, rows, "table", envelope) == _reference_table(header, rows)


def _recorded(monkeypatch, capsys, argv) -> list[tuple]:
    """The (header, rows, envelope) each writer call of `main(argv)` was handed, in json and csv."""
    calls = []

    def recorded(header, rows, fmt, envelope=None):
        calls.append((header, rows, envelope))
        return render_rows(header, rows, fmt, envelope)

    monkeypatch.setattr(gaussdeg.cli, "_render_rows", recorded)
    for fmt in ("json", "csv"):
        assert main([*argv, "--format", fmt]) in (0, 1)
    capsys.readouterr()
    assert calls
    return calls


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
    for header, rows, envelope in _recorded(monkeypatch, capsys, argv):
        assert all(type(row) is tuple and len(row) == len(header) for row in rows)
        _assert_written_as_the_rules_write(header, rows, envelope)


def test_long_decimal_rows_are_copied_whole(monkeypatch, capsys):
    ((header, rows, _), *_) = _recorded(monkeypatch, capsys, ["table", "--n", "3", "--d", "10"])
    assert header == TABLE_COLUMNS
    m, dim, degree, ratio, _ = max(rows, key=lambda row: len(row[2]))
    assert len(degree) > 4300 and type(degree) is Numeral
    assert f"{m},{dim},{degree},{ratio}," in render_rows(header, rows, "csv")


def test_verify_failures_with_commas_quotes_and_line_breaks(monkeypatch, capsys):
    # csv quotes the joined failures, doubling each quote; json lists them
    failures = ('a, "quoted" one', "two\nlines", 'plain', 'carriage\r, return "')
    result = SuiteResult("crossform", 3, len(failures), failures)
    monkeypatch.setattr(gaussdeg.verify, "run_suite", lambda name, **options: result)
    calls = _recorded(monkeypatch, capsys, ["verify", "--suite", "crossform"])
    for header, rows, envelope in calls:
        assert dict(zip(header, rows[0]))["failures"] == "; ".join(failures)
        assert _plain(envelope)["suites"][0]["failures"] == failures
        _assert_written_as_the_rules_write(header, rows, envelope)
    for fmt in ("json", "csv"):
        assert main(["verify", "--suite", "crossform", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["suites"][0]["failures"] == list(failures)
        else:
            assert list(csv.reader(io.StringIO(out)))[1][3] == "; ".join(failures)


def test_syt_note_and_empty_cell(monkeypatch, capsys):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "5")
    ((header, rows, _), *_) = _recorded(monkeypatch, capsys, ["syt", "--shape", "3,2,1"])
    doc = dict(zip(header, rows[0]))
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
def _tables(draw) -> tuple:
    """(header, rows): 1-5 keys over 1-4 row tuples, each column one kind or mixed."""
    header = tuple(draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True)))
    count = draw(st.integers(min_value=1, max_value=4))
    columns = [
        draw(st.lists(draw(st.sampled_from((*_KINDS, _MIXED))), min_size=count, max_size=count))
        for _ in header
    ]
    return header, list(zip(*columns))


@given(_tables())
def test_random_flat_rows_are_written_as_the_rules_write(table):
    header, rows = table
    _assert_written_as_the_rules_write(header, rows)
    _assert_written_as_the_rules_write(header, rows, {"rows": Rows(header, rows), "count": 1})
