"""The three writers against the rules they must keep, byte for byte.

JSON is `json.dumps(doc, indent=2)`; CSV is `csv.writer(lineterminator="\\n")`
over each row's cells, less the last newline; the aligned table is the rule
below, `_reference_table`.  Both references are the rules as written
before the writers copied a number's digits as they are.  The rows compared
are those every command hands its writer, recorded as it runs, and random
flat rows of every kind of cell.
"""

import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaussdeg.cli
import gaussdeg.verify
from gaussdeg.cli import main
from gaussdeg.partitions import Numeral
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


def _reference_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    headers = list(rows[0].keys())
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_reference_cell(row.get(h)) for h in headers])
    return buffer.getvalue().rstrip("\n")


def _reference_table(rows: list[dict]) -> str:
    headers = list(rows[0].keys())
    cells = [[_reference_cell(row.get(h)) for h in headers] for row in rows]
    widths = [
        max(len(header), max(len(line[i]) for line in cells))
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for line in cells:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    return "\n".join(lines)


def _assert_written_as_the_rules_write(rows, envelope=None):
    doc = envelope if envelope is not None else rows
    assert render_rows(rows, "json", envelope) == json.dumps(doc, indent=2)
    assert render_rows(rows, "csv", envelope) == _reference_csv(rows)
    assert render_rows(rows, "table", envelope) == _reference_table(rows)


def _recorded(monkeypatch, capsys, argv) -> list[tuple]:
    """The (rows, envelope) each writer call of `main(argv)` was handed, in json and csv."""
    calls = []

    def recorded(rows, fmt, envelope=None):
        calls.append((rows, envelope))
        return render_rows(rows, fmt, envelope)

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
    for rows, envelope in _recorded(monkeypatch, capsys, argv):
        _assert_written_as_the_rules_write(rows, envelope)


def test_long_decimal_rows_are_copied_whole(monkeypatch, capsys):
    ((rows, _), *_) = _recorded(monkeypatch, capsys, ["table", "--n", "3", "--d", "10"])
    longest = max(rows, key=lambda row: len(row["degree"]))
    assert len(longest["degree"]) > 4300 and type(longest["degree"]) is Numeral
    line = f'{longest["m"]},{longest["dim"]},{longest["degree"]},{longest["ratio"]},'
    assert line in render_rows(rows, "csv")


def test_verify_failures_with_commas_quotes_and_line_breaks(monkeypatch, capsys):
    # csv quotes the joined failures, doubling each quote; json lists them
    failures = ('a, "quoted" one', "two\nlines", 'plain', 'carriage\r, return "')
    result = SuiteResult("crossform", 3, len(failures), failures)
    monkeypatch.setattr(gaussdeg.verify, "run_suite", lambda name, **options: result)
    calls = _recorded(monkeypatch, capsys, ["verify", "--suite", "crossform"])
    for rows, envelope in calls:
        assert rows[0]["failures"] == "; ".join(failures)
        assert envelope["suites"][0]["failures"] == failures
        _assert_written_as_the_rules_write(rows, envelope)
    for fmt in ("json", "csv"):
        assert main(["verify", "--suite", "crossform", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["suites"][0]["failures"] == list(failures)
        else:
            assert list(csv.reader(io.StringIO(out)))[1][3] == "; ".join(failures)


def test_syt_note_and_empty_cell(monkeypatch, capsys):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "5")
    ((rows, envelope), *_) = _recorded(monkeypatch, capsys, ["syt", "--shape", "3,2,1"])
    assert rows[0]["bruteforce"] is None and "exceeds brute-force cap 5" in rows[0]["note"]
    assert main(["syt", "--shape", "3,2,1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("3 2 1,6,16,,weight 6 exceeds")


_KEYS = st.sampled_from(["m", "degree", "a,b", 'say "x"', "", "line\nbreak", "é"])
_CELLS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=8)
    | st.sampled_from(["", " ", ",", '"', '""', "\r", "\n", "\r\n", "\x00", " lead", "trail "])
    | st.integers().map(Numeral)
    | st.fractions().map(Numeral)
    | st.lists(st.integers(min_value=0, max_value=99), max_size=3)
)


@given(
    keys=st.lists(_KEYS, min_size=1, max_size=4, unique=True),
    cells=st.lists(st.lists(_CELLS, min_size=4, max_size=4), min_size=1, max_size=4),
    dropped=st.integers(min_value=0, max_value=4),
)
def test_random_flat_rows_are_written_as_the_rules_write(keys, cells, dropped):
    # a row may lack a key of the first row and hold one it lacks: the csv
    # and table lines read the first row's keys, an empty cell for a missing one
    rows = [dict(zip(keys, line)) for line in cells]
    if dropped < len(keys) and len(rows) > 1:
        del rows[-1][keys[dropped]]
        rows[-1]["extra"] = 1
    _assert_written_as_the_rules_write(rows)
    _assert_written_as_the_rules_write(rows, {"rows": rows, "count": len(rows)})
