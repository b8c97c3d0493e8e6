"""Byte-identity of the command line: SHA-256 of stdout plus the exit code.

`golden_cli.json` pins, for every command of `golden_commands()`, the exit
code and the SHA-256 of everything written to stdout.  The commands cover
every subcommand in all three formats at small sizes: all seven `degree`
methods at every m of four varieties (one step out of range on each side
included, so inapplicable methods are pinned too), `table`, `conjecture`,
`verify`, `generic` on tables written here (two with N < 2n, where
partitions with more than N - m rows drop out), `syt`, `grassmann`, and the
parameter errors that exit 2.  Larger cells pin Grassmannians of many rows
(up to 199 x 1) and degrees of up to about 4,000 digits: `grassmann` up to
G(199, 200), and every applicable method at a few m of (1, 200), (4, 5)
and (6, 3).  Whole sweeps over m pin the m-to-m Grassmannian sweep:
`table` on (1, 60), (1, 110), (2, 12), (3, 6), (4, 4) and (5, 3), whose
rectangles reach 625 to 2,970 cells, and `conjecture` on n = 1,
d = 40..42.  Refactors must leave every entry unchanged.

Regenerate the file only for an intended output change:
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gaussdeg.cli import main
from gaussdeg.degrees import METHODS
from gaussdeg.schur import VeroneseVariety

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("json", "csv", "table")
VARIETIES = ((1, 5), (2, 3), (3, 2), (4, 2))
# (n, d, values of m) whose Grassmannian G(m-n, N-n) has many rows or many columns
MANY_ROW_CELLS = ((1, 200, (2, 199)), (4, 5, (5, 6, 90, 121, 123, 124)), (6, 3, (8, 75, 81, 82)))
GRASSMANNIANS = (
    (2, 5), (0, 3), (3, 3), (1, 1), (4, 3), (-1, 2),
    (1, 80), (1, 200), (40, 80), (40, 90), (70, 80), (70, 90), (199, 200),
)
# (n, d) whose `table` sweeps rectangles of hundreds to thousands of cells
SWEPT_TABLES = ((1, 60), (1, 110), (2, 12), (3, 6), (4, 4), (5, 3))
TABLE_DIR = "{tables}"


def _table_docs() -> dict[str, str]:
    """Table files the `generic` commands read, by file name."""
    curve = {"n": 1, "N": 5, "entries": [{"partition": [1], "integral": "8"}]}
    zero = {
        "n": 2,
        "N": 5,
        "entries": [
            {"partition": [2], "integral": "0"},
            {"partition": [1, 1], "integral": "0"},
        ],
    }
    incomplete = {"n": 3, "N": 9, "entries": [{"partition": [3], "integral": "1"}]}
    # N < 2n: at every m some partitions have more than N - m rows
    narrow34 = {"n": 3, "N": 4, "entries": [
        {"partition": [3], "integral": "5"},
        {"partition": [2, 1], "integral": "7"},
        {"partition": [1, 1, 1], "integral": "11"},
    ]}
    narrow46 = {"n": 4, "N": 6, "entries": [
        {"partition": [4], "integral": "3"},
        {"partition": [3, 1], "integral": "-4"},
        {"partition": [2, 2], "integral": "4"},
        {"partition": [2, 1, 1], "integral": "9"},
        {"partition": [1, 1, 1, 1], "integral": "-100"},
    ]}
    return {
        "veronese23.json": VeroneseVariety(2, 3).integral_table.to_json(),
        "curve.json": json.dumps(curve),
        "zero.json": json.dumps(zero),
        "incomplete.json": json.dumps(incomplete),
        "narrow34.json": json.dumps(narrow34),
        "narrow46.json": json.dumps(narrow46),
        "empty40.json": json.dumps({"n": 40, "N": 100, "entries": []}),
        "notjson.json": "{",
    }


def golden_commands() -> dict[str, list[list[str]]]:
    """Every pinned argv, grouped by subcommand."""
    groups: dict[str, list[list[str]]] = {name: [] for name in (
        "degree", "table", "conjecture", "verify", "generic", "syt", "grassmann", "errors")}
    for fmt in FORMATS:
        tail = ["--format", fmt]
        for n, d in VARIETIES:
            big_n = VeroneseVariety(n, d).N
            for m in range(n - 1, big_n + 1):
                for method in METHODS:
                    groups["degree"].append(
                        ["degree", "--n", str(n), "--d", str(d), "--m", str(m),
                         "--method", method, *tail])
            groups["table"].append(["table", "--n", str(n), "--d", str(d), *tail])
        for n, d in SWEPT_TABLES:
            groups["table"].append(["table", "--n", str(n), "--d", str(d), *tail])
        for n, d, ms in MANY_ROW_CELLS:
            v = VeroneseVariety(n, d)
            for m in ms:
                for method in (name for name, entry in METHODS.items() if entry.applies(v, m)):
                    groups["degree"].append(
                        ["degree", "--n", str(n), "--d", str(d), "--m", str(m),
                         "--method", method, *tail])
        groups["conjecture"].append(["conjecture", "--n", "1..2", "--d", "2..3", *tail])
        groups["conjecture"].append(["conjecture", "--n", "2", "--d", "4", *tail])
        groups["conjecture"].append(["conjecture", "--n", "1", "--d", "40..42", *tail])
        groups["verify"].append(["verify", *tail])
        groups["verify"].append(["verify", "--suite", "identity", "--max-n", "3", *tail])
        groups["verify"].append(["verify", "--suite", "syt", "--max-weight", "5", *tail])
        for name, ms in (("veronese23.json", range(1, 10)), ("curve.json", range(0, 6)),
                         ("zero.json", (3,)), ("incomplete.json", (4,)),
                         ("narrow34.json", range(2, 5)), ("narrow46.json", range(3, 7)),
                         ("empty40.json", (50,)), ("notjson.json", (3,)),
                         ("absent.json", (3,))):
            for m in ms:
                groups["generic"].append(
                    ["generic", "--table", f"{TABLE_DIR}/{name}", "--m", str(m), *tail])
        for shape in ("3,1", "4,2,1", "", "2,2,2,2,2,2,1", "13", "1,2", "x"):
            groups["syt"].append(["syt", "--shape", shape, *tail])
        for d, r in GRASSMANNIANS:
            groups["grassmann"].append(["grassmann", "--d", str(d), "--r", str(r), *tail])
        for argv in (
            ["degree", "--n", "0", "--d", "3", "--m", "1"],
            ["degree", "--n", "2", "--d", "1", "--m", "2"],
            ["table", "--n", "0", "--d", "2"],
            ["table", "--n", "1", "--d", "1"],
            ["conjecture", "--n", "2..1", "--d", "2"],
            ["conjecture", "--n", "1", "--d", "x"],
            ["verify", "--max-weight", "20"],
            ["verify", "--max-weight", "-1"],
            ["verify", "--max-n", "0"],
            ["degree", "--n", "1", "--d", "4", "--m", "2", "--method", "bogus"],
            ["degree", "--n", "1", "--d", "4"],
        ):
            groups["errors"].append([*argv, *tail])
    return groups


def run_command(argv: list[str], table_dir: Path) -> str:
    """'<exit code> <sha256 of stdout>' for one in-process run of the CLI."""
    argv = [arg.replace(TABLE_DIR, str(table_dir)) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def write_tables(table_dir: Path) -> None:
    for name, text in _table_docs().items():
        (table_dir / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", list(golden_commands()))
def test_cli_output_matches_golden(group, golden, tmp_path, monkeypatch):
    monkeypatch.delenv("GAUSSDEG_BRUTE_CAP", raising=False)
    write_tables(tmp_path)
    commands = golden_commands()[group]
    assert commands
    mismatches = [
        " ".join(argv)
        for argv in commands
        if run_command(argv, tmp_path) != golden[" ".join(argv)]
    ]
    assert mismatches == []


def test_golden_file_pins_exactly_the_commands():
    keys = {" ".join(argv) for group in golden_commands().values() for argv in group}
    assert keys == set(json.loads(GOLDEN.read_text(encoding="utf-8")))


if __name__ == "__main__":
    import tempfile

    os.environ.pop("GAUSSDEG_BRUTE_CAP", None)
    with tempfile.TemporaryDirectory() as scratch:
        write_tables(Path(scratch))
        pins = {
            " ".join(argv): run_command(argv, Path(scratch))
            for group in golden_commands().values()
            for argv in group
        }
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} entries to {GOLDEN}", file=sys.stderr)
