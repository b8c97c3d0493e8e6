"""What a one-command process imports: what every command needs, and the rest on first use.

`import gaussdeg.cli` loads the package's modules less `verify`, plus
`json` and `decimal`; the store of kept values takes its lock from the
builtin `_thread`, so keeping a table and its sweep loads nothing more.
`argparse` comes with an argv the command table does not read, `csv`
with a cell that needs quoting, `fractions` with the first `Fraction`,
`verify` with the `verify` command (or a parser, which lists its
suites), and `dataclasses` only when a record refuses an assignment.  Each step below runs in one bare interpreter (`python -S`,
so no site hook loads anything first) and prints what the same call
prints in a process that has loaded everything.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaussdeg.cli import build_parser, main
from gaussdeg.verify import SuiteResult

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = (
    "argparse", "csv", "dataclasses", "fractions", "inspect", "pathlib", "threading", "typing",
    "gaussdeg.verify",
)
CURVE = {"n": 1, "N": 5, "entries": [{"partition": [1], "integral": "8"}]}
# a verify failure whose csv cell must be quoted: a comma and a quote
FAILURES = ('a, "quoted" one',)
CANONICAL = ["degree", "--n", "1", "--d", "4", "--m", "2"]
# (step name, argv); "{table}" is the table file's path
STEPS = (
    ("degree", CANONICAL),
    ("table", ["table", "--n", "2", "--d", "3"]),
    ("generic", ["generic", "--table", "{table}", "--m", "3"]),
    ("verify", ["verify", "--suite", "identity"]),
    ("quoted", ["verify", "--suite", "crossform", "--format", "csv"]),
    ("equals", ["degree", "--n=1", "--d", "4", "--m", "2"]),
    ("help", ["--help"]),
)

# Run in the child: argv[1] the source path, argv[2] the steps and argv[3]
# FAILURES as JSON.  Before the "quoted" step, `verify.run_suite` is
# replaced by one that returns FAILURES, as a failing suite would.
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import gaussdeg, gaussdeg.cli
report = {"import": sorted(sys.modules)}
for name, argv in json.loads(sys.argv[2]):
    if name == "quoted":
        from gaussdeg.verify import SuiteResult
        result = SuiteResult("crossform", 0, 1, tuple(json.loads(sys.argv[3])))
        sys.modules["gaussdeg.verify"].run_suite = lambda name, **options: result
    before = set(sys.modules)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = gaussdeg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report[name] = [code, out.getvalue(), sorted(set(sys.modules) - before)]
print(json.dumps(report))
"""


def _in_process(argv, monkeypatch) -> list:
    """[exit code, stdout] of `main(argv)` in this process, where every module is loaded."""
    monkeypatch.setenv("COLUMNS", "80")  # the width of argparse's help, as in the child
    if "crossform" in argv:
        result = SuiteResult("crossform", 0, 1, FAILURES)
        monkeypatch.setattr("gaussdeg.verify.run_suite", lambda name, **options: result)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue()]


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    table = tmp_path_factory.mktemp("startup") / "curve.json"
    table.write_text(json.dumps(CURVE), encoding="utf-8")
    steps = [(name, [arg.replace("{table}", str(table)) for arg in argv]) for name, argv in STEPS]
    done = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(SRC), json.dumps(steps), json.dumps(FAILURES)],
        env=dict(os.environ, COLUMNS="80"),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return dict(steps), json.loads(done.stdout)


def test_the_package_imports_none_of_what_a_command_loads_on_first_use(child):
    _, report = child
    assert "gaussdeg.cli" in report["import"]
    assert [name for name in LAZY if name in report["import"]] == []


@pytest.mark.parametrize(
    ("step", "loads"),
    [
        ("degree", ()),
        ("generic", ()),
        ("verify", ("gaussdeg.verify",)),
        ("quoted", ("csv",)),
        ("equals", ("argparse",)),
        ("help", ()),
        ("table", ()),
    ],
)
def test_each_command_loads_what_it_needs_and_prints_the_same_bytes(child, step, loads,
                                                                    monkeypatch):
    steps, report = child
    code, out, loaded = report[step]
    assert [name for name in LAZY if name in loaded] == list(loads)
    assert [code, out] == _in_process(steps[step], monkeypatch)
    if step == "equals":
        assert [code, out] == report["degree"][:2]
    if step == "help":
        assert code == 0 and out == build_parser().format_help()
    if step == "quoted":
        assert code == 1 and out.splitlines()[1] == 'crossform,0,1,"a, ""quoted"" one"'
