"""The exit-code contract of the command line, over generated argv.

0 success, 1 a verification failure (`verify` only), 2 bad parameters or
input, 3 no degree exists, 4 an internal invariant failed.  A nonzero exit
writes nothing to stdout and one `error: ` line to stderr, or argparse's
usage block when argparse itself refuses the argv; exit 0 writes nothing
to stderr.  The output itself is pinned by `golden_cli.json`, not here.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdeg.cli import FORMATS, main
from gaussdeg.degrees import METHODS
from gaussdeg.schur import VeroneseVariety, veronese_integral_table

# n = 1 in P^200 with a negative integral: its degree would have about
# 53,000 bits at m = 100, past CPython's 4,300-digit str() limit, but the
# row is refused on its weighted total S = -(200 - m), before the degree
NEGATIVE_TABLE = {"n": 1, "N": 200, "entries": [{"partition": [1], "integral": "-1"}]}
DEPTH = 100_000  # nested lists past the interpreter's recursion limit


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Path of each fixture table by name; "missing" names no file."""
    root = tmp_path_factory.mktemp("tables")
    docs = {
        "valid": veronese_integral_table(VeroneseVariety(2, 3)).to_json(),
        "zero": json.dumps(
            {
                "n": 2,
                "N": 5,
                "entries": [
                    {"partition": [2], "integral": "0"},
                    {"partition": [1, 1], "integral": "0"},
                ],
            }
        ),
        "negative": json.dumps(NEGATIVE_TABLE),
        "incomplete": json.dumps(
            {"n": 2, "N": 5, "entries": [{"partition": [2], "integral": "1"}]}
        ),
        "deep": "[" * DEPTH + "]" * DEPTH,
    }
    paths = {}
    for name, text in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    paths["missing"] = root / "missing.json"
    return paths


def run(argv):
    """main(argv) in process: exit code, stdout, stderr, and whether argparse exited."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    return code, out.getvalue(), err.getvalue(), by_argparse


def ints(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


def option(name, values):
    return st.tuples(st.just(name), values)


def command(name, *options):
    """argv of subcommand `name`: its options in the order given, a format last."""
    parts = [option(*pair) for pair in options] + [option("--format", st.sampled_from(FORMATS))]
    return st.tuples(*parts).map(lambda pairs: [name] + [item for pair in pairs for item in pair])


N, D, M = ints(-1, 5), ints(0, 7), ints(-2, 130)
METHOD = st.sampled_from(tuple(METHODS))
# a range "a" or "a..b"; the sweep guard refuses (5, 7) and (5, 6) at once,
# and the largest box it admits here prints in under a second
RANGE_N = st.one_of(ints(-1, 5), st.tuples(ints(-1, 5), ints(-1, 5)).map("..".join))
RANGE_D = st.one_of(ints(0, 7), st.tuples(ints(0, 7), ints(0, 7)).map("..".join))
SHAPE = st.lists(st.integers(min_value=-1, max_value=6), max_size=5).map(
    lambda parts: ",".join(map(str, parts))
)
TABLE = st.sampled_from(["valid", "zero", "negative", "incomplete", "deep", "missing"])

ARGV = st.one_of(
    command("degree", ("--n", N), ("--d", D), ("--m", M), ("--method", METHOD)),
    command("table", ("--n", N), ("--d", D)),
    command("conjecture", ("--n", RANGE_N), ("--d", RANGE_D)),
    command("verify", ("--suite", st.just("identity")), ("--max-n", ints(-1, 6))),
    command("verify", ("--suite", st.just("syt")), ("--max-weight", ints(-1, 8))),
    command("verify", ("--suite", st.just("schur"))),
    command("syt", ("--shape", SHAPE)),
    command("grassmann", ("--d", ints(-2, 60)), ("--r", ints(-2, 60))),
    command("generic", ("--table", TABLE), ("--m", M)),
)


@settings(max_examples=300, deadline=None)
@given(argv=ARGV)
def test_every_exit_keeps_its_meaning(tables, argv):
    table = argv[2] if argv[0] == "generic" else None
    if table:
        argv[2] = str(tables[table])
    code, out, err, by_argparse = run(argv)
    if by_argparse:
        # argparse's own refusal, such as a shape "-1,2" read as an option
        assert code == 2 and out == ""
        assert err.startswith("usage: gaussdeg") and "error: " in err.splitlines()[-1]
        return
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        # a verification failure, which prints its report
        assert argv[0] == "verify" and err == ""
    elif code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        if "json" in argv:
            json.loads(out)
    if table == "negative" and 1 <= int(argv[4]) <= 199:
        assert code == 3


def test_a_negative_table_exits_3_at_every_m(tables):
    # at m = 21..180 the degree would have over 4,300 digits; each row is
    # named by its S = m - 200 instead, a short int
    for m in range(1, 200):
        code, out, err, _ = run(["generic", "--table", str(tables["negative"]), "--m", str(m)])
        assert (code, out) == (3, ""), m
        assert err.startswith(f"error: weighted total {m - 200} <= 0 at m = {m}: "), m
        assert err.count("\n") == 1
