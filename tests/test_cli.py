"""Command-line behavior: exit codes, formats, and thin-wrapper fidelity."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaussdeg.cli
import gaussdeg.cost
import gaussdeg.degrees
import gaussdeg.grassmann
import gaussdeg.partitions
import gaussdeg.schur
from gaussdeg.cli import main, parse_partition, parse_range, read_canonical
from gaussdeg.degrees import bounds, degree_main
from gaussdeg.partitions import KEPT, Numeral
from gaussdeg.schur import VeroneseVariety, veronese_integral_table
from test_exit_codes import ARGV as EXIT_CODE_ARGV
from test_golden_cli import golden_commands

ZERO_TABLE = json.dumps(
    {
        "n": 2,
        "N": 5,
        "entries": [
            {"partition": [2], "integral": "0"},
            {"partition": [1, 1], "integral": "0"},
        ],
    }
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_process(*argv, timeout=60, **environ):
    """`python -m gaussdeg.cli *argv` in a child process: exit code, stdout, stderr.

    `environ` adds to the child's environment.
    """
    env = dict(os.environ, **environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "gaussdeg.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return done.returncode, done.stdout, done.stderr


def test_parse_range():
    assert tuple(parse_range("3")) == (3,)
    assert tuple(parse_range("1..4")) == (1, 2, 3, 4)
    assert tuple(parse_range("4..1")) == ()
    with pytest.raises(ValueError):
        parse_range("x")


def test_parse_partition():
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("") == ()
    assert parse_partition(" 4 , 2 ") == (4, 2)
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_degree_json(capsys):
    code, out, err = run_cli(capsys, "degree", "--n", "1", "--d", "4", "--m", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["degree"] == "12"
    assert doc["dim"] == 3
    assert doc["method"] == "main"


def test_degree_example_surface(capsys):
    code, out, _ = run_cli(capsys, "degree", "--n", "2", "--d", "2", "--m", "3")
    assert code == 0
    assert json.loads(out)["degree"] == "21"


def test_degree_out_of_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "degree", "--n", "2", "--d", "2", "--m", "5")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_degree_invalid_n_exits_2(capsys):
    code, _, err = run_cli(capsys, "degree", "--n", "0", "--d", "4", "--m", "2")
    assert code == 2 and "n must be" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--n", "1", "--d", "4", "--m", "2", "--method", "alternate"), "12"),
        (("--n", "1", "--d", "4", "--m", "2", "--method", "curve_closed"), "12"),
        (("--n", "1", "--d", "4", "--m", "2", "--method", "m_eq_n_plus_1"), "12"),
        (("--n", "2", "--d", "2", "--m", "3", "--method", "surface_closed"), "21"),
        (("--n", "2", "--d", "2", "--m", "4", "--method", "boole"), "3"),
        (("--n", "3", "--d", "2", "--m", "8", "--method", "threefold_closed"), "4"),
    ],
)
def test_degree_methods(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "degree", *argv)
    assert code == 0
    assert json.loads(out)["degree"] == expected


@pytest.mark.parametrize(
    "method, n, m, requirement",
    [
        pytest.param("curve_closed", 2, 3, "n = 1", id="curve_closed"),
        pytest.param("surface_closed", 1, 2, "n = 2", id="surface_closed"),
        pytest.param("threefold_closed", 2, 3, "n = 3", id="threefold_closed"),
        pytest.param("m_eq_n_plus_1", 2, 4, "m = n + 1", id="m_eq_n_plus_1"),
        pytest.param("boole", 2, 3, "m = N - 1", id="boole"),
    ],
)
def test_degree_method_mismatch_exits_2(capsys, method, n, m, requirement):
    code, out, err = run_cli(
        capsys, "degree", "--n", str(n), "--d", "2", "--m", str(m), "--method", method
    )
    assert code == 2 and out == ""
    assert f"method {method} requires {requirement}" in err


def test_table_curve(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--d", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 4
    assert [row["m"] for row in doc["rows"]] == [1, 2, 3]
    assert [row["degree"] for row in doc["rows"]] == ["6", "12", "6"]


def test_table_surface(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert [row["degree"] for row in doc["rows"]] == ["9", "21", "3"]


def test_table_conic(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0] == {
        "m": 1,
        "dim": 1,
        "degree": "2",
        "ratio": "1",
        "within_conjecture": True,
    }


def test_table_csv_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--d", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,dim,degree,ratio,within_conjecture"
    assert len(lines) == 4
    assert lines[1].startswith("1,1,6,")


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "1", "--d", "4", "--format", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["m", "dim", "degree", "ratio", "within_conjecture"]
    assert len(lines) == 4


# strings with quotes, backslashes, control characters and non-ASCII text;
# numbers' decimal text marked as `Numeral`; nested and empty containers
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é ∂ 😀"])
    | st.integers().map(Numeral)
    | st.fractions().map(Numeral)
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_DOCS)
def test_json_writer_is_json_dumps_with_indent_2(doc):
    assert gaussdeg.cli._json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_escapes_a_plain_string_and_copies_a_numeral():
    doc = {'say "1"\\': ['"1"', Numeral(-12), Numeral(Fraction(3, 4))]}
    assert gaussdeg.cli._json_text(doc) == (
        '{\n  "say \\"1\\"\\\\": [\n    "\\"1\\"",\n    "-12",\n    "3/4"\n  ]\n}'
    )


def test_verify_identity_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identity", "--max-n", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["suites"][0]["suite"] == "identity"
    assert doc["suites"][0]["passed"] == 6
    assert doc["suites"][0]["failed"] == 0


def test_verify_syt_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "syt", "--max-weight", "8")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_crossform_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "crossform")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_all_suites_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "4", "--max-weight", "6", "--format", "table"
    )
    assert code == 0
    assert "suite identity:" in out
    assert "suite bounds:" in out
    assert "0 failed" in out


def test_verify_max_weight_above_cap_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("GAUSSDEG_BRUTE_CAP", raising=False)
    code, _, err = run_cli(capsys, "verify", "--suite", "syt", "--max-weight", "13")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("--suite", "syt", "--max-n", "0"), None),
        (("--suite", "identity", "--max-weight", "-1"), None),
        (("--suite", "identity"), "zero"),
    ],
    ids=["syt-max-n", "identity-max-weight", "identity-brute-cap"],
)
def test_verify_checks_only_the_options_of_the_suites_it_runs(capsys, monkeypatch, argv, cap):
    # each suite validates its own options; one it never runs is not read
    if cap is None:
        monkeypatch.delenv("GAUSSDEG_BRUTE_CAP", raising=False)
    else:
        monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", cap)
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0 and json.loads(out)["ok"] is True


BOOLE_FAILURES = [
    "boole (n=1, d=2, m=1): got 3, want 2",
    "boole (n=1, d=3, m=2): got 5, want 4",
    "boole (n=1, d=4, m=3): got 7, want 6",
    "boole (n=2, d=2, m=4): got 4, want 3",
    "boole (n=2, d=3, m=8): got 13, want 12",
    "boole (n=2, d=4, m=13): got 28, want 27",
    "boole (n=3, d=2, m=8): got 5, want 4",
    "boole (n=3, d=3, m=18): got 33, want 32",
    "boole (n=3, d=4, m=33): got 109, want 108",
]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_verify_failure_output(capsys, monkeypatch, fmt):
    # the registry's lambdas look boole_degree up at call time, so an
    # off-by-one dual degree fails the m = N-1 cell of every variety
    true_boole = gaussdeg.degrees.boole_degree
    monkeypatch.setattr(
        gaussdeg.degrees, "boole_degree", lambda n, d: true_boole(n, d) + 1
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "crossform", "--format", fmt)
    assert code == 1
    if fmt == "json":
        suite = {"suite": "crossform", "passed": 266, "failed": 9, "failures": BOOLE_FAILURES}
        expected = json.dumps({"suites": [suite], "ok": False}, indent=2) + "\n"
    elif fmt == "csv":
        joined = "; ".join(BOOLE_FAILURES)
        expected = f'suite,passed,failed,failures\ncrossform,266,9,"{joined}"\n'
    else:
        lines = ["suite crossform: 266 passed, 9 failed"]
        lines += [f"  FAIL {failure}" for failure in BOOLE_FAILURES]
        expected = "\n".join(lines) + "\n"
    assert out == expected


def test_conjecture_scan(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "1..2", "--d", "2..4")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert len(doc["rows"]) > 0


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_conjecture_counts_violations(capsys, monkeypatch, fmt):
    # the row kernel reporting the cells at m = n+1 outside the conjectured
    # bound makes them violations; n = 1..2, d = 2..3 has three of them
    # ((1,2) has no m = n+1 below N)
    true_rows = gaussdeg.degrees._bounds_rows

    def flipped(v, cells):
        for m, *row, within in true_rows(v, cells):
            yield m, *row, within and m != v.n + 1

    monkeypatch.setattr(gaussdeg.degrees, "_bounds_rows", flipped)
    code, out, _ = run_cli(
        capsys, "conjecture", "--n", "1..2", "--d", "2..3", "--format", fmt
    )
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert doc["violations"] == 3
        assert [row["m"] for row in doc["rows"] if not row["within_conjecture"]] == [2, 3, 3]
    else:
        assert out.splitlines()[-1] == "violations: 3"


def test_conjecture_curve_equality(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "1", "--d", "5")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["ratio"] == row["conjecture_upper"]


def test_conjecture_empty_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "conjecture", "--n", "2..1", "--d", "2")
    assert code == 2 and "empty" in err


def test_conjecture_stops_at_its_first_failing_row():
    # the sweep guard refuses (5, 7), whose rows would print an estimated
    # 268 million digits, before the scan forms any record
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, out, err = _run_process("conjecture", "--n", "5", "--d", "7", timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_generic_round_trip(tmp_path, capsys):
    table = veronese_integral_table(VeroneseVariety(2, 2))
    path = tmp_path / "table.json"
    path.write_text(table.to_json(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "generic", "--table", str(path), "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == "21"
    assert doc["method"] == "generic"
    assert "d" not in doc


def test_generic_matches_degree_subcommand(tmp_path, capsys):
    table = veronese_integral_table(VeroneseVariety(2, 3))
    path = tmp_path / "table.json"
    path.write_text(table.to_json(), encoding="utf-8")
    for m in range(2, 9):
        code, out, _ = run_cli(capsys, "generic", "--table", str(path), "--m", str(m))
        assert code == 0
        from_table = json.loads(out)["degree"]
        code, out, _ = run_cli(
            capsys, "degree", "--n", "2", "--d", "3", "--m", str(m)
        )
        assert code == 0
        assert from_table == json.loads(out)["degree"]


def test_generic_zero_table_exits_3(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(ZERO_TABLE, encoding="utf-8")
    code, out, err = run_cli(capsys, "generic", "--table", str(path), "--m", "3")
    assert code == 3
    assert out == ""
    assert "not generically finite" in err


def test_generic_names_s_where_the_degree_is_long(tmp_path, capsys):
    # the degree -unit at m = 100 would have 53,064 bits, past str()'s 4,300
    # digits; S = -(N - m) is tested and named before the degree is formed
    path = tmp_path / "negative.json"
    doc = {"n": 1, "N": 200, "entries": [{"partition": [1], "integral": "-1"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "generic", "--table", str(path), "--m", "100")
    assert (code, out) == (3, "")
    assert err.startswith("error: weighted total -100 <= 0 at m = 100: ")
    assert err.count("\n") == 1


def test_generic_deep_table_exits_2_as_a_process(tmp_path):
    # nested past the recursion limit, json.loads raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = _run_process("generic", "--table", str(path), "--m", "3", timeout=30)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


# a table entry, and the type and length its error line must name: echoed
# whole, each made one error line of 100,000 characters or more
LONG_ENTRIES = {
    "integral": ({"partition": [1], "integral": "1" * 100_000 + "x"}, "str of length 100,001"),
    "partition": (
        {"partition": [*range(50_000, 2, -1), 0, 5], "integral": "1"},
        "tuple of length 50,000",
    ),
    "entry": (["a"] * 50_000, "list of length 50,000"),
    "weight": ({"partition": [1] * 100_000, "integral": "1"}, "tuple of length 100,000"),
}


def _one_short_line(err: str, length: str) -> bool:
    return err.count("\n") == 1 and len(err) <= 300 and f"... ({length})" in err


@pytest.mark.parametrize("case", LONG_ENTRIES)
def test_a_long_table_value_is_echoed_cut(tmp_path, case):
    entry, length = LONG_ENTRIES[case]
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 1, "N": 5, "entries": [entry]}), encoding="utf-8")
    code, out, err = _run_process("generic", "--table", str(path), "--m", "2", timeout=30)
    assert (code, out) == (2, "")
    assert _one_short_line(err, length), err[:400]


def test_a_long_brute_cap_is_echoed_cut():
    cap = "9" * 100_000 + "x"
    code, out, err = _run_process("verify", "--suite", "syt", timeout=30, GAUSSDEG_BRUTE_CAP=cap)
    assert (code, out) == (2, "")
    assert _one_short_line(err, "str of length 100,001"), err[:400]


def test_a_lower_interpreter_digit_limit_keeps_exit_3(tmp_path):
    # at m = 10 the degree would have 5,171 bits, 1,557 digits: over a
    # 640-digit limit, but the message names S = -190, not the degree
    path = tmp_path / "negative.json"
    doc = {"n": 1, "N": 200, "entries": [{"partition": [1], "integral": "-1"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run_process(
        "generic", "--table", str(path), "--m", "10", timeout=30, PYTHONINTMAXSTRDIGITS="640"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: weighted total -190 <= 0 at m = 10: ")


def _skew_ratio(monkeypatch):
    # a row-binomial ratio skewed by 5/7 on one-row shapes, as the term
    # plan's count and denominator, leaves the rectangle's tableau count
    # non-integral in the weighted sum
    term = gaussdeg.schur._plan_term

    def skewed(lam, *row):
        count, den = term(lam, *row)
        return (5 * count, 7 * den) if len(lam) == 1 else (count, den)

    monkeypatch.setattr(gaussdeg.schur, "_plan_term", skewed)


def _skew_hook(monkeypatch):
    # one-row tableau counts off by 5/7 leave the alternate sum over n!
    # non-integral; the sum counts its partitions and their shapes plus the
    # rectangle through `syt_count`, the one counting path
    count = gaussdeg.degrees.syt_count

    def skewed(lam):
        value = count(lam)
        return value * Fraction(5, 7) if len(lam) == 1 else value

    monkeypatch.setattr(gaussdeg.degrees, "syt_count", skewed)


def _skew_reference(monkeypatch):
    # one more than the reference product is no multiple of the closed
    # form's denominator
    reference = gaussdeg.degrees.reference_product

    def skewed(n, N, m, first):
        return reference(n, N, m, first) + 1

    monkeypatch.setattr(gaussdeg.degrees, "reference_product", skewed)


def _skew_sweep_step(monkeypatch):
    # the step from the empty rectangle, whose count is 1, gets a
    # denominator that cannot divide it
    factor = gaussdeg.grassmann._sweep_factor

    def skewed(k, c):
        num, den = factor(k, c)
        return (num, 7 * den) if k == 0 else (num, den)

    monkeypatch.setattr(gaussdeg.grassmann, "_sweep_factor", skewed)


@pytest.mark.parametrize(
    ("argv", "skew"),
    [
        (["degree", "--n", "1", "--d", "4", "--m", "2"], _skew_ratio),
        (["table", "--n", "1", "--d", "4"], _skew_ratio),
        (["conjecture", "--n", "1", "--d", "4"], _skew_ratio),
        (["table", "--n", "1", "--d", "4"], _skew_sweep_step),
        (["conjecture", "--n", "1", "--d", "4"], _skew_sweep_step),
        (["degree", "--n", "2", "--d", "3", "--m", "3", "--method", "alternate"], _skew_hook),
        (
            ["degree", "--n", "2", "--d", "3", "--m", "3", "--method", "surface_closed"],
            _skew_reference,
        ),
    ],
    ids=[
        "degree",
        "table",
        "conjecture",
        "table-sweep-step",
        "conjecture-sweep-step",
        "alternate-hook",
        "surface-closed-reference",
    ],
)
def test_internal_invariant_failure_exits_4(capsys, monkeypatch, argv, skew):
    # an exactness check that fails is an internal fault, not a
    # verification failure (exit 1)
    skew(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: internal invariant failed: ")
    assert err.endswith(" did not come out integral\n") and err.count("\n") == 1


def _pluecker_off_by_one(monkeypatch):
    # every Grassmannian degree the row kernel reads, swept (an int, or past
    # the base-10 switch a Decimal) or single, one more than it is
    sweep, single = gaussdeg.degrees.grassmann_degree_sweep, gaussdeg.degrees.grassmann_degree

    def swept(r):
        for count in sweep(r):
            yield count + 1 if type(count) is int else gaussdeg.partitions.EXACT.add(count, 1)

    monkeypatch.setattr(gaussdeg.degrees, "grassmann_degree_sweep", swept)
    monkeypatch.setattr(gaussdeg.degrees, "grassmann_degree", lambda shape: single(shape) + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "2", "--d", "12"],
        ["conjecture", "--n", "2", "--d", "12"],
        ["table", "--n", "1", "--d", "200"],
        ["degree", "--n", "2", "--d", "12", "--m", "45"],
        ["degree", "--n", "1", "--d", "60", "--m", "30"],
    ],
    ids=["table", "conjecture", "decimal-table", "degree", "curve-degree"],
)
def test_a_pluecker_degree_off_by_one_exits_4(capsys, monkeypatch, argv):
    # the split count's short rest feeds every term's check, in a sweep row
    # and in a single cell alike
    _pluecker_off_by_one(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: internal invariant failed: ")
    assert err.endswith(" did not come out integral\n") and err.count("\n") == 1


def test_a_base10_sweep_step_checks_its_remainder(capsys, monkeypatch):
    # (1, 200) steps its count in base 10 from k = 5 on: a denominator that
    # does not divide the count at k = 21 ends the sweep there
    factor = gaussdeg.grassmann._sweep_factor

    def skewed(k, c):
        num, den = factor(k, c)
        return (num, 1_000_000_007 * den) if k == 20 else (num, den)

    monkeypatch.setattr(gaussdeg.grassmann, "_sweep_factor", skewed)
    code, out, err = run_cli(capsys, "table", "--n", "1", "--d", "200")
    assert (code, out) == (4, "")
    assert err == (
        "error: internal invariant failed: "
        "tableau count of the 21 x 178 rectangle did not come out integral\n"
    )


@pytest.mark.parametrize(
    ("argv", "skew", "what"),
    [
        (
            ["degree", "--n", "2", "--d", "3", "--m", "4"],
            _skew_ratio,
            "tableau count of (2,) plus the 2-wide rectangle of height 5",
        ),
        (["table", "--n", "1", "--d", "4"], _skew_sweep_step, "tableau count of the 1 x 2 rectangle"),
    ],
    ids=["weighted-sum", "sweep-step"],
)
def test_failed_division_names_its_shape(capsys, monkeypatch, argv, skew, what):
    # the weighted sum and the sweep form this text only when a division fails
    skew(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == f"error: internal invariant failed: {what} did not come out integral\n"


def test_proved_bounds_violation_exits_4(capsys, monkeypatch):
    # at n = 1 the proved bounds meet (lower = ratio = upper), so a weighted
    # sum too large breaks the sandwich at every m; raised by L, the degree
    # unit * S / L still comes out integral, so the bounds check is what fails
    weighted = gaussdeg.schur._weighted_sum

    def skewed(plan, m, residue):
        return weighted(plan, m, residue) + plan.lcd

    monkeypatch.setattr(gaussdeg.schur, "_weighted_sum", skewed)
    code, out, err = run_cli(capsys, "table", "--n", "1", "--d", "4")
    assert code == 4 and out == ""
    prefix = "error: internal invariant failed: proved bounds violated at (n=1, d=4, m=1): "
    assert err.startswith(prefix)
    assert err.endswith(" fails\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["table", "conjecture"])
def test_a_long_bounds_violation_exits_4(capsys, monkeypatch, command):
    # a weighted sum S of 1 at m = 21, whose product has 14,424 bits (4,343
    # digits, past the str() limit), stops both sweeps there; the ratio is
    # S / (L * g) = 1 / (199 * 398), short whatever the product's size
    weighted = gaussdeg.schur._weighted_sum

    def skewed(plan, m, residue):
        return 1 if m == 21 else weighted(plan, m, residue)

    monkeypatch.setattr(gaussdeg.schur, "_weighted_sum", skewed)
    code, out, err = run_cli(capsys, command, "--n", "1", "--d", "200")
    assert (code, out) == (4, "")
    assert err == (
        "error: internal invariant failed: proved bounds violated at (n=1, d=200, m=21): "
        "179/199 <= 1/79202 <= 179/199 fails\n"
    )


@pytest.mark.parametrize("command", ["table", "conjecture"])
def test_each_row_computes_the_grassmannian_once(capsys, monkeypatch, command):
    # one bounds row per (variety, m): one weighted sum per printed row,
    # the Grassmannian degrees from one sweep per variety (one step per row
    # after the first, up to the middle row; the rest mirror those), no
    # single-cell grassmann_degree and no degree_main
    calls = {"grassmann_degree": 0, "grassmann_degree_sweep": 0, "degree_main": 0, "steps": 0}
    for name in ("grassmann_degree", "grassmann_degree_sweep", "degree_main"):
        original = getattr(gaussdeg.degrees, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gaussdeg.degrees, name, counted)
    factor = gaussdeg.grassmann._sweep_factor

    def counted_step(k, c):
        calls["steps"] += 1
        return factor(k, c)

    monkeypatch.setattr(gaussdeg.grassmann, "_sweep_factor", counted_step)
    code, out, _ = run_cli(capsys, command, "--n", "2", "--d", "3")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 7
    assert calls == {
        "grassmann_degree": 0, "grassmann_degree_sweep": 1, "degree_main": 0, "steps": 3,
    }


@pytest.mark.parametrize(
    ("argv", "n"),
    [(("degree", "--n", "3", "--d", "10", "--m", "6"), 3), (("table", "--n", "3", "--d", "3"), 3)],
    ids=["degree", "table"],
)
def test_hook_counts_only_shapes_of_weight_n(capsys, monkeypatch, argv, n):
    # the Grassmannian rectangle, 3 x 279 = 837 cells here (a degree of 402
    # digits), goes to the prime-power kernel past the kept counts, and the
    # sweep steps its rectangles; the division sees only the partitions of n
    # in the weighted sum (of n = 3, only (2, 1) has two rows and columns)
    weights = []
    original = gaussdeg.partitions._count_by_division

    def counted(lam):
        weights.append(sum(lam))
        return original(lam)

    monkeypatch.setattr(gaussdeg.partitions, "_count_by_division", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and weights and max(weights) <= n


def test_hook_cache_keeps_no_count_past_the_prime_power_switch(capsys, monkeypatch):
    # a two-row shape of 2,000,001 cells and a ladder cell whose 3 x 279
    # rectangle has 837 cells are counted afresh; only shapes below the
    # switch are divided and kept, and every count kept came from them
    reached = []
    divide = gaussdeg.partitions._count_by_division

    def recorded(lam):
        reached.append(lam)
        return divide(lam)

    def kept_counts():
        return [key[1] for key in KEPT._entries if key[0] == "count"]

    monkeypatch.setattr(gaussdeg.partitions, "_count_by_division", recorded)
    code, out, _ = run_cli(capsys, "syt", "--shape", "2000000,1")
    assert code == 0 and json.loads(out)["hook"] == "2000000"
    assert reached == [] and kept_counts() == []
    code, _, _ = run_cli(capsys, "degree", "--n", "3", "--d", "10", "--m", "6")
    assert code == 0
    assert reached and max(map(sum, reached)) < gaussdeg.partitions.PRIME_POWER_CELLS
    assert sorted(kept_counts()) == sorted(reached)


@pytest.mark.parametrize(
    "integral", [" 1_0 ", "+7", "\u0666", "1_0", "+3", " 3", "\u0663", "", "-"]
)
def test_generic_non_decimal_integral_exits_2(tmp_path, capsys, integral):
    # only what to_json writes, ASCII -?[0-9]+, is an integral value
    path = tmp_path / "loose.json"
    doc = {"n": 1, "N": 4, "entries": [{"partition": [1], "integral": integral}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "generic", "--table", str(path), "--m", "2")
    assert code == 2 and out == ""
    assert err == f"error: bad integral value {integral!r}\n"


def test_generic_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "entries": []}', encoding="utf-8")
    code, _, err = run_cli(capsys, "generic", "--table", str(path), "--m", "3")
    assert code == 2 and "missing" in err


def test_generic_incomplete_table_exits_2_at_once(tmp_path, capsys):
    # p(40) = 37338 partitions are missing: one line, not a listing of them
    path = tmp_path / "empty.json"
    path.write_text('{"n": 40, "N": 300, "entries": []}', encoding="utf-8")
    code, out, err = run_cli(capsys, "generic", "--table", str(path), "--m", "50")
    assert code == 2 and out == ""
    assert err == "error: table is missing 37338 of the 37338 partitions of 40\n"
    assert len(err.encode()) < 1024


def test_generic_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "generic", "--table", str(tmp_path / "nope.json"), "--m", "3"
    )
    assert code == 2 and err != ""


def test_syt_both_ways(capsys, monkeypatch):
    monkeypatch.delenv("GAUSSDEG_BRUTE_CAP", raising=False)
    code, out, _ = run_cli(capsys, "syt", "--shape", "3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["hook"] == "3"
    assert doc["bruteforce"] == "3"


def test_syt_above_cap_notes(capsys, monkeypatch):
    monkeypatch.delenv("GAUSSDEG_BRUTE_CAP", raising=False)
    code, out, _ = run_cli(capsys, "syt", "--shape", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["hook"] == "1"
    assert doc["bruteforce"] is None
    assert "cap" in doc["note"]


def test_syt_env_var_raises_cap(capsys, monkeypatch):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "14")
    code, out, _ = run_cli(capsys, "syt", "--shape", "13")
    assert code == 0
    assert json.loads(out)["bruteforce"] == "1"


def test_syt_bruteforce_deep_shape_does_not_crash(capsys, monkeypatch):
    # one tableau, but 2000 placements deep: deeper than the recursion limit
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "5000")
    code, out, _ = run_cli(capsys, "syt", "--shape", "2000")
    assert code == 0
    assert json.loads(out)["bruteforce"] == "1"


def test_syt_bad_env_var_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "zero")
    code, _, err = run_cli(capsys, "syt", "--shape", "2,1")
    assert code == 2 and "GAUSSDEG_BRUTE_CAP" in err


def test_syt_zero_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "0")
    code, _, err = run_cli(capsys, "syt", "--shape", "2,1")
    assert (code, err) == (2, "error: GAUSSDEG_BRUTE_CAP must be >= 1, got 0\n")


def test_syt_refuses_a_shape_by_its_cells_in_process(capsys):
    code, _, err = run_cli(capsys, "syt", "--shape", "10000000,10000000")
    assert (code, err) == (
        2,
        "error: too large: the tableau count of a shape of 20000000 cells; "
        "at most 4,000,000 cells are counted\n",
    )


def test_a_non_positive_degree_exits_4(capsys, monkeypatch):
    # no input reaches this: Boole's degree is replaced by 0
    monkeypatch.setattr(gaussdeg.degrees, "boole_degree", lambda n, d: 0)
    argv = ("degree", "--n", "1", "--d", "2", "--m", "1", "--method", "boole")
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (
        4,
        "error: internal invariant failed: "
        "boole(n=1, d=2, m=1): degree came out non-positive: 0\n",
    )


# int() reads each of these as a number; the cap must be ASCII digits
@pytest.mark.parametrize("raw", [" 1_0 ", "+5", "\u0661\u0662", "1_0", "7 "])
def test_brute_cap_must_be_ascii_digits(capsys, monkeypatch, raw):
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", raw)
    code, out, err = run_cli(capsys, "syt", "--shape", "2,1")
    assert code == 2 and out == ""
    assert err == f"error: GAUSSDEG_BRUTE_CAP must be an integer, got {raw!r}\n"


def test_syt_invalid_shape_exits_2(capsys):
    code, _, err = run_cli(capsys, "syt", "--shape", "1,2")
    assert code == 2 and "decreasing" in err


def test_grassmann(capsys):
    code, out, _ = run_cli(capsys, "grassmann", "--d", "2", "--r", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert doc["degree"] == "2"


def test_grassmann_invalid_exits_2(capsys):
    code, _, err = run_cli(capsys, "grassmann", "--d", "5", "--r", "4")
    assert code == 2 and "0 <= d <= r" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys, monkeypatch):
    monkeypatch.delenv("GAUSSDEG_BRUTE_CAP", raising=False)
    argvs = [
        ["table", "--n", "2", "--d", "2"],
        ["degree", "--n", "2", "--d", "3", "--m", "4"],
        ["conjecture", "--n", "1..2", "--d", "2..3"],
        ["verify", "--suite", "identity"],
    ]
    for argv in argvs:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("n,d", [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_cli_matches_library_on_sweep(capsys, n, d):
    # the CLI must stay a thin wrapper over the library
    v = VeroneseVariety(n, d)
    for m in range(n, v.N):
        code, out, _ = run_cli(
            capsys, "degree", "--n", str(n), "--d", str(d), "--m", str(m)
        )
        assert code == 0
        assert json.loads(out) == degree_main(v, m).to_dict()


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    run_cli(capsys, "degree", "--n", "1", "--d", "4", "--m", "2")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "degree", "--n", "1", "--d", "4", "--m", "2")
    assert code == 0 and json.loads(out)["degree"] == "12"
    assert built == []
    # a canonical argv is read from the command table: no parser is built
    code, out, _ = run_cli(capsys, "degree", "--n", "1", "--d", "4", "--m", "2", "--format", "csv")
    assert code == 0 and built == []
    # an abbreviated flag falls back to argparse and prints the same bytes
    assert run_cli(capsys, "degree", "--form", "csv", "--n", "1", "--d", "4", "--m", "2") == (
        code, out, ""
    )
    assert built and built[0] == "gaussdeg"


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "--n", "1_0", "--d", "2", "--m", "10"),
        ("degree", "--n", "1", "--d", "2", "--m", "+3"),
        ("degree", "--n", " 1", "--d", "2", "--m", "1"),
        ("degree", "--n", "\u0661", "--d", "2", "--m", "1"),
        ("table", "--n", "1", "--d", "0x4"),
        ("grassmann", "--d", "1", "--r", "4.0"),
        ("verify", "--suite", "identity", "--max-n", "6_0"),
        ("generic", "--table", "t.json", "--m", "+2"),
    ],
    ids=["underscore", "plus", "space", "arabic-indic", "hex", "float", "verify", "generic"],
)
def test_an_integer_option_takes_ascii_digits_only(capsys, argv):
    # int() reads the first four and the last two; the command line's one
    # integer type reads -?[0-9]+ and nothing else, in the command table
    # and in argparse
    assert read_canonical(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("syt", "--shape", "1_0"),
        ("syt", "--shape", "1_0,+2"),
        ("syt", "--shape", "3,+1"),
        ("conjecture", "--n", "1", "--d", "+2"),
    ],
)
def test_a_shape_or_range_takes_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1..", "..3", "1...3", "a..b", "1..2..3", "", "1_0"])
def test_a_bad_range_names_its_flag_and_the_range_form(capsys, text):
    code, out, err = run_cli(capsys, "conjecture", "--n", text, "--d", "2")
    assert (code, out) == (2, "")
    assert err == f"error: --n must be an integer or an inclusive range a..b, got {text!r}\n"
    with pytest.raises(ValueError, match="^a range must be an integer or an inclusive range"):
        parse_range(text)


def test_a_negative_integer_still_reaches_the_range_checks(capsys):
    # "-1" is no canonical value; argparse reads it with the same type
    assert read_canonical(["degree", "--n", "-1", "--d", "2", "--m", "1"]) is None
    code, out, err = run_cli(capsys, "degree", "--n", "-1", "--d", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "n must be" in err
    assert tuple(parse_range("-3..-1")) == (-3, -2, -1)
    assert parse_partition(" 4 , 2 ") == (4, 2)


def test_an_argparse_error_leaves_the_next_call_unchanged(capsys):
    argv = ("degree", "--n", "1", "--d", "4", "--m", "2")
    before = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--n", "x", "--d", "4", "--m", "2"])
    assert exc.value.code == 2
    assert "argument --n: invalid integer value: 'x'" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == before


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "--n", "x" * 100_000, "--d", "2", "--m", "3"),
        ("degree", "--n", "1", "--d", "2", "--m", "3", "--format", "x" * 100_000),
    ],
    ids=["int", "choice"],
)
def test_a_long_invalid_argument_is_echoed_cut(argv):
    code, out, err = _run_process(*argv, timeout=30)
    assert (code, out) == (2, "")
    assert err.startswith("usage: gaussdeg degree ") and err.count("usage:") == 1
    line = err.splitlines()[-1]
    assert line.startswith("gaussdeg degree: error: argument --") and len(line) <= 300
    assert "... (str of length " in line


@pytest.fixture(scope="module")
def fresh_parser():
    # a parser of its own, not the one `main` builds
    return gaussdeg.cli.build_parser()


def _argparse_reads(parser, argv):
    """`parser`'s Namespace for `argv`, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def _reads_as_argparse(parser, argv) -> bool:
    read = read_canonical(argv)
    if read is None:
        return True
    namespace = _argparse_reads(parser, argv)
    return namespace is not None and vars(read) == vars(namespace)


def _pairs_reversed(argv):
    pairs = [argv[i : i + 2] for i in range(1, len(argv), 2)]
    return [argv[0], *(item for pair in reversed(pairs) for item in pair)]


def test_the_reader_agrees_with_argparse_on_every_golden_command(fresh_parser):
    commands = [argv for group in golden_commands().values() for argv in group]
    read = [argv for argv in commands if read_canonical(argv) is not None]
    assert len(read) > 0.9 * len(commands)
    assert [argv for argv in read if read_canonical(_pairs_reversed(argv)) is None] == []
    for form in (list, tuple, _pairs_reversed):
        assert [argv for argv in commands if not _reads_as_argparse(fresh_parser, form(argv))] == []


@given(argv=EXIT_CODE_ARGV)
def test_the_reader_agrees_with_argparse_on_generated_argv(fresh_parser, argv):
    assert _reads_as_argparse(fresh_parser, argv)
    assert _reads_as_argparse(fresh_parser, tuple(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "--n=1", "--d", "4", "--m", "2"),
        ("degree", "--n", "1", "--d", "4", "--m", "2", "--form", "csv"),
        ("degree", "--n", "1", "--n", "1", "--d", "4", "--m", "2"),
        ("degree", "--n", "1", "--d", "-1", "--m", "2"),
        ("degree", "--", "--n", "1", "--d", "4", "--m", "2"),
        ("degree", "--n", "1", "--d", "4", "--m", "2", "--"),
        ("degree", "-h"),
        ("degree", "--help"),
        ("--help",),
        ("degree", "--n", "1", "--d", "4"),
        ("degree", "--n", "1", "--d", "4", "--m"),
        ("degree", "--n", "1", "--d", "4", "--m", "2", "--method", "bogus"),
        ("degree", "--n", "1", "--d", "4", "--m", "2", "--format", "xml"),
        ("verify", "--suite", "bogus"),
        ("degree", "--n", "x", "--d", "4", "--m", "2"),
        ("degree", "--n", "1.0", "--d", "4", "--m", "2"),
        (),
        ("frobnicate", "--n", "1"),
        ("degree", "2", "--n", "1", "--d", "4", "--m", "2"),
        ("verify", "--n", "1"),
    ],
    ids=[
        "equals", "abbreviation", "repeated", "negative", "double-dash-first",
        "double-dash-last", "short-help", "help", "top-help", "missing", "no-value",
        "method", "format", "suite", "not-int", "float", "empty", "unknown-command",
        "positional", "foreign-flag",
    ],
)
def test_the_reader_leaves_every_other_form_to_argparse(argv):
    assert read_canonical(argv) is None
    assert read_canonical(list(argv)) is None


@pytest.mark.parametrize("argv", [("--help",), ("degree", "--help")])
def test_help_matches_a_fresh_parser(capsys, argv):
    run_cli(capsys, "degree", "--n", "1", "--d", "4", "--m", "2")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    printed = capsys.readouterr().out
    with pytest.raises(SystemExit):
        gaussdeg.cli.build_parser().parse_args(list(argv))
    assert capsys.readouterr().out == printed
    assert printed.startswith("usage: gaussdeg")


def _huge_curve_table(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"n": 1, "N": 10**7, "entries": [{"partition": [1], "integral": "2"}]}),
        encoding="utf-8",
    )
    return str(path)


def _huge_n_table(tmp_path):
    # one entry, but a claimed n whose p(n) would take about half an hour
    path = tmp_path / "huge_n.json"
    path.write_text(
        json.dumps({"n": 10**6, "N": 10**7, "entries": [{"partition": [1], "integral": "2"}]}),
        encoding="utf-8",
    )
    return str(path)


def _past_maxsize_table(tmp_path):
    # a claimed n past sys.maxsize, where an islice over p(0), p(1), ... cannot stop
    path = tmp_path / "past_maxsize.json"
    path.write_text(
        json.dumps({"n": 10**20, "N": 10**21, "entries": [{"partition": [1], "integral": "2"}]}),
        encoding="utf-8",
    )
    return str(path)


HUGE_TABLES = {
    None: _huge_curve_table,
    "{huge n}": _huge_n_table,
    "{n past maxsize}": _past_maxsize_table,
}
TOO_LARGE = "error: too large: "
NOT_BOOLE = "error: method boole requires m = N - 1\n"
# N = C(n + d, d) - 1 has about 40 million digits at n = 10^4000, d = 10,000
HUGE, HUGER, PAST_MAXSIZE, WIDE_D = (str(10**e) for e in (4000, 4100, 20, 3000))
# m = N - 1 at n = 10^8, d = 4, where Boole's (n+1)(d-1)^n has 47.7 million digits
BOOLE_M = str(math.comb(10**8 + 4, 4) - 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("degree", "--n", "12", "--d", "12", "--m", "20"), TOO_LARGE, id="degree"),
        pytest.param(
            ("degree", "--n", "12", "--d", "12", "--m", "20", "--method", "alternate"),
            TOO_LARGE,
            id="degree-alternate",
        ),
        # the reference product is small, but the alternate sum is held to
        # its counts' bound (dim X_m)! = 999,999!, 5.6 million digits
        pytest.param(
            ("degree", "--n", "1", "--d", "1000000", "--m", "2", "--method", "alternate"),
            "error: too large: (dim X_m)! of the alternate sum at (n=1, d=1000000, m=2) ",
            id="degree-alternate-factorial",
        ),
        pytest.param(("table", "--n", "12", "--d", "12"), TOO_LARGE, id="table"),
        pytest.param(("conjecture", "--n", "1..12", "--d", "12"), TOO_LARGE, id="conjecture"),
        pytest.param(("conjecture", "--n", "1..1000000000", "--d", "2"), TOO_LARGE, id="conjecture-n"),
        pytest.param(("conjecture", "--n", "1", "--d", "2..1000000000"), TOO_LARGE, id="conjecture-d"),
        pytest.param(("verify", "--max-n", "61"), TOO_LARGE, id="verify-max-n"),
        pytest.param(("verify", "--max-n", "1000000000"), TOO_LARGE, id="verify-huge-max-n"),
        pytest.param(("degree", "--n", "61", "--d", "2", "--m", "100"), TOO_LARGE, id="partitions"),
        pytest.param(("table", "--n", "61", "--d", "2"), TOO_LARGE, id="table-partitions"),
        pytest.param(("generic", "--table", None, "--m", "5000000"), TOO_LARGE, id="generic"),
        pytest.param(("generic", "--table", "{huge n}", "--m", "3"), TOO_LARGE, id="generic-partitions"),
        pytest.param(("grassmann", "--d", "1500", "--r", "3000"), TOO_LARGE, id="grassmann"),
        pytest.param(
            ("degree", "--n", "200000", "--d", "2", "--m", "200001", "--method", "m_eq_n_plus_1"),
            TOO_LARGE,
            id="m-eq-n-plus-1",
        ),
        # a reference product of 385,000 digits passes, but the alternating
        # sum's 40,001 terms of up to that size would take about 12 s
        pytest.param(
            ("degree", "--n", "40000", "--d", "2", "--m", "40001", "--method", "m_eq_n_plus_1"),
            "error: too large: the m = n+1 sum at (n=40000, d=2) would take over "
            "5,000,000,000 digit-terms",
            id="m-eq-n-plus-1-work",
        ),
        # N = C(400000, 200000) - 1 has 120,410 digits: refused before it is formed
        pytest.param(
            ("degree", "--n", "200000", "--d", "200000", "--m", "1"),
            "error: m must satisfy 200000 <= m <= C(400000, 200000) - 2, got 1",
            id="huge-N-range",
        ),
        pytest.param(
            ("degree", "--n", "200000", "--d", "200000", "--m", "200001", "--method", "m_eq_n_plus_1"),
            TOO_LARGE,
            id="huge-N-m-eq-n-plus-1",
        ),
        pytest.param(
            ("degree", "--n", "200000", "--d", "200000", "--m", "300000", "--method", "boole"),
            NOT_BOOLE,
            id="huge-N-boole",
        ),
        pytest.param(("degree", "--n", HUGE, "--d", "10000", "--m", HUGER), TOO_LARGE, id="huge-n"),
        pytest.param(
            ("degree", "--n", HUGE, "--d", "10000", "--m", HUGER, "--method", "boole"),
            NOT_BOOLE,
            id="huge-n-boole",
        ),
        # k = min(n, d) = 10^4000 is past the float range
        pytest.param(("degree", "--n", HUGE, "--d", HUGE, "--m", HUGER), TOO_LARGE, id="huge-n-d"),
        pytest.param(
            ("degree", "--n", HUGE, "--d", HUGE, "--m", HUGER, "--method", "boole"),
            NOT_BOOLE,
            id="huge-n-d-boole",
        ),
        pytest.param(
            ("degree", "--n", "100000000", "--d", "4", "--m", BOOLE_M, "--method", "boole"),
            "error: too large: Boole's degree at (n=100000000, d=4) would have over 1,000,000 ",
            id="boole-power",
        ),
        pytest.param(("verify", "--max-n", PAST_MAXSIZE), TOO_LARGE, id="verify-past-maxsize"),
        pytest.param(("table", "--n", PAST_MAXSIZE, "--d", "2"), TOO_LARGE, id="table-past-maxsize"),
        pytest.param(
            ("conjecture", "--n", PAST_MAXSIZE, "--d", "2"), TOO_LARGE, id="conjecture-past-maxsize"
        ),
        pytest.param(
            ("generic", "--table", "{n past maxsize}", "--m", "3"),
            TOO_LARGE,
            id="generic-past-maxsize",
        ),
        # N has about 6,000 digits, too many for a message
        pytest.param(("table", "--n", "2", "--d", WIDE_D), TOO_LARGE, id="table-wide-d"),
        pytest.param(("conjecture", "--n", "2", "--d", WIDE_D), TOO_LARGE, id="conjecture-wide-d"),
        pytest.param(("degree", "--n", "2", "--d", WIDE_D, "--m", "5"), TOO_LARGE, id="degree-wide-d"),
        # the partition count comes before the digit guard, which would form
        # N = C(180000, 90000) - 1, 54,000 digits, to refuse the product
        pytest.param(
            ("degree", "--n", "90000", "--d", "90000", "--m", "90001"),
            "error: too large: n = 90000 has over 1,000,000 partitions",
            id="partitions-before-digits",
        ),
        pytest.param(
            ("degree", "--n", "90000", "--d", "90000", "--m", "90001", "--method", "alternate"),
            "error: too large: n = 90000 has over 1,000,000 partitions",
            id="partitions-before-digits-alternate",
        ),
        # a Catalan number of 6 million digits, but 20 million cells: refused
        # by its cells before a hook list and a sieve of that size are built
        pytest.param(("syt", "--shape", "10000000,10000000"), TOO_LARGE, id="syt"),
        # 4,000,000 cells, within the cell bound: refused by the estimated
        # digits of its count, a Catalan number of 1.2 million digits
        pytest.param(
            ("syt", "--shape", "2000000,2000000"),
            "error: too large: the tableau count of a shape of 4000000 cells would have over "
            "1,000,000 digits (estimated 1,204,110 or more)\n",
            id="syt-digits",
        ),
        # a count of 9 digits, but a sieve and a hook list of 10^8 entries
        # (2.3 GB): refused by its cells, not by its digits
        pytest.param(
            ("syt", "--shape", "100000000,1"),
            "error: too large: the tableau count of a shape of 100000001 cells; "
            "at most 4,000,000 cells are counted\n",
            id="syt-cells",
        ),
        # past the interpreter's limit on printing an int, by a lower bound
        # of the number's digits: 8,146 at (40, 2, 50) (3 s of CPU to
        # compute), 4,557 at (30, 2, 40) (10 s by alternate), 76,646 for
        # G(200, 400) and 6,013 for the Catalan number C_10000
        pytest.param(
            ("degree", "--n", "40", "--d", "2", "--m", "50"),
            "error: too large: the degree at (n=40, d=2, m=50) would have over ",
            id="degree-unprintable",
        ),
        pytest.param(
            ("degree", "--n", "30", "--d", "2", "--m", "40", "--method", "alternate"),
            "error: too large: the degree at (n=30, d=2, m=40) would have over ",
            id="alternate-unprintable",
        ),
        pytest.param(
            ("grassmann", "--d", "200", "--r", "400"),
            "error: too large: the Pluecker degree of G(200, 400) would have over ",
            id="grassmann-unprintable",
        ),
        pytest.param(
            ("syt", "--shape", "10000,10000"),
            "error: too large: the tableau count of a shape of 20000 cells would have over ",
            id="syt-unprintable",
        ),
    ],
)
def test_cost_guard_rejects_runaway_inputs_at_once(tmp_path, argv, message):
    # a child process with a time limit: a lost guard fails here, it does not hang
    argv = [HUGE_TABLES[arg](tmp_path) if arg in HUGE_TABLES else arg for arg in argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, out, err = _run_process(*argv, timeout=30)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    # CPU of the whole child: interpreter start-up, import and the command
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_syt_refuses_the_staircase_at_once(capsys):
    # (1000, 999, ..., 1) counts a number of 1.3 million digits; the digit
    # estimate walks its rows bottom up and stops once past the limit
    shape = ",".join(map(str, range(1000, 0, -1)))
    start = time.process_time()
    code, out, err = run_cli(capsys, "syt", "--shape", shape)
    assert time.process_time() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: too large: the tableau count of a shape of 500500 cells ")


def test_syt_prints_a_count_under_the_digit_limit(capsys):
    # the Catalan number C_3000 has 1,801 digits
    code, out, _ = run_cli(capsys, "syt", "--shape", "3000,3000")
    assert code == 0 and json.loads(out)["hook"] == str(math.comb(6000, 3000) // 3001)


def test_a_lower_digit_limit_refuses_at_once_as_a_process():
    # PYTHONINTMAXSTRDIGITS sets the limit the guards read: 2,047 digits
    # pass the default and are refused under 640
    argv = ("degree", "--n", "1", "--d", "200", "--m", "12")
    code, out, err = _run_process(*argv, timeout=30, PYTHONINTMAXSTRDIGITS="640")
    assert (code, out) == (2, "")
    assert err.startswith("error: too large: the degree at (n=1, d=200, m=12) would have over 640 ")
    code, out, _ = _run_process(*argv, timeout=30)
    assert code == 0 and len(json.loads(out)["degree"]) == 2047


def test_syt_counts_a_long_two_row_shape_as_a_process():
    # the count of (2000000, 1) as prime powers, within the bound; as
    # 2000001! over the rows' factorials it would run for minutes
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, out, _ = _run_process("syt", "--shape", "2000000,1", timeout=30)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2
    assert code == 0 and json.loads(out)["hook"] == "2000000"


def test_cost_guard_comes_after_range_errors(capsys):
    code, _, err = run_cli(capsys, "degree", "--n", "12", "--d", "12", "--m", "5")
    assert (code, err) == (2, "error: m must satisfy 12 <= m <= 2704154, got 5\n")
    code, _, err = run_cli(
        capsys, "degree", "--n", "12", "--d", "12", "--m", "20", "--method", "boole"
    )
    assert (code, err) == (2, "error: method boole requires m = N - 1\n")
    code, _, err = run_cli(
        capsys, "degree", "--n", "1", "--d", "2", "--m", "2", "--method", "m_eq_n_plus_1"
    )
    assert (code, err) == (2, "error: m must satisfy 1 <= m <= 1, got 2\n")
    code, _, err = run_cli(capsys, "conjecture", "--n", "12..13", "--d", "1..12")
    assert (code, err) == (2, "error: d must be >= 2 (d = 1 embeds nothing new)\n")
    code, _, err = run_cli(capsys, "conjecture", "--n", "0..1000000000", "--d", "2")
    assert (code, err) == (2, "error: n must be >= 1\n")


# every variety that `table_sweep` or tests/golden_cli.json sweeps, the
# ladder's varieties, and (22, 2) and (25, 2), whose 1,002 and 1,958 short
# terms a row take about 1 and 2 s as processes
ADMITTED_SWEEPS = (
    *((1, d) for d in range(80, 111)),
    (2, 11), (2, 12), (2, 13), (3, 6), (3, 7), (4, 4), (5, 3),
    (1, 5), (1, 60), (2, 3), (3, 2), (4, 2), (1, 40), (1, 41), (1, 42), (2, 2), (2, 4),
    (3, 10), (2, 20), (1, 200), (4, 5), (6, 3), (22, 2), (25, 2),
)


def test_sweep_guard_admits_the_benchmark_and_golden_sweeps():
    for n, d in ADMITTED_SWEEPS:
        gaussdeg.cost.guard_scan((n,), (d,))


@pytest.mark.parametrize(
    ("argv", "cost"),
    [
        (("conjecture", "--n", "5", "--d", "7"), "print over 20,000,000 digits"),
        (("table", "--n", "1", "--d", "1000"), "print over 20,000,000 digits"),
        (("table", "--n", "30", "--d", "2"), "print over 20,000,000 digits"),
    ],
)
def test_sweep_guard_refuses_at_once(capsys, argv, cost):
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 1
    assert (code, out) == (2, "")
    what = f"the sweep over m of (n={argv[2]}, d={argv[4]})"
    assert err.startswith(f"error: too large: {what} would {cost} (estimated ")
    assert err.count("\n") == 1


def test_conjecture_guard_sums_its_box(capsys):
    # each (1, d) up to d = 126 passes alone, and all of them print too much
    for d in range(2, 127):
        gaussdeg.cost.guard_scan((1,), (d,))
    start = time.process_time()
    code, out, err = run_cli(capsys, "conjecture", "--n", "1", "--d", "2..126")
    assert time.process_time() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: too large: 125 sweeps over m, up to (n=1, d=126), would print ")
    # 109 times the largest sweep's digits pass the bound, and their sum does not
    digits, _ = gaussdeg.cost._sweep_cost(VeroneseVariety(1, 110))
    assert 109 * digits > gaussdeg.cost.MAX_SWEEP_DIGITS
    gaussdeg.cost.guard_scan(range(1, 2), range(2, 111))


def test_sweep_costs_are_monotone_in_n_and_d():
    # a larger variety's sweep costs no less, so a box's running sum passes
    # its bound no later than the guard of its largest variety alone would
    def cost(n, d):
        try:
            return gaussdeg.cost._sweep_cost(VeroneseVariety(n, d))
        except ValueError:
            return None

    grid = {(n, d): cost(n, d) for n in range(1, 23) for d in range(2, 130) if n * d <= 400}
    for (n, d), here in grid.items():
        for larger in (grid.get((n + 1, d)), grid.get((n, d + 1))):
            if here and larger:
                assert larger[0] >= here[0] and larger[1] >= here[1], (n, d)


def _printed_rows(out: str, fmt: str) -> list[dict]:
    """The rows of a `table` or `conjecture` output, every value as its text."""
    if fmt == "json":
        rows = json.loads(out)["rows"]
        return [{key: json.dumps(value).strip('"') for key, value in row.items()} for row in rows]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    header, *lines = out.splitlines()
    return [dict(zip(header.split(), line.split())) for line in lines]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_table_prints_every_row_exactly(capsys, fmt):
    # the benchmark's reference digests, written from ints with the digit
    # limit lifted; 29 of (3, 7)'s degrees are longer than 4,300 digits
    reference = Path(__file__).resolve().parents[1] / "bench" / "data" / "reference.json"
    cells = json.loads(reference.read_text(encoding="ascii"))["cells"]
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--d", "7", "--format", fmt)
    assert code == 0
    rows = _printed_rows(out, fmt)
    assert [row["m"] for row in rows] == [str(m) for m in range(3, 119)]
    for row in rows:
        text = "|".join(row[key] for key in ("dim", "degree", "ratio", "within_conjecture"))
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
        assert digest == cells[f"3,7,{row['m']}"]["row"], row["m"]
    assert sum(len(row["degree"]) > 4300 for row in rows) == 29


def test_conjecture_rows_are_the_single_cell_bounds(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--d", "7")
    assert code == 0
    rows = json.loads(out)["rows"]
    v = VeroneseVariety(3, 7)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = {m: bounds(v, m).to_dict() for m in (3, 47, 61, 118)}
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected[118]["product"]) < 4300 < len(expected[61]["degree"])
    for m, doc in expected.items():
        assert rows[m - 3] == doc, m


def test_sweep_guard_refusal_is_monotone_in_n_and_d():
    # a refused (n, d) stays refused at n + 1 and at d + 1: a larger
    # variety has more rows, longer numbers and no fewer terms a row
    def refused(n, d):
        try:
            gaussdeg.cost.guard_scan((n,), (d,))
        except ValueError:
            return True
        return False

    grid = {(n, d): refused(n, d) for n in range(1, 10) for d in range(2, 62)}
    assert any(grid.values()) and not all(grid.values())
    for n in range(1, 9):
        for d in range(2, 61):
            if grid[n, d]:
                assert grid[n + 1, d] and grid[n, d + 1], (n, d)


@pytest.mark.parametrize(
    "argv, degree",
    [
        # the closed sums need no partitions, so n >= 61 is no cost to them
        (("--n", "61", "--d", "2", "--m", "1951", "--method", "boole"), "62"),
        (
            ("--n", "61", "--d", "2", "--m", "62", "--method", "m_eq_n_plus_1"),
            str(gaussdeg.degrees.degree_m_np1(VeroneseVariety(61, 2)).deg_xm),
        ),
        # a thin Grassmannian has degree 1 whatever its size
        (("--n", "1", "--d", "1000000", "--m", "999999"), "1999998"),
        # the curve's (N-m)/(N-1) * C(N-1, 1) * 1 * 2(d-1) at N = d, m = 2
        (("--n", "1", "--d", "1000000", "--m", "2"), str(999998 * 1999998)),
        # (d-1)^n = 1: Boole's degree n + 1 is short at any n
        (("--n", "200000", "--d", "2", "--m", "20000299999", "--method", "boole"), "200001"),
        # 19,999! has 77,000 digits: the alternate sum's bound lets it run
        (("--n", "1", "--d", "20000", "--m", "2", "--method", "alternate"), str(19998 * 39998)),
        # the check's one sweep step, from the empty rectangle, forms no factorial
        (
            ("--n", "1", "--d", "400000", "--m", "2", "--method", "curve_closed"),
            str(399998 * 799998),
        ),
    ],
)
def test_cost_guard_passes_cheap_cells(capsys, argv, degree):
    start = time.process_time()
    code, out, _ = run_cli(capsys, "degree", *argv)
    assert time.process_time() - start < 1
    assert code == 0 and json.loads(out)["degree"] == degree


def test_cost_guard_passes_thin_grassmannians(capsys):
    # one row: a projective space of degree 1, however large
    start = time.process_time()
    code, out, _ = run_cli(capsys, "grassmann", "--d", "1", "--r", "3000000")
    assert time.process_time() - start < 1
    assert code == 0 and json.loads(out)["degree"] == "1"


def test_cli_runs_as_a_process(tmp_path):
    # the interpreter's own exit path: `raise SystemExit(main())` and argparse
    zero = tmp_path / "zero.json"
    zero.write_text(ZERO_TABLE, encoding="utf-8")
    run = _run_process
    code, out, _ = run("degree", "--n", "1", "--d", "4", "--m", "2")
    assert code == 0 and json.loads(out)["degree"] == "12"
    code, out, err = run("degree", "--n", "1", "--d", "4")
    assert code == 2 and out == "" and err.startswith("usage: gaussdeg")
    code, out, err = run("grassmann", "--d", "1500", "--r", "3000")
    assert code == 2 and out == ""
    assert err.startswith("error: too large: ") and err.count("\n") == 1
    code, out, err = run("generic", "--table", str(zero), "--m", "3")
    assert code == 3 and out == "" and "not generically finite" in err


def _count_sweep_work(monkeypatch) -> dict:
    """Wrap the sweep's step and the plan's row; return their running call counts."""
    calls = {"steps": 0, "rows": 0}
    factor, row = gaussdeg.grassmann._sweep_factor, gaussdeg.degrees.TermPlan.row

    def counted_step(*args):
        calls["steps"] += 1
        return factor(*args)

    def counted_row(*args):
        calls["rows"] += 1
        return row(*args)

    monkeypatch.setattr(gaussdeg.grassmann, "_sweep_factor", counted_step)
    monkeypatch.setattr(gaussdeg.degrees.TermPlan, "row", counted_row)
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize(
    "argv",
    [("table", "--n", "3", "--d", "7"), ("conjecture", "--n", "1..2", "--d", "2..3")],
    ids=["table", "conjecture"],
)
def test_a_repeated_sweep_prints_what_a_fresh_process_prints(capsys, monkeypatch, argv, fmt):
    # (3, 7) crosses DECIMAL_BITS; a second call in the process reads the
    # records the first kept, with no sweep step and no row made, and prints
    # the bytes of the first and of a process of its own
    argv = (*argv, "--format", fmt)
    first = run_cli(capsys, *argv)
    calls = _count_sweep_work(monkeypatch)
    second = run_cli(capsys, *argv)
    assert calls == {"steps": 0, "rows": 0}
    assert second == first == _run_process(*argv)
    assert first[0] == 0 and first[1]


@pytest.mark.parametrize("command", ["table", "conjecture"])
def test_a_sweep_that_raises_keeps_nothing(capsys, monkeypatch, command):
    # a row that fails part-way through the sweep of (2, 4) stops it with
    # exit 4 on every call: no record of the rows before it is kept
    row = gaussdeg.degrees.TermPlan.row

    def failing(plan, m, pluecker, split=None):
        if m == 7:
            raise ArithmeticError("row 7 failed")
        return row(plan, m, pluecker, split)

    monkeypatch.setattr(gaussdeg.degrees.TermPlan, "row", failing)
    for _ in range(2):
        code, out, err = run_cli(capsys, command, "--n", "2", "--d", "4")
        assert (code, out, err) == (4, "", "error: internal invariant failed: row 7 failed\n")
    assert gaussdeg.partitions.KEPT.get(("sweep", 2, 4)) is None


# one argv of each kind of value the process keeps: a table's sweep, a
# conjecture box of four varieties, the alternate sum's weights and a
# rectangle of 1,710 cells counted by prime powers
TRAFFIC_ARGVS = (
    ["table", "--n", "2", "--d", "5"],
    ["conjecture", "--n", "1..2", "--d", "2..3"],
    ["degree", "--n", "3", "--d", "3", "--m", "5", "--method", "alternate"],
    ["degree", "--n", "1", "--d", "200", "--m", "10"],
)


def test_a_repeated_argv_list_makes_each_kept_value_once(capsys, monkeypatch):
    # run twice in one process, the list builds its six tables, makes its
    # five sweeps, builds one set of weights, sieves once and divides seven
    # tableau counts, all on the first pass; the second prints the same
    # bytes from what the first kept
    made = []

    def counted(module, name):
        original = getattr(module, name)

        def count(*args):
            made.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, count)

    counted(gaussdeg.schur, "veronese_integral_table")
    counted(gaussdeg.degrees, "_sweep_cells")
    counted(gaussdeg.degrees, "_alternate_weights")
    counted(gaussdeg.partitions, "_sieve")
    counted(gaussdeg.partitions, "_count_by_division")
    passes = []
    for _ in range(2):
        made.clear()
        outputs = [run_cli(capsys, *argv) for argv in TRAFFIC_ARGVS]
        assert all(code == 0 and out and not err for code, out, err in outputs)
        passes.append(({name: made.count(name) for name in set(made)}, outputs))
    (first, printed), (second, again) = passes
    assert first == {
        "veronese_integral_table": 6, "_sweep_cells": 5, "_alternate_weights": 1, "_sieve": 1,
        "_count_by_division": 7,
    }
    assert second == {} and again == printed
