"""The self-check suite harness itself."""

import ast
import json
import re
import time
from pathlib import Path

import pytest

import gaussdeg.degrees
import gaussdeg.partitions
import gaussdeg.schur
import gaussdeg.verify
from gaussdeg.cli import main
from gaussdeg.verify import (
    SUITE_NAMES,
    run_bounds_suite,
    run_crossform_suite,
    run_identity_suite,
    run_schur_suite,
    run_suite,
    run_syt_suite,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
CONTRACT = (
    "verify's default run is the benchmark's contract: bench/check.py judges every verify "
    "command against its SUITES, the default run, and the counts of bench/data/reference.json"
)


def _benchmark_suites() -> tuple:
    """`SUITES` of `bench/check.py`, read from its source."""
    tree = ast.parse((BENCH / "check.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["SUITES"]
    ]
    return ast.literal_eval(value)


# the benchmark's passed count of each suite, keyed "identity/<max-n>",
# "syt/<max-weight>" or the suite's name, as `bench/check.py` reads them
REFERENCE_COUNTS = json.loads((BENCH / "data" / "reference.json").read_text())["verify_checks"]
DEFAULT_KEYS = {"identity": "identity/6", "syt": "syt/8"}  # --max-n 6, --max-weight 8
DEFAULT_COUNTS = {
    name: REFERENCE_COUNTS[DEFAULT_KEYS.get(name, name)] for name in _benchmark_suites()
}


def test_all_suites_pass_at_defaults():
    assert SUITE_NAMES == _benchmark_suites(), CONTRACT
    for name in SUITE_NAMES:
        result = run_suite(name)
        assert result.ok, result.failures
        assert result.passed == DEFAULT_COUNTS[name], CONTRACT
        assert result.failed == 0


def test_identity_suite_counts():
    result = run_identity_suite(max_n=5)
    assert (result.passed, result.failed) == (REFERENCE_COUNTS["identity/5"], 0), CONTRACT
    with pytest.raises(ValueError):
        run_identity_suite(max_n=0)


def test_identity_suite_refuses_runaway_max_n_at_once():
    # the suite would sum over the partitions of every n up to max_n
    start = time.process_time()
    with pytest.raises(ValueError, match="^too large: n = 61 has over 1,000,000 partitions"):
        run_identity_suite(max_n=61)
    assert time.process_time() - start < 1


def test_syt_suite_counts():
    # shapes of weight 0..6: 1+1+2+3+5+7+11
    result = run_syt_suite(max_weight=6)
    assert (result.passed, result.failed) == (30, 0)
    result = run_syt_suite(max_weight=10)
    assert (result.passed, result.failed) == (REFERENCE_COUNTS["syt/10"], 0), CONTRACT


def test_syt_suite_respects_cap():
    with pytest.raises(ValueError):
        run_syt_suite(max_weight=13, cap=12)


def test_crossform_suite_trimmed():
    result = run_crossform_suite(n_values=(1, 2), d_values=(2, 3))
    assert result.ok


def test_crossform_generic_check_is_independent_of_the_closed_form(monkeypatch):
    # degree_main sums over the closed-form table; the generic check must
    # not, or it could never see the closed form go wrong
    closed = gaussdeg.schur.schur_delta_veronese_closed

    def off_by_one(v, lam, length):
        value = closed(v, lam, length)
        return value + 1 if tuple(lam) == (v.n,) else value

    monkeypatch.setattr(gaussdeg.schur, "schur_delta_veronese_closed", off_by_one)
    result = run_crossform_suite(n_values=(2,), d_values=(2,))
    assert not result.ok
    assert any(failure.startswith("generic ") for failure in result.failures)


def test_crossform_reads_a_table_with_no_degree_as_zero():
    zero = gaussdeg.schur.SegreIntegralTable(n=2, N=5, entries={(2,): 0, (1, 1): 0})
    assert gaussdeg.verify._generic_degree(zero, 3) == 0


def test_crossform_catches_a_wrong_reference_product_in_every_cell(monkeypatch):
    # a doubled reference product must be caught at every (n, d, m): the
    # routes that do not go through it (at least `alternate`) have to
    # disagree with the rest
    product = gaussdeg.degrees.reference_product
    monkeypatch.setattr(
        gaussdeg.degrees, "reference_product", lambda *args: 2 * product(*args)
    )
    result = run_crossform_suite()
    caught = {
        tuple(int(x) for x in cell)
        for failure in result.failures
        for cell in re.findall(r"\(n=(\d+), d=(\d+), m=(\d+)\)", failure)
    }
    cells = {
        (n, d, m)
        for n in (1, 2, 3)
        for d in (2, 3, 4)
        for m in range(n, gaussdeg.schur.VeroneseVariety(n, d).N)
    }
    assert caught == cells


def test_bounds_suite_trimmed():
    result = run_bounds_suite(n_values=(1, 2), d_values=(2, 3))
    assert result.ok


def test_schur_suite():
    assert run_schur_suite(max_n=3, max_d=4).ok


def test_a_wrong_3_row_determinant_fails_the_length_3_checks_only(monkeypatch):
    # the suite evaluates the Jacobi-Trudi determinant at every padded
    # length, so a fault in the 3 x 3 case shows at each check of length 3
    det = gaussdeg.schur._det_int
    monkeypatch.setattr(gaussdeg.schur, "_det_int", lambda rows: det(rows) + (len(rows) == 3))
    result = run_schur_suite()
    assert result.passed + result.failed == DEFAULT_COUNTS["schur"]
    length_3 = [
        f"schur (n={n}, d={d}, lam={lam}, length=3)"
        for n in range(3, 5)
        for d in range(2, 6)
        for k in range(n + 1)
        for lam in gaussdeg.partitions.enumerate_partitions(k, 3)
    ]
    assert [failure.split(": ")[0] for failure in result.failures] == length_3


BROKEN = "tableau count for (2, 1) did not come out integral"


@pytest.fixture
def broken_count(monkeypatch):
    """The divided tableau count raises ArithmeticError on (2, 1), as a broken kernel would."""
    count = gaussdeg.partitions._count_by_division

    def broken(lam):
        if lam == (2, 1):
            raise ArithmeticError(BROKEN)
        return count(lam)

    monkeypatch.setattr(gaussdeg.partitions, "_count_by_division", broken)


def _verify(capsys, suite):
    """`verify --suite suite` in process: exit code and its one suite record."""
    code = main(["verify", "--suite", suite])
    captured = capsys.readouterr()
    assert captured.err == ""
    (record,) = json.loads(captured.out)["suites"]
    return code, record


@pytest.mark.parametrize("suite", ["syt", "schur", "crossform", "bounds"])
def test_a_broken_invariant_is_a_failed_check(capsys, broken_count, suite):
    # every check that reaches (2, 1) fails under its own label; the rest
    # still run, so the suite counts as many checks as a passing run
    code, record = _verify(capsys, suite)
    assert code == 1
    assert record["passed"] + record["failed"] == DEFAULT_COUNTS[suite]
    assert record["failed"] == len(record["failures"]) > 0
    assert all(failure.endswith(f": {BROKEN}") for failure in record["failures"])
    if suite == "syt":
        assert record["failures"] == [f"syt (2, 1): {BROKEN}"]


def test_an_identity_route_that_raises_is_a_failed_check(capsys, monkeypatch):
    identity = gaussdeg.verify.verify_identity

    def broken(n):
        if n == 3:
            raise ArithmeticError("identity sum did not come out integral")
        return identity(n)

    monkeypatch.setattr(gaussdeg.verify, "verify_identity", broken)
    code, record = _verify(capsys, "identity")
    assert code == 1
    assert (record["passed"], record["failed"]) == (5, 1)
    assert record["failures"] == ["identity n=3: identity sum did not come out integral"]


def test_a_failing_reference_fails_every_check_of_its_cell_only(monkeypatch):
    main_degree = gaussdeg.verify.degree_main

    def broken(v, m):
        if (v.n, v.d, m) == (2, 3, 4):
            raise ArithmeticError("degree of main(n=2, d=3, m=4) did not come out integral")
        return main_degree(v, m)

    monkeypatch.setattr(gaussdeg.verify, "degree_main", broken)
    result = run_crossform_suite()
    assert result.passed + result.failed == DEFAULT_COUNTS["crossform"]
    # the cell's routes: alternate, surface_closed, generic
    assert result.failures == tuple(
        f"{route} (n=2, d=3, m=4): degree of main(n=2, d=3, m=4) did not come out integral"
        for route in ("alternate", "surface_closed", "generic")
    )


def test_only_arithmetic_errors_are_recorded(monkeypatch):
    # a ValueError is a bad option or a guard's refusal, not a failed check
    def refused(n):
        raise ValueError("too large: refused")

    monkeypatch.setattr(gaussdeg.verify, "verify_identity", refused)
    with pytest.raises(ValueError, match="^too large: refused$"):
        run_identity_suite()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_a_long_unknown_suite_is_echoed_cut():
    with pytest.raises(ValueError) as exc:
        run_suite("x" * 100_000)
    text = str(exc.value)
    assert len(text) <= 400 and "... (str of length 100,000); choose from (" in text


def test_a_check_formats_its_label_only_when_it_fails(monkeypatch):
    # the label is written as the suite's f-string labels were, from the
    # arguments bound at the call, and only for a failing check
    formatted = []

    class Shape(tuple):
        def __format__(self, spec):
            formatted.append(tuple(self))
            return super().__format__(spec)

    def shapes(total, max_parts):
        return [Shape(lam) for lam in gaussdeg.partitions.enumerate_partitions(total, max_parts)]

    monkeypatch.setattr(gaussdeg.verify, "enumerate_partitions", shapes)
    _walk_off_by_one_at(monkeypatch, (2, 1))
    result = run_syt_suite(max_weight=4)
    assert result.failures == ("syt (2, 1): hook=2 bruteforce=3",)
    assert formatted == [(2, 1)]


def _walk_off_by_one_at(monkeypatch, shape):
    """The suite's walk of Young's lattice counts one path too many to `shape`."""
    walk = gaussdeg.verify._young_layers

    def off_by_one(bound):
        for layer in walk(bound):
            if shape in layer:
                layer = {**layer, shape: layer[shape] + 1}
            yield layer

    monkeypatch.setattr(gaussdeg.verify, "_young_layers", off_by_one)


def test_syt_suite_checks_every_shape_up_to_weight_20():
    # sum of p(k) for k = 0..20; one walk counts them all
    result = run_syt_suite(max_weight=20, cap=20)
    assert (result.passed, result.failed) == (2714, 0)


def test_a_fault_in_the_walk_fails_that_shape_only(monkeypatch):
    _walk_off_by_one_at(monkeypatch, (3, 2, 1))
    result = run_syt_suite(max_weight=8)
    assert (result.passed, result.failed) == (DEFAULT_COUNTS["syt"] - 1, 1)
    assert result.failures == ("syt (3, 2, 1): hook=16 bruteforce=17",)

