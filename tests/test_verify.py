"""The self-check suite harness itself."""

import re
import time

import pytest

import gaussdeg.degrees
import gaussdeg.schur
from gaussdeg.verify import (
    SUITE_NAMES,
    run_bounds_suite,
    run_crossform_suite,
    run_identity_suite,
    run_schur_suite,
    run_suite,
    run_syt_suite,
)


def test_all_suites_pass_at_defaults():
    counts = {"identity": 6, "syt": 67, "schur": 252, "crossform": 275, "bounds": 81}
    for name in SUITE_NAMES:
        result = run_suite(name)
        assert result.ok, result.failures
        assert result.passed == counts[name]
        assert result.failed == 0


def test_identity_suite_counts():
    result = run_identity_suite(max_n=5)
    assert (result.passed, result.failed) == (5, 0)
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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")
