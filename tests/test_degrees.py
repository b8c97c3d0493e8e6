"""Degree formulas, cross-checks, bounds, and the conjecture scan."""

import random
import sys
import threading
import time
from contextlib import contextmanager
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from itertools import islice
from math import comb, inf, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussdeg.cost
import gaussdeg.degrees
import gaussdeg.partitions
import gaussdeg.schur
from gaussdeg.cost import (
    boole_digits,
    check_printable,
    check_veronese_range,
    ordinary_gauss_digits,
    reference_digits,
)
from gaussdeg.degrees import (
    METHODS,
    BoundsReport,
    DegreeReport,
    NotGenericallyFiniteError,
    TermPlan,
    binomial_ratio_product,
    boole_degree,
    bounds,
    conjecture_scan,
    degree_alternate,
    degree_curve_closed,
    degree_general_curve,
    degree_generic,
    degree_m_np1,
    degree_main,
    degree_surface_closed,
    degree_threefold_closed,
    dim_xm,
    ordinary_gauss_degree,
    reference_product,
    table_rows,
    verify_identity,
)
from gaussdeg.grassmann import GrassmannShape, grassmann_degree
from gaussdeg.partitions import (
    KEPT,
    add_rectangle,
    enumerate_partitions,
    exact_quotient,
    syt_count_bruteforce,
    syt_count_hook,
)
from gaussdeg.schur import (
    SegreIntegralTable,
    VeroneseVariety,
    veronese_integral_table,
)


def test_dim_known():
    assert dim_xm(1, 4, 2) == 3
    assert dim_xm(2, 5, 3) == 4
    assert dim_xm(2, 5, 2) == 2
    assert dim_xm(2, 5, 4) == 4
    assert dim_xm(3, 19, 18) == 18


@pytest.mark.parametrize("n, N, m", [(1, 4, 2.5), (1.0, 4, 2), (1, 4.5, 2)])
def test_dim_refuses_a_number_that_is_not_an_integer(n, N, m):
    # read as given, n + (N - m)(m - n) at (1, 4, 2.5) would be 3.25
    with pytest.raises(TypeError):
        dim_xm(n, N, m)


def test_dim_range_validation():
    with pytest.raises(ValueError):
        dim_xm(2, 5, 1)
    with pytest.raises(ValueError):
        dim_xm(2, 5, 5)
    with pytest.raises(ValueError):
        dim_xm(0, 5, 2)


def test_degree_main_known():
    assert degree_main(VeroneseVariety(1, 4), 2).deg_xm == 12
    assert degree_main(VeroneseVariety(1, 4), 1).deg_xm == 6
    assert degree_main(VeroneseVariety(1, 4), 3).deg_xm == 6
    assert degree_main(VeroneseVariety(1, 2), 1).deg_xm == 2
    assert degree_main(VeroneseVariety(2, 2), 2).deg_xm == 9
    assert degree_main(VeroneseVariety(2, 2), 3).deg_xm == 21
    assert degree_main(VeroneseVariety(2, 2), 4).deg_xm == 3


def test_degree_main_report_fields():
    report = degree_main(VeroneseVariety(1, 4), 2)
    assert (report.n, report.d, report.N, report.m) == (1, 4, 4, 2)
    assert report.dim_xm == 3
    assert report.method == "main"


def test_degree_main_builds_the_veronese_table_once_per_variety(monkeypatch):
    built = []
    build = gaussdeg.schur.veronese_integral_table

    def counting_build(v):
        built.append(v)
        return build(v)

    monkeypatch.setattr(gaussdeg.schur, "veronese_integral_table", counting_build)
    v = VeroneseVariety(2, 3)
    for m in range(v.n, v.N):
        degree_main(v, m)
        bounds(v, m)
    assert built == [v]


def test_degree_main_rejects_bad_m():
    with pytest.raises(ValueError):
        degree_main(VeroneseVariety(2, 2), 5)
    with pytest.raises(ValueError):
        degree_main(VeroneseVariety(2, 2), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_alternate_agrees_with_main(n, d):
    v = VeroneseVariety(n, d)
    for m in range(n, v.N):
        assert degree_alternate(v, m).deg_xm == degree_main(v, m).deg_xm


def test_alternate_agrees_with_main_above_the_kept_weights():
    # n = 14 > KEPT_TABLE_N: the partition weights are built per call, for
    # the shapes of at most m - n rows only
    assert gaussdeg.schur.KEPT_TABLE_N < 14
    v = VeroneseVariety(14, 2)
    for m in range(14, 18):
        assert degree_alternate(v, m).deg_xm == degree_main(v, m).deg_xm
    assert KEPT.get(("weights", 14)) is None and not KEPT._entries


def test_cache_clear_lets_a_patched_hook_reach_the_alternate_sum(monkeypatch):
    # the weights of n = 4 are kept once made; after cache_clear a replaced
    # tableau kernel makes them again.  The kernel sees the shapes of two
    # rows and two columns or more: the shifted shapes, of more than n
    # cells, on every call, and the weights' partitions once they are remade
    v = VeroneseVariety(4, 2)
    want = degree_alternate(v, 6).deg_xm
    seen = []
    count = gaussdeg.partitions._kept_count

    def counted(lam):
        seen.append(lam)
        return count(lam)

    monkeypatch.setattr(gaussdeg.partitions, "_kept_count", counted)
    assert degree_alternate(v, 6).deg_xm == want
    shifted = seen[:]
    assert shifted and min(map(sum, shifted)) > 4
    seen.clear()
    gaussdeg.schur.cache_clear()
    assert degree_alternate(v, 6).deg_xm == want
    remade = [(2, 1), (3, 1), (2, 2), (2, 1, 1)]  # the partitions of 0..4 past one row or column
    assert sorted(seen) == sorted(shifted + remade)


def test_alternate_refuses_its_factorial_past_the_digit_limit():
    # (dim X_m)! bounds the sum's tableau counts: 999,999! has 5.6 million
    # digits, and at d = 10^400 the dimension is past the floats
    start = time.process_time()
    with pytest.raises(ValueError, match=r"^too large: \(dim X_m\)! of the alternate sum at "):
        degree_alternate(VeroneseVariety(1, 10**6), 2)
    with pytest.raises(ValueError, match=r"1,000,000 digits \(estimated inf or more\)$"):
        degree_alternate(VeroneseVariety(1, 10**400), 2)
    assert time.process_time() - start < 1


def test_degree_m_np1_known():
    assert degree_m_np1(VeroneseVariety(2, 2)).deg_xm == 21
    assert degree_m_np1(VeroneseVariety(1, 4)).deg_xm == 12
    # N - 1 = 1 < n + 1
    with pytest.raises(ValueError, match="^m must satisfy 1 <= m <= 1, got 2$"):
        degree_m_np1(VeroneseVariety(1, 2))


def _m_np1_by_binomials(v):
    """The m = n+1 sum with every binomial and power formed afresh."""
    n, N = v.n, v.N
    return (v.d - 1) ** n * sum(
        (-1) ** (n - k) * (n + 1) ** k * comb(N - 1, k) * comb(n + 1, n - k)
        for k in range(n + 1)
    )


def test_degree_m_np1_matches_the_binomial_sum():
    for n in range(1, 9):
        for d in range(2, 9):
            v = VeroneseVariety(n, d)
            if n + 1 < v.N:
                assert degree_m_np1(v).deg_xm == _m_np1_by_binomials(v), (n, d)
    for n in (200, 500):
        v = VeroneseVariety(n, 2)
        assert degree_m_np1(v).deg_xm == _m_np1_by_binomials(v), n


def test_degree_m_np1_builds_each_term_from_the_last():
    start = time.process_time()
    degree = degree_m_np1(VeroneseVariety(2000, 2)).deg_xm
    assert time.process_time() - start < 0.5
    assert 13_000 < log10(degree) < 14_000


def test_degree_curve_closed_known():
    assert degree_curve_closed(4, 2).deg_xm == 12
    assert degree_curve_closed(2, 1).deg_xm == 2
    # both endpoints carry the same degree 2(d-1)
    for d in range(2, 8):
        assert degree_curve_closed(d, 1).deg_xm == 2 * (d - 1)
        assert degree_curve_closed(d, d - 1).deg_xm == 2 * (d - 1)
    with pytest.raises(ValueError):
        degree_curve_closed(1, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_curve_closed_agrees_with_main(d):
    v = VeroneseVariety(1, d)
    for m in range(1, d):
        assert degree_curve_closed(d, m).deg_xm == degree_main(v, m).deg_xm


def test_degree_general_curve_known():
    assert degree_general_curve(4, 4, 0, 2).deg_xm == 12
    assert degree_general_curve(4, 5, 1, 1).deg_xm == 10
    report = degree_general_curve(5, 6, 2, 3)
    assert report.method == "general_curve"
    assert report.notes == "genus 2"


def test_degree_general_curve_validation():
    with pytest.raises(ValueError):
        degree_general_curve(2, 1, 0, 1)  # 2g - 2 + 2d = 0
    with pytest.raises(ValueError):
        degree_general_curve(4, 4, -1, 2)
    with pytest.raises(ValueError):
        degree_general_curve(1, 4, 0, 1)


@pytest.mark.parametrize("position", range(4), ids=["N", "d", "g", "m"])
def test_a_general_curve_refuses_an_input_that_is_not_an_integer(position):
    # read as given, genus 0.5 at (4, 4, 0.5, 2) reported the degree 14.0
    args = [4, 4, 0, 2]
    args[position] += 0.5
    with pytest.raises(TypeError):
        degree_general_curve(*args)


@pytest.mark.parametrize("args", [(4.0, 2), (4, 2.0)], ids=["d", "m"])
def test_the_rational_normal_curve_refuses_an_input_that_is_not_an_integer(args):
    with pytest.raises(TypeError):
        degree_curve_closed(*args)


@pytest.mark.parametrize("args", [(1.0, 3), (1, 2.5)], ids=["n", "d"])
def test_boole_refuses_an_input_that_is_not_an_integer(args):
    # read as given, (1, 2.5) returned the degree 3.0
    with pytest.raises(TypeError):
        boole_degree(*args)


def test_a_general_curve_of_degree_zero_is_refused():
    with pytest.raises(ValueError, match="^curve degree must be >= 1$"):
        degree_general_curve(4, 0, 0, 2)


def test_a_general_curve_report_writes_its_notes():
    assert degree_general_curve(5, 6, 2, 3).to_dict()["notes"] == "genus 2"


def test_degree_surface_closed_known():
    assert degree_surface_closed(2, 3).deg_xm == 21
    assert degree_surface_closed(2, 4).deg_xm == 3
    assert degree_surface_closed(3, 2).deg_xm == 36


@pytest.mark.parametrize("d", [2, 3, 4])
def test_surface_closed_agrees_with_main(d):
    v = VeroneseVariety(2, d)
    for m in range(2, v.N):
        assert degree_surface_closed(d, m).deg_xm == degree_main(v, m).deg_xm


def test_degree_threefold_closed_known():
    assert degree_threefold_closed(2, 8).deg_xm == 4
    assert degree_threefold_closed(2, 3).deg_xm == 64


@pytest.mark.parametrize("d", [2, 3])
def test_threefold_closed_agrees_with_main(d):
    v = VeroneseVariety(3, d)
    for m in range(3, v.N):
        assert degree_threefold_closed(d, m).deg_xm == degree_main(v, m).deg_xm


def test_boole_degree_known():
    assert boole_degree(2, 2) == 3
    assert boole_degree(3, 2) == 4
    assert boole_degree(2, 4) == 27
    for d in range(2, 8):
        assert boole_degree(1, d) == 2 * (d - 1)
    with pytest.raises(ValueError):
        boole_degree(0, 3)
    with pytest.raises(ValueError):
        boole_degree(2, 1)


def test_boole_digits():
    for n, d in [(1, 2), (2, 4), (7, 3), (300, 9), (200000, 2)]:
        exact = log10(boole_degree(n, d))
        assert boole_digits(n, d) == pytest.approx(exact, rel=1e-12)
    # (d-1)^n = 1 at d = 2 leaves n + 1, which is short at any n
    assert boole_digits(10**400, 2) == pytest.approx(400)
    assert boole_digits(10**400, 3) == inf


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_endpoints_boole_and_ordinary(n, d):
    v = VeroneseVariety(n, d)
    assert degree_main(v, v.N - 1).deg_xm == boole_degree(n, d)
    assert degree_main(v, n).deg_xm == ordinary_gauss_degree(v)


def test_katz_kleiman_known():
    # the dual variety's degree (Katz-Kleiman) is the table entry at the one-row (n)
    for n, d, dual in ((2, 2, 3), (2, 3, 12), (3, 2, 4)):
        table = veronese_integral_table(VeroneseVariety(n, d))
        assert table.lookup((table.n,)) == dual == boole_degree(n, d)
    # pass-through: the result is exactly the table entry at (n)
    custom = SegreIntegralTable(n=2, N=5, entries={(2,): 1, (1, 1): 7})
    assert custom.lookup((custom.n,)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_generic_round_trip(n, d):
    v = VeroneseVariety(n, d)
    table = veronese_integral_table(v)
    for m in range(n, v.N):
        report = degree_generic(table, m)
        assert report.deg_xm == degree_main(v, m).deg_xm
        assert report.method == "generic"
        assert report.d is None
    assert degree_generic(table, v.N - 1).deg_xm == table.lookup((table.n,))


def test_generic_curve_table_matches_general_curve():
    for N in range(2, 9):
        for g in range(0, 4):
            for d in (N, N + 3):
                table = SegreIntegralTable(
                    n=1, N=N, entries={(1,): 2 * g - 2 + 2 * d}
                )
                for m in range(1, N):
                    assert (
                        degree_generic(table, m).deg_xm
                        == degree_general_curve(N, d, g, m).deg_xm
                    )


def test_generic_non_positive_total():
    zero = SegreIntegralTable(n=2, N=5, entries={(2,): 0, (1, 1): 0})
    with pytest.raises(NotGenericallyFiniteError):
        degree_generic(zero, 3)
    negative = SegreIntegralTable(n=2, N=5, entries={(2,): -4, (1, 1): 1})
    with pytest.raises(NotGenericallyFiniteError):
        degree_generic(negative, 4)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generic_is_the_rectangle_tableau_sum(data):
    # the oracle: every Schur integral weighted by the tableau count of its
    # partition plus the (m-n)-wide rectangle of height N-m; partitions with
    # more than N-m rows carry no weight.  N < 2n and negative entries are
    # included, and wherever the sum is <= 0 no degree exists.
    n = data.draw(st.integers(min_value=1, max_value=6))
    N = data.draw(st.integers(min_value=n + 1, max_value=3 * n + 4))
    entries = {
        lam: data.draw(st.integers(min_value=-50, max_value=200))
        for lam in enumerate_partitions(n, n)
    }
    table = SegreIntegralTable(n=n, N=N, entries=entries)
    for m in range(n, N):
        expected = sum(
            entries[lam] * syt_count_hook(add_rectangle(lam, N - m, m - n))
            for lam in enumerate_partitions(n, N - m)
        )
        if expected <= 0:
            with pytest.raises(NotGenericallyFiniteError):
                degree_generic(table, m)
        else:
            assert degree_generic(table, m).deg_xm == expected, (entries, N, m)


def test_bounds_curve_equality_case():
    b = bounds(VeroneseVariety(1, 4), 2)
    assert b.product == 18
    assert b.ratio == Fraction(2, 3)
    assert b.lower == b.upper == b.conjecture_upper == Fraction(2, 3)
    assert b.within_conjecture


def test_bounds_surface_case():
    b = bounds(VeroneseVariety(2, 2), 3)
    assert b.product == 54
    assert b.ratio == Fraction(7, 18)
    assert b.lower == Fraction(1, 3)
    assert b.upper == Fraction(1, 2)
    assert b.conjecture_upper == Fraction(4, 9)
    assert b.within_conjecture
    assert b.to_dict() == {
        "n": 2,
        "d": 2,
        "N": 5,
        "m": 3,
        "degree": "21",
        "product": "54",
        "ratio": "7/18",
        "conjecture_upper": "4/9",
        "conjecture_value": "24",
        "within_conjecture": True,
    }


def test_reference_product_by_brute_force():
    assert reference_product(1, 4, 2, 6) == 18
    assert reference_product(2, 5, 3, 9) == 54
    # G(m-n, N-n) has dimension (m-n)(N-m); its Pluecker degree counts the
    # tableaux of the (N-m)-wide rectangle of height m-n
    for n, N, m, first in [(1, 6, 3, 10), (2, 9, 5, 64), (3, 9, 5, 7), (2, 9, 2, 1)]:
        rectangle = (N - m,) * (m - n)
        assert reference_product(n, N, m, first) == (
            comb(n + (m - n) * (N - m), n) * syt_count_bruteforce(rectangle) * first
        )


@pytest.mark.parametrize(
    ("closed", "n", "max_d"),
    [(degree_curve_closed, 1, 9), (degree_surface_closed, 2, 4), (degree_threefold_closed, 3, 3)],
)
def test_closed_forms_and_bounds_share_the_reference_product(closed, n, max_d):
    for d in range(2, max_d + 1):
        v = VeroneseVariety(n, d)
        for m in range(n, v.N):
            b = bounds(v, m)
            assert b.product == reference_product(n, v.N, m, ordinary_gauss_degree(v))
            assert b.degree == closed(d, m).deg_xm == b.ratio * b.product
            assert (b.n, b.d, b.N, b.m) == (n, d, v.N, m)


def test_curve_closed_compares_the_dual_grassmannians(monkeypatch):
    # a wrong Pluecker degree trips the comparison with the dual rectangle's
    # hook count at every m where it is wrong, the self-dual m = 3 included;
    # at m = 1 the fake is the true degree 1 of the point G(0, 4)
    monkeypatch.setattr("gaussdeg.degrees.grassmann_degree", lambda shape: shape.d + 1)
    for m in (2, 3, 4):
        with pytest.raises(ArithmeticError, match="dual Grassmannian"):
            degree_curve_closed(5, m)
    degree_curve_closed(5, 1)


def test_bounds_at_m_equals_n():
    b = bounds(VeroneseVariety(3, 2), 3)
    assert b.ratio == b.lower == b.upper == b.conjecture_upper == Fraction(1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_bounds_sandwich_sweep(n, d):
    v = VeroneseVariety(n, d)
    N = v.N
    for m in range(n, N):
        b = bounds(v, m)
        assert b.lower == Fraction(comb(N - m, n), comb(N - n, n))
        assert b.upper == Fraction(comb(N - m + n - 1, n), comb(N - 1, n))
        assert b.conjecture_upper == Fraction(N - m, N - n) ** n
        assert b.lower <= b.ratio <= b.upper
        assert b.degree == degree_alternate(v, m).deg_xm
        if n == 1:
            assert b.lower == b.ratio == b.upper


def test_verify_identity_known():
    assert verify_identity(1) == (2, 2, True)
    assert verify_identity(2) == (18, 18, True)
    assert verify_identity(3)[0] == 384


def test_verify_identity_refuses_n_below_one():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        verify_identity(0)


def test_verify_identity_range():
    for n in range(1, 9):
        lhs, rhs, equal = verify_identity(n)
        assert equal, (n, lhs, rhs)


def test_verify_identity_with_bruteforce_counts():
    for n in range(1, 6):
        lhs, rhs, equal = verify_identity(n, tableau_count=syt_count_bruteforce)
        assert equal, (n, lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_binomial_ratio_product_monotone(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    N = data.draw(st.integers(min_value=2 * n, max_value=20))
    m = data.draw(st.integers(min_value=n, max_value=N - 1))
    values = {
        lam: binomial_ratio_product(lam, n, N, m)
        for lam in enumerate_partitions(n, n)
    }
    low = values[(1,) * n]
    high = values[(n,)]
    for lam, value in values.items():
        assert low <= value <= high, (lam, n, N, m)
    assert low == Fraction(comb(N - m, n), comb(N - n, n))
    assert high == Fraction(comb(N - m + n - 1, n), comb(N - 1, n))


def test_binomial_ratio_product_below_2n():
    # N = 4 < 2n: a shape with more than N - m rows stops at its first zero
    # numerator, before any denominator could vanish
    assert binomial_ratio_product((3,), 3, 4, 3) == 1
    assert binomial_ratio_product((2, 1), 3, 4, 3) == 0
    assert binomial_ratio_product((1, 1, 1), 3, 4, 3) == 0
    assert binomial_ratio_product((3,), 3, 5, 4) == Fraction(1, 4)


def test_conjecture_scan_small():
    rows = tuple(conjecture_scan((1, 2), (2, 3)))
    assert len(rows) == 13
    assert all(row["within_conjecture"] for row in rows)
    for row in rows:
        ratio, power = Fraction(row["ratio"]), Fraction(row["conjecture_upper"])
        assert row["within_conjecture"] == (ratio <= power)
        assert Fraction(row["conjecture_value"]) == power * int(row["product"])
        v = VeroneseVariety(row["n"], row["d"])
        assert row["degree"] == str(degree_main(v, row["m"]).deg_xm)
        assert row == bounds(v, row["m"]).to_dict()
        if row["n"] == 1:
            assert ratio == power


def test_conjecture_scan_rejects_empty_ranges():
    with pytest.raises(ValueError):
        conjecture_scan((), (2,))
    with pytest.raises(ValueError):
        conjecture_scan((1,), ())


def test_conjecture_scan_yields_its_first_record_first():
    # rows are made as they are read: the n = 61 table, past the
    # partition-count guard, is not built before (1, 2, 1) is returned
    row = next(iter(conjecture_scan((1, 61), (2,))))
    assert (row["n"], row["d"], row["m"]) == (1, 2, 1)
    assert row == bounds(VeroneseVariety(1, 2), 1).to_dict()


def test_degree_report_invariants():
    with pytest.raises(ValueError):
        DegreeReport(n=1, N=4, m=2, deg_xm=0, method="main")
    with pytest.raises(ValueError):
        DegreeReport(n=1, N=4, m=2, deg_xm=12, method="nope")


def test_degree_report_to_dict():
    doc = degree_main(VeroneseVariety(1, 4), 2).to_dict()
    assert doc == {
        "n": 1,
        "d": 4,
        "N": 4,
        "m": 2,
        "dim": 3,
        "degree": "12",
        "method": "main",
    }


def test_dimension_invariant_over_sweep():
    for n, d in [(1, 5), (2, 3), (3, 2)]:
        v = VeroneseVariety(n, d)
        for m in range(n, v.N):
            report = degree_main(v, m)
            assert report.dim_xm == n + (v.N - m) * (m - n)
            assert report.deg_xm > 0


@pytest.mark.parametrize(
    ("n", "d"),
    [
        *((1, d) for d in range(2, 31)),
        (1, 60),
        *((2, d) for d in range(2, 7)),
        (2, 12),
        *((3, d) for d in range(2, 5)),
        (4, 4),
        (5, 3),
    ],
)
def test_bounds_sweep_is_bounds_at_every_m(n, d):
    # the sweep's rows are the single cells' records written out
    v = VeroneseVariety(n, d)
    rows = tuple(conjecture_scan((n,), (d,)))
    assert rows == tuple(bounds(v, m).to_dict() for m in range(v.n, v.N))


@pytest.mark.parametrize(
    "n, d, m",
    [(1, 4, 2), (2, 2, 3), (1, 200, 100), (1, 200, 199), (2, 20, 116), (3, 10, 141), (6, 3, 40)],
)
def test_reference_digits_estimates_the_product(n, d, m):
    v = VeroneseVariety(n, d)
    first = ordinary_gauss_degree(v)
    exact = log10(reference_product(n, v.N, m, first))
    assert ordinary_gauss_digits(v) == pytest.approx(log10(first), rel=1e-12)
    estimate = reference_digits(n, v.N, m, ordinary_gauss_digits(v))
    assert abs(estimate - exact) < 1e-6 * max(1.0, exact)


def test_reference_digits_prices_a_long_rectangle_whole():
    # N = 2,704,155 for (12, 12): deg G(8, N - 20) alone has millions of digits;
    # its rectangle is one run, priced whole, so no limit could stop it sooner
    N = comb(24, 12) - 1
    assert 10**6 < reference_digits(12, N, 20, 0.0)


def test_reference_digits_of_huge_cells():
    # one row: deg G = 1 and C(1 + kc, 1) = N, however large N is
    assert abs(reference_digits(1, 10**400, 10**400 - 1, 0.0) - 400) < 1e-9
    # two rows or more past the float range cannot be estimated: no limit holds
    assert reference_digits(1, 10**400, 5, 0.0) == inf
    # one row, kc = N - 4 past 2^64: C(3 + kc, 3) = C(N - 1, 3)
    N = 2**70
    assert abs(reference_digits(3, N, 4, 0.0) - log10(comb(N - 1, 3))) < 1e-9
    with pytest.raises(ValueError, match="m must satisfy"):
        reference_digits(2, 5, 5, 0.0)


def test_range_messages_render_at_any_size():
    with pytest.raises(ValueError, match="^m must satisfy 2 <= m <= 4, got 5$"):
        check_veronese_range(VeroneseVariety(2, 2), 5)
    with pytest.raises(ValueError, match="^m must satisfy 12 <= m <= 2704154, got 5$"):
        check_veronese_range(VeroneseVariety(12, 12), 5)
    # a bound past CPython's 4,300-digit str() limit is named by its size
    message = "^m must satisfy 1 <= m <= an integer of 16,610 bits, got 0$"
    with pytest.raises(ValueError, match=message):
        dim_xm(1, 10**5000, 0)


def test_degrees_past_the_str_limit_reach_their_report():
    # n = 1 puts N = d = 10^5000: each report names d, m or N in no message
    d = 10**5000
    v = VeroneseVariety(1, d)
    assert degree_m_np1(v).deg_xm == 2 * (d - 2) * (d - 1)
    assert degree_general_curve(d, d, 0, 2).deg_xm == 2 * (d - 2) * (d - 1)
    assert METHODS["boole"].compute(v, d - 1).deg_xm == 2 * (d - 1)


def test_bounds_violation_names_a_long_ratio_by_its_size(monkeypatch):
    # the product at m = 100 has 53,073 bits, but the ratio is the weighted
    # sum S = 1 over L * g = 199 * 398: short whatever the product's size
    monkeypatch.setattr(gaussdeg.schur, "_weighted_sum", lambda plan, m, residue: 1)
    message = (
        r"^proved bounds violated at \(n=1, d=200, m=100\): "
        r"100/199 <= 1/79202 <= 100/199 fails$"
    )
    with pytest.raises(ArithmeticError, match=message):
        bounds(VeroneseVariety(1, 200), 100)


def test_veronese_range_forms_n_only_when_it_must():
    # N = C(400000, 200000) - 1 takes seconds to form and has 120,410 digits
    v = VeroneseVariety(200000, 200000)
    message = r"^m must satisfy 200000 <= m <= C\(400000, 200000\) - 2, got 1$"
    with pytest.raises(ValueError, match=message):
        check_veronese_range(v, 1)
    check_veronese_range(v, 300000)
    # boole's m = N - 1 is out of reach for an m this short
    assert not METHODS["boole"].applies(v, 300000)
    assert "N" not in vars(v)
    # N has about 40 million digits; n = d = 10^4000 puts k = min(n, d) past the floats
    for v in (VeroneseVariety(10**4000, 10000), VeroneseVariety(10**4000, 10**4000)):
        check_veronese_range(v, 10**4100)
        assert not METHODS["boole"].applies(v, 10**4100)
        # no integer past 13,000 bits is printed in decimal
        with pytest.raises(ValueError, match=r"^m must satisfy an integer of 13,288 bits <= m "):
            check_veronese_range(v, 1)
        assert "N" not in vars(v)
    small = VeroneseVariety(2, 3)
    check_veronese_range(small, 8)
    assert small.N == 9 and vars(small)["N"] == 9


PARTITIONS_61 = "^too large: n = 61 has over 1,000,000 partitions"
UNPRINTABLE = "^too large: the degree at .* would have over 4300 digits, more than the interpreter "


@pytest.mark.parametrize(
    ("name", "n", "d", "m", "refusal"),
    [
        # the partition sums hold n to 10^6 partitions; the closed sums need none
        pytest.param("main", 61, 2, 61, PARTITIONS_61, id="main-61"),
        pytest.param("alternate", 61, 2, 61, PARTITIONS_61, id="alternate-61"),
        # and refuse, before any term, a degree past the output limit by its
        # proved lower bound: (50, 2, 60), of 12,739 digits or more (about
        # 20 s of CPU for 204,226 terms), (40, 2, 50), 8,146 (about 3 s), and
        # the cheap (2, 20, 116), 21,741; a degree that can be printed runs:
        # 46^45, the 75 digits of (45, 2, 45), from 89,134 terms
        pytest.param("main", 50, 2, 60, UNPRINTABLE, id="main-cold-terms"),
        pytest.param("alternate", 50, 2, 60, UNPRINTABLE, id="alternate-cold-terms"),
        pytest.param("main", 40, 2, 50, UNPRINTABLE, id="main-40"),
        pytest.param("main", 45, 2, 45, None, id="main-45-printable"),
        pytest.param("alternate", 60, 2, 60, None, id="alternate-60-printable"),
        # the bound is 0 where N - m < n, whatever the product's 69,945
        # digits: such a cell is left to str()
        pytest.param("main", 45, 2, 1036, None, id="main-45-lower-bound-zero"),
        pytest.param("main", 2, 20, 116, UNPRINTABLE, id="main-cheap-past-output-limit"),
        # every method's guard ends in the same check
        pytest.param("surface_closed", 2, 20, 116, UNPRINTABLE, id="surface_closed-unprintable"),
        pytest.param("threefold_closed", 3, 10, 144, UNPRINTABLE, id="threefold_closed-unprintable"),
        pytest.param("m_eq_n_plus_1", 61, 2, 62, None, id="m_eq_n_plus_1-61"),
        # 13,470 digits, from 2,001 terms its work bound admits
        pytest.param("m_eq_n_plus_1", 2000, 2, 2001, UNPRINTABLE, id="m_eq_n_plus_1-unprintable"),
        # Boole's power is its whole cost: n + 1 at d = 2, 3^(10^8) at d = 4
        pytest.param("boole", 200000, 2, 20000299999, None, id="boole-d2"),
        pytest.param(
            "boole", 10**8, 4, comb(10**8 + 4, 4) - 2, "^too large: Boole's degree at ",
            id="boole-power",
        ),
        # 20001 x 2^20000 has 6,025 digits
        pytest.param(
            "boole", 20000, 3, comb(20003, 3) - 2,
            r"^too large: Boole's degree at \(n=20000, d=3\) would have over 4300 digits",
            id="boole-unprintable",
        ),
        pytest.param("curve_closed", 1, 4, 2, None, id="curve_closed"),
        # its check, 99 rectangles at 16,000 digits, passes its work bound
        # (`test_unprintable_degrees_pass_with_the_limit_lifted`), and then
        # the degree, 15,975 digits or more, is refused; 599 rectangles at
        # 860,000 digits are refused by the work bound
        pytest.param("curve_closed", 1, 200, 100, UNPRINTABLE, id="curve_closed-check"),
        pytest.param(
            "curve_closed", 1, 1200, 600, "^too large: the curve_closed check at ",
            id="curve_closed-check-refused",
        ),
        # its second step's factors have 2.1 million digits and take about
        # 5 s to form and reduce; its first, from the empty rectangle, is free
        pytest.param(
            "curve_closed", 1, 200000, 3, "^too large: the curve_closed check at ",
            id="curve_closed-step-refused",
        ),
        pytest.param("curve_closed", 1, 400000, 2, None, id="curve_closed-first-step"),
        pytest.param("surface_closed", 2, 2, 3, None, id="surface_closed"),
        pytest.param("threefold_closed", 3, 2, 4, None, id="threefold_closed"),
        pytest.param("m_eq_n_plus_1", 2, 2, 3, None, id="m_eq_n_plus_1"),
        pytest.param("boole", 2, 2, 4, None, id="boole"),
    ],
)
def test_method_guard_bounds_its_own_cost(name, n, d, m, refusal):
    method, v = METHODS[name], VeroneseVariety(n, d)
    assert method.applies(v, m)
    start = time.process_time()
    if refusal is None:
        method.guard(v, m)
    else:
        with pytest.raises(ValueError, match=refusal):
            method.guard(v, m)
    assert time.process_time() - start < 1


@contextmanager
def no_digit_limit():
    """CPython's 4,300-digit limit on int -> str lifted inside, restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_cold_terms_are_refused_only_past_the_output_limit():
    # with the interpreter's digit limit lifted, (50, 2, 60) can be printed
    # and so runs; the limit restored, it is refused again, before any term
    method, v = METHODS["main"], VeroneseVariety(50, 2)
    with no_digit_limit():
        method.guard(v, 60)
    with pytest.raises(ValueError, match=r"^too large: the degree at \(n=50, d=2, m=60\) "):
        method.guard(v, 60)


def test_unprintable_degrees_pass_with_the_limit_lifted():
    # a limit of 0 refuses nothing; what is left is each method's cost
    with no_digit_limit():
        check_printable(inf, "the number %s", 1)
        for name, n, d, m in (
            ("main", 2, 20, 116), ("alternate", 50, 2, 60), ("surface_closed", 2, 20, 116),
            ("threefold_closed", 3, 10, 144), ("m_eq_n_plus_1", 2000, 2, 2001),
            ("curve_closed", 1, 200, 100), ("boole", 20000, 3, comb(20003, 3) - 2),
        ):
            METHODS[name].guard(VeroneseVariety(n, d), m)


def test_the_guard_refuses_exactly_the_unprintable_ladder_cells():
    # the sweep prints every row; its degrees' lengths, read apart from the
    # guard, decide which of the 907 cells of the five ladder varieties the
    # guard must refuse: 650, with no printable cell among them
    long_rows, refused = set(), set()
    for n, d in ((1, 200), (2, 20), (3, 10), (4, 5), (6, 3)):
        v = VeroneseVariety(n, d)
        for row in table_rows(v):
            m = row["m"]
            if len(row["degree"]) > 4300:
                long_rows.add((n, d, m))
            try:
                METHODS["main"].guard(v, m)
            except ValueError as exc:
                assert str(exc).startswith("too large: the degree at "), exc
                refused.add((n, d, m))
    assert len(refused) == 650 and refused == long_rows


def test_lower_digits_bound_the_degree_from_below():
    # every degree guard reads a degree's digits off its proved lower
    # bound times the product's estimate, less one digit for the estimate
    for n, d, m in ((2, 3, 4), (3, 4, 20), (1, 200, 100)):
        v = VeroneseVariety(n, d)
        record = bounds(v, m)
        lower = record.lower * record.product
        exact = log10(lower.numerator) - log10(lower.denominator)
        estimate = gaussdeg.cost._lower_digits(v, m, gaussdeg.cost.guard_veronese(v, m))
        assert exact - 1.01 < estimate < exact - 0.99
        assert estimate < log10(record.degree)


def test_base10_rows_read_as_exact_ints():
    # (1, 200) carries its rows in base 10 from m = 6 on; the single cell
    # holds ints, and its `to_dict` writes the sweep's row on both sides
    v = VeroneseVariety(1, 200)
    cells = gaussdeg.degrees._sweep_cells(v.integral_table.plan)
    assert [type(p) for _, p, _ in islice(cells, 4, 6)] == [int, Decimal]
    rows = list(conjecture_scan((1,), (200,)))
    for m in (2, 5, 6, 21, 100, 199):
        row, cell = rows[m - 1], bounds(v, m)
        assert type(cell.degree) is int and type(cell.product) is int
        assert cell.degree == degree_main(v, m).deg_xm
        assert cell.product == reference_product(1, 200, m, 2 * 199)
        with no_digit_limit():
            assert row == cell.to_dict()
            assert (row["degree"], row["product"]) == (str(cell.degree), str(cell.product))


def test_bounds_report_is_a_plain_record():
    record = bounds(VeroneseVariety(2, 3), 4)
    assert type(record.degree) is int and type(record.product) is int
    fields = {name: getattr(record, name) for name in record._fields}
    changed = BoundsReport(**{**fields, "degree": record.degree + 1})
    assert (changed.degree, changed.product) == (record.degree + 1, record.product)
    assert BoundsReport(**fields) == record
    assert f"degree={record.degree}, product={record.product}, ratio=Fraction(" in repr(record)
    assert str(record.conjecture_value) == record.to_dict()["conjecture_value"]


def test_curve_closed_multiplies_a_base10_sweep_value_exactly():
    # G(99, 199) is read off the sweep past its switch to Decimals
    assert degree_curve_closed(200, 100).deg_xm == degree_main(VeroneseVariety(1, 200), 100).deg_xm


def test_base10_sweep_leaves_and_ignores_the_callers_context():
    # a 5-digit context that rounds without trapping: a sweep computing in
    # it would round silently, and one holding its own context across a
    # yield would leave it in place while suspended
    v = VeroneseVariety(1, 200)
    with localcontext(Context(prec=5)) as caller:
        sweep = conjecture_scan((1,), (200,))
        row = next(islice(sweep, 99, None))
        assert getcontext() is caller and caller.prec == 5
        assert not any(caller.flags.values())
        next(sweep)
        assert getcontext() is caller
    with no_digit_limit():
        assert row == bounds(v, 100).to_dict()


def test_bounds_ratio_is_the_reduced_degree_over_product():
    # the weighted sum S over L * g is degree / product, reduced, on both
    # sides of the base-10 switch
    with no_digit_limit():
        for row in islice(conjecture_scan((3,), (7,)), 0, None, 9):
            assert row["ratio"] == str(Fraction(int(row["degree"]), int(row["product"])))


def _reference_degree(table: SegreIntegralTable, m: int) -> int:
    """The weighted total term by term: each tableau count one long exact division."""
    n, N = table.n, table.N
    unit = reference_product(n, N, m, 1)
    total = 0
    for lam, integral in table.entries.items():
        ratio = binomial_ratio_product(lam, n, N, m)
        numerator = unit * syt_count_hook(lam) * ratio.numerator
        total += exact_quotient(numerator, ratio.denominator, "the term of %s", lam) * integral
    return total


SMALL_VERONESE = [
    VeroneseVariety(n, d)
    for n in range(1, 7)
    for d in range(2, 61)
    if VeroneseVariety(n, d).N <= 60
]


@pytest.mark.parametrize("v", SMALL_VERONESE, ids=lambda v: f"{v.n}-{v.d}")
def test_short_weighted_sum_is_the_term_by_term_total(v):
    # every m of every Veronese variety with n <= 6 and N <= 60, through the
    # sweep (Decimal rows past the base-10 switch) and the single cell
    g = ordinary_gauss_degree(v)
    for row in conjecture_scan((v.n,), (v.d,)):
        m = row["m"]
        expected = _reference_degree(v.integral_table, m)
        assert row["degree"] == str(expected) and expected == degree_main(v, m).deg_xm, m
        assert row["ratio"] == str(Fraction(expected, reference_product(v.n, v.N, m, g))), m


def _golden_tables() -> list[SegreIntegralTable]:
    """The golden file's `generic` tables that load, two of them with N < 2n."""
    from test_golden_cli import _table_docs

    tables = []
    for text in _table_docs().values():
        try:
            tables.append(SegreIntegralTable.from_json(text))
        except ValueError:
            continue
    return tables


def test_short_weighted_sum_on_the_golden_generic_tables():
    tables = _golden_tables()
    assert any(table.N < 2 * table.n for table in tables)
    for table in tables:
        for m in range(table.n, table.N):
            expected = _reference_degree(table, m)
            if expected > 0:
                assert degree_generic(table, m).deg_xm == expected, (table.n, table.N, m)
            else:
                with pytest.raises(NotGenericallyFiniteError):
                    degree_generic(table, m)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_plan_row_is_the_term_by_term_total(data):
    # random tables, N < 2n among them, with zero and negative integrals:
    # the plan's row, from an int and from a Decimal Pluecker degree, which
    # enters its own exact context, against one long exact division per term
    n = data.draw(st.integers(min_value=1, max_value=6), label="n")
    N = data.draw(st.integers(min_value=n + 1, max_value=3 * n + 6), label="N")
    integrals = st.sampled_from((0, -1, 1)) | st.integers(min_value=-(10**30), max_value=10**30)
    entries = {lam: data.draw(integrals) for lam in enumerate_partitions(n, n)}
    table = SegreIntegralTable(n=n, N=N, entries=entries)
    m = data.draw(st.integers(min_value=n, max_value=N - 1), label="m")
    expected = _reference_degree(table, m)
    plan, coefficient = TermPlan(table), comb(dim_xm(n, N, m), n)
    pluecker = grassmann_degree(GrassmannShape(m - n, N - n))
    # degree = unit * S / L, so S is the degree times L over the unit, exactly
    total, rem = divmod(expected * plan.lcd, reference_product(n, N, m, 1))
    assert not rem
    if expected <= 0:
        with pytest.raises(NotGenericallyFiniteError, match=f"^weighted total {total} <= 0 "):
            degree_generic(table, m)
        with pytest.raises(NotGenericallyFiniteError, match=f"^weighted total {total} <= 0 "):
            plan.row(m, Decimal(pluecker))
        return
    assert degree_generic(table, m).deg_xm == expected
    row = plan.row(m, Decimal(pluecker))
    assert row[:2] == (coefficient, total) and row[2] == expected and type(row[2]) is Decimal


def test_a_decimal_row_names_its_total_as_the_int_row_does():
    # at m = 100 of a (1, 200) table with integral -2 the degree would have
    # 53,065 bits: both rows name S = -2 (N - m), an int, in the same words
    table = SegreIntegralTable(n=1, N=200, entries={(1,): -2})
    pluecker = grassmann_degree(GrassmannShape(99, 199))
    messages = []
    for argument in (pluecker, Decimal(pluecker)):
        with pytest.raises(NotGenericallyFiniteError) as exc:
            table.plan.row(100, argument)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("weighted total -200 <= 0 at m = 100: ")


def test_a_non_positive_row_forms_no_degree(monkeypatch):
    # the sign of S decides the row before the Pluecker degree is divided:
    # no exact quotient, of an int or a Decimal, is taken of it
    table = SegreIntegralTable(n=1, N=200, entries={(1,): -1})
    pluecker = grassmann_degree(GrassmannShape(99, 199))
    quotient, dividends = gaussdeg.degrees.exact_quotient, []

    def recorded(num, *rest):
        dividends.append(num)
        return quotient(num, *rest)

    monkeypatch.setattr(gaussdeg.degrees, "exact_quotient", recorded)
    for argument in (pluecker, Decimal(pluecker)):
        with pytest.raises(NotGenericallyFiniteError):
            table.plan.row(100, argument)
        assert all(num != argument for num in dividends)


def _scaled_veronese(n: int, d: int, scale: int) -> SegreIntegralTable:
    """The Veronese integral table of (n, d), every integral times `scale`."""
    v = VeroneseVariety(n, d)
    entries = {lam: scale * integral for lam, integral in v.integral_table.entries.items()}
    return SegreIntegralTable(n=n, N=v.N, entries=entries)


def _random_table(n: int, N: int, seed: int) -> SegreIntegralTable:
    """A table of integrals from -3 to 3, zero and negative ones among them."""
    rng = random.Random(seed)
    entries = {lam: rng.randint(-3, 3) for lam in enumerate_partitions(n, n)}
    return SegreIntegralTable(n=n, N=N, entries=entries)


@pytest.mark.parametrize(
    ("make", "args"),
    [
        *[(_scaled_veronese, args) for args in ((1, 60, 3), (2, 10, 2), (3, 6, 5), (4, 3, 2))],
        # the first m with no degree: every m, 56, 2, 3, 50, 4, 55, 52
        *[(_random_table, args) for args in ((1, 55, 1), (2, 57, 9), (2, 57, 26), (3, 12, 10))],
        *[(_random_table, args) for args in ((3, 57, 3), (4, 20, 9), (4, 57, 12), (4, 57, 21))],
    ],
    ids=lambda arg: getattr(arg, "__name__", None) or "-".join(map(str, arg)),
)
def test_a_sweep_over_any_table_is_degree_generic_row_by_row(make, args):
    # the sweep's kernel over tables that are not Veronese: at every m,
    # `TermPlan.row` of the swept Pluecker degree (an int, or past the
    # base-10 switch, at N - n >= 52 here, a Decimal) and the split the
    # sweep made of it is the single cell's degree, or both find no degree
    table = make(*args)
    kinds = set()
    for m, pluecker, split in gaussdeg.degrees._sweep_cells(table.plan):
        kinds.add(type(pluecker))
        try:
            expected = degree_generic(table, m).deg_xm
        except NotGenericallyFiniteError:
            with pytest.raises(NotGenericallyFiniteError):
                table.plan.row(m, pluecker, split)
            continue
        assert table.plan.row(m, pluecker, split)[2] == expected, m
    assert kinds == ({int, Decimal} if table.N - table.n >= 52 else {int})


@pytest.mark.parametrize("v", [VeroneseVariety(1, 200), VeroneseVariety(3, 7)], ids=str)
def test_table_rows_are_the_bounds_records_written_out(v):
    # `table` writes the fields of the `conjecture` rows, which are the
    # single cells' records written out
    rows = list(table_rows(v))
    assert len(rows) == v.N - v.n
    for row, scanned in zip(rows, conjecture_scan((v.n,), (v.d,)), strict=True):
        assert row == {
            "m": scanned["m"],
            "dim": dim_xm(v.n, v.N, scanned["m"]),
            "degree": scanned["degree"],
            "ratio": scanned["ratio"],
            "within_conjecture": scanned["within_conjecture"],
        }
    with no_digit_limit():
        for row in rows[:: len(rows) // 4]:
            cell = bounds(v, row["m"])
            assert (row["degree"], row["ratio"]) == (str(cell.degree), str(cell.ratio))


def test_each_term_is_checked_integral_on_its_own():
    # with a unit of 45 (C(dim X_m, 2) = C(10, 2), Pluecker degree 1) at
    # (n, N, m) = (2, 8, 4) the term of (2) is 45 * 10/21, not an integer,
    # and that of (1, 1) is 45 * 12/30 = 18; the integral 0 of (2) leaves
    # S = 84 and the degree 45 * 84 / 210 = 18 exact, so only the term's
    # own check finds it
    plan = TermPlan(SegreIntegralTable(n=2, N=8, entries={(2,): 0, (1, 1): 1}))
    message = "^tableau count of \\(2,\\) plus the 2-wide rectangle of height 4 did not "
    with pytest.raises(ArithmeticError, match=message):
        plan.row(4, 1)


@pytest.mark.parametrize(("n", "d"), [(2, 12), (1, 60)])
def test_every_mirrored_row_is_degree_main(n, d):
    # past the middle the sweep yields its counts again, D(k, c) = D(c, k),
    # and each such row reuses its count's split by L: the very same pair
    v = VeroneseVariety(n, d)
    r = v.N - n
    cells = list(gaussdeg.degrees._sweep_cells(v.integral_table.plan))
    mirrored = [k for k in range(r) if 2 * k > r]
    assert len(mirrored) == (r - 1) // 2
    for k in mirrored:
        assert cells[k][2] is cells[r - k][2]
        assert cells[k][1] == grassmann_degree(GrassmannShape(k, r))
    rows = list(table_rows(v))
    with no_digit_limit():
        for k in mirrored:
            m = n + k
            assert rows[k]["m"] == m
            assert rows[k]["degree"] == str(degree_main(v, m).deg_xm), m


@pytest.mark.parametrize("d", [20, 21, 200, 201])
def test_sweep_cells_mirror_the_stepped_rows(d):
    # r = d - 1 odd and even, all ints at d = 20, 21 and past the base-10
    # switch at d = 200, 201: one row a variety's m, in order, and each row
    # past the stepped half the very count and split of its stepped row
    plan = VeroneseVariety(1, d).integral_table.plan
    r = d - 1
    cells = list(gaussdeg.degrees._sweep_cells(plan))
    assert [m for m, _, _ in cells] == list(range(1, d))
    assert {type(count) for _, count, _ in cells} == ({int} if d < 200 else {int, Decimal})
    stepped = min(r, r // 2 + 1)
    for k in range(stepped, r):
        assert cells[k][1] is cells[r - k][1] and cells[k][2] is cells[r - k][2], k
    assert len({id(split) for _, _, split in cells}) == stepped


def test_a_sweep_splits_each_stepped_count_once(monkeypatch):
    # one long split per count the sweep steps, none for a mirrored row,
    # and one for a single cell
    v = VeroneseVariety(2, 12)
    r = v.N - v.n
    split, counts = gaussdeg.degrees.TermPlan.split, []

    def counted(plan, pluecker):
        counts.append(pluecker)
        return split(plan, pluecker)

    monkeypatch.setattr(gaussdeg.degrees.TermPlan, "split", counted)
    assert len(list(table_rows(v))) == r
    assert len(counts) == r // 2 + 1
    counts.clear()
    degree_main(v, 40)
    assert len(counts) == 1


@pytest.mark.parametrize("m", [2, 3, 50, 89])
def test_a_decimal_row_checks_the_degree_as_the_int_row_does(monkeypatch, m):
    # a weighted total skewed by one skips the terms' own checks; the
    # degree's short division, rest * q over L, then finds the row with no
    # degree (at m = 2, 3 and 89 of (2, 12)) for an int and a Decimal alike
    weighted = gaussdeg.schur._weighted_sum
    monkeypatch.setattr(
        gaussdeg.schur, "_weighted_sum", lambda plan, m, residue: weighted(plan, m, residue) + 1
    )
    plan = VeroneseVariety(2, 12).integral_table.plan
    pluecker = grassmann_degree(GrassmannShape(m - 2, 88))
    outcomes = []
    for argument in (pluecker, Decimal(pluecker)):
        try:
            outcomes.append(plan.row(m, argument)[2])
        except ArithmeticError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if m != 50:
        assert outcomes[0] == f"the weighted total at m = {m} did not come out integral"


def test_degree_main_builds_one_report(monkeypatch):
    # the report is made with its method and d, not remade by `replace`
    made = []
    init = DegreeReport.__init__

    def counted(report, *args, **kwargs):
        init(report, *args, **kwargs)
        made.append(report.method)

    monkeypatch.setattr(DegreeReport, "__init__", counted)
    v = VeroneseVariety(2, 3)
    report = degree_main(v, 4)
    assert (report.method, report.d, made) == ("main", 3, ["main"])
    made.clear()
    report = degree_curve_closed(6, 3)
    assert (report.method, report.notes, made) == ("curve_closed", "", ["curve_closed"])


def _sweeps_made(monkeypatch) -> list:
    """Record the plan of every sweep `_sweep_cells` starts."""
    made, cells = [], gaussdeg.degrees._sweep_cells

    def counted(plan):
        made.append((plan.n, plan.N))
        return cells(plan)

    monkeypatch.setattr(gaussdeg.degrees, "_sweep_cells", counted)
    return made


def test_a_table_row_changed_by_its_caller_changes_no_later_call():
    v = VeroneseVariety(2, 5)
    rows = list(table_rows(v))
    fresh = [dict(row) for row in rows]
    rows[0]["degree"], rows[1]["ratio"] = "0", "1/2"
    del rows[2]["within_conjecture"]
    assert list(table_rows(v)) == fresh
    assert list(conjecture_scan((2,), (5,)))[0]["degree"] == fresh[0]["degree"]


def test_a_sweep_past_the_digit_budget_is_made_whole_and_never_kept(monkeypatch):
    # (2, 12) is charged about 198,000 digits: under a budget of 10,000
    # bytes it is made whole and written, the same rows as when kept, and
    # swept again
    v = VeroneseVariety(2, 12)
    kept = list(table_rows(v))
    assert KEPT._entries["sweep", 2, 12][1] > 10_000
    gaussdeg.schur.cache_clear()
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", 10_000)
    made = _sweeps_made(monkeypatch)
    assert list(table_rows(v)) == kept
    assert list(table_rows(v)) == kept
    assert made == [(2, 90), (2, 90)] and KEPT.get(("sweep", 2, 12)) is None


def test_cache_clear_empties_the_kept_sweeps(monkeypatch):
    made = _sweeps_made(monkeypatch)
    for _ in range(2):
        rows = list(conjecture_scan((1, 2), (3,)))
    assert made == [(1, 3), (2, 9)]
    assert [key for key in KEPT._entries if key[0] == "sweep"] == [("sweep", 1, 3), ("sweep", 2, 3)]
    gaussdeg.schur.cache_clear()
    assert not KEPT._entries and KEPT.total == 0
    assert list(conjecture_scan((1, 2), (3,))) == rows and len(made) == 4


def test_kept_sweeps_from_threads_stay_whole(monkeypatch):
    # four threads read, sweep, keep and clear the sweeps of the curves
    # (1, 10..39) under a budget of 30,000 bytes, which holds a few of them:
    # no call raises, each gives the rows of a single thread, and the store
    # never holds more than its budget
    budget, degrees = 30_000, range(10, 40)
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    expected = {
        d: (list(table_rows(VeroneseVariety(1, d))), list(conjecture_scan((1,), (d,))))
        for d in degrees
    }
    gaussdeg.schur.cache_clear()
    errors = []

    def ask(seed):
        try:
            for i in range(300):
                d = degrees[(seed * 7 + i * 11) % len(degrees)]
                if i % 50 == seed:
                    gaussdeg.schur.cache_clear()
                if i % 2:
                    rows = list(conjecture_scan((1,), (d,)))
                else:
                    rows = list(table_rows(VeroneseVariety(1, d)))
                if rows != expected[d][i % 2]:
                    errors.append((seed, i, d))
                with KEPT._lock:
                    held = sum(charge for _, charge in KEPT._entries.values())
                    total = KEPT.total
                if held != total or total > budget:
                    errors.append((seed, i, "over budget"))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
