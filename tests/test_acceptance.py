"""Acceptance suite: the twelve headline checks, exact arithmetic throughout.

Each test prints one `criterion N (label): PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them all.  Zero tolerance:
every comparison is between exact integers or exact rationals.
"""

import functools
from fractions import Fraction
from math import comb, factorial

from gaussdeg.degrees import (
    CONJECTURE_COLUMNS,
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
    ordinary_gauss_degree,
    verify_identity,
)
from gaussdeg.partitions import (
    enumerate_partitions,
    syt_count_bruteforce,
    syt_count_hook,
)
from gaussdeg.schur import (
    SegreIntegralTable,
    VeroneseVariety,
    schur_delta_determinant,
    schur_delta_veronese_closed,
    veronese_integral_table,
    veronese_segre_sequence,
)


def criterion(number: int, label: str):
    def wrap(func):
        @functools.wraps(func)
        def run():
            try:
                note = func()
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            suffix = f" [{note}]" if note else ""
            print(f"criterion {number} ({label}): PASS{suffix}")

        return run

    return wrap


@criterion(1, "rational quartic curve, m=2: five-way agreement on degree 12")
def test_criterion_01():
    v = VeroneseVariety(1, 4)
    table = veronese_integral_table(v)
    reports = [
        degree_main(v, 2),
        degree_alternate(v, 2),
        degree_curve_closed(4, 2),
        degree_m_np1(v),
        degree_generic(table, 2),
    ]
    assert [r.deg_xm for r in reports] == [12] * 5
    assert [r.dim_xm for r in reports] == [3] * 5


@criterion(2, "Veronese surface of conics, m=3: five-way agreement on degree 21")
def test_criterion_02():
    assert syt_count_hook((3, 1)) == 3
    assert syt_count_hook((2, 2)) == 2
    v = VeroneseVariety(2, 2)
    table = veronese_integral_table(v)
    reports = [
        degree_main(v, 3),
        degree_alternate(v, 3),
        degree_surface_closed(2, 3),
        degree_m_np1(v),
        degree_generic(table, 3),
    ]
    assert [r.deg_xm for r in reports] == [21] * 5
    assert [r.dim_xm for r in reports] == [4] * 5


@criterion(3, "dual-variety degree equals (n+1)(d-1)^n")
def test_criterion_03():
    for n in (1, 2, 3):
        for d in (2, 3, 4, 5):
            v = VeroneseVariety(n, d)
            assert degree_main(v, v.N - 1).deg_xm == boole_degree(n, d)


@criterion(4, "ordinary Gauss image degree equals (n+1)^n (d-1)^n")
def test_criterion_04():
    for n in (1, 2, 3):
        for d in (2, 3, 4, 5):
            v = VeroneseVariety(n, d)
            assert degree_main(v, n).deg_xm == ordinary_gauss_degree(v)


@criterion(5, "square-sum identity for n = 1..8, brute-forced for n <= 5")
def test_criterion_05():
    for n in range(1, 9):
        lhs, rhs, equal = verify_identity(n)
        assert equal and rhs == (n + 1) ** n * factorial(n)
    for n in range(1, 6):
        assert verify_identity(n, tableau_count=syt_count_bruteforce)[2]


@criterion(6, "hook formula equals brute-force enumeration, weight <= 10")
def test_criterion_06():
    checked = 0
    for k in range(11):
        for lam in enumerate_partitions(k, max(k, 1)):
            assert syt_count_hook(lam) == syt_count_bruteforce(lam)
            checked += 1
    assert checked == 139
    return f"{checked} shapes"


@criterion(7, "closed-form Schur values equal Jacobi-Trudi determinants")
def test_criterion_07():
    checked = 0
    for n in range(1, 5):
        for d in range(2, 6):
            v = VeroneseVariety(n, d)
            s = veronese_segre_sequence(v)
            for k in range(n + 1):
                for lam in enumerate_partitions(k, max(k, 1)):
                    for length in range(max(len(lam), 1), n + 1):
                        assert schur_delta_determinant(
                            s, lam, length
                        ) == schur_delta_veronese_closed(v, lam, length)
                        checked += 1
    return f"{checked} values"


@criterion(8, "rational sandwich bounds hold; curve case collapses to equality")
def test_criterion_08():
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            v = VeroneseVariety(n, d)
            for m in range(n, v.N):
                b = bounds(v, m)
                assert b.lower <= b.ratio <= b.upper
                if n == 1:
                    assert b.lower == b.ratio == b.upper


@criterion(9, "row-wise binomial ratio is monotone between column and row shapes")
def test_criterion_09():
    checked = 0
    for n in range(1, 6):
        shapes = enumerate_partitions(n, n)
        for N in range(2 * n, 21):
            for m in range(n, N):
                values = {
                    lam: binomial_ratio_product(lam, n, N, m) for lam in shapes
                }
                low, high = values[(1,) * n], values[(n,)]
                for value in values.values():
                    assert low <= value <= high
                assert low == Fraction(comb(N - m, n), comb(N - n, n))
                assert high == Fraction(
                    comb(N - m + n - 1, n), comb(N - 1, n)
                )
                checked += len(shapes)
    return f"{checked} evaluations"


@criterion(10, "surface and threefold closed forms equal the main sum for all m")
def test_criterion_10():
    for d in (2, 3, 4):
        v = VeroneseVariety(2, d)
        for m in range(2, v.N):
            assert degree_surface_closed(d, m).deg_xm == degree_main(v, m).deg_xm
    count_m = 0
    for d in (2, 3):
        v = VeroneseVariety(3, d)
        for m in range(3, v.N):
            assert degree_threefold_closed(d, m).deg_xm == degree_main(v, m).deg_xm
            if d == 3:
                count_m += 1
    assert VeroneseVariety(3, 3).N == 19 and count_m == 16


@criterion(11, "conjectured power bound scan (reported, not asserted)")
def test_criterion_11():
    rows = tuple(
        dict(zip(CONJECTURE_COLUMNS, row)) for row in conjecture_scan((1, 2, 3), (2, 3, 4))
    )
    violations = [row for row in rows if not row["within_conjecture"]]
    for row in rows:
        ratio, power = Fraction(row["ratio"]), Fraction(row["conjecture_upper"])
        assert row["within_conjecture"] == (ratio <= power)
    for row in violations:
        print(f"  conjecture violation: {row}")
    return f"{len(rows)} cells, {len(violations)} violations"


@criterion(12, "table-driven degrees round-trip both closed-form families")
def test_criterion_12():
    for n in (1, 2, 3):
        for d in (2, 3, 4, 5):
            v = VeroneseVariety(n, d)
            table = veronese_integral_table(v)
            for m in range(n, v.N):
                assert degree_generic(table, m).deg_xm == degree_main(v, m).deg_xm
    for N in range(2, 9):
        for g in range(0, 4):
            for d in (N, N + 2):
                table = SegreIntegralTable(
                    n=1, N=N, entries={(1,): 2 * g - 2 + 2 * d}
                )
                for m in range(1, N):
                    assert (
                        degree_generic(table, m).deg_xm
                        == degree_general_curve(N, d, g, m).deg_xm
                    )
