"""Dimension and degree of the variety of tangent m-planes.

For an n-fold X in P^N and n <= m <= N-1, the closure X_m* of the union of
tangent m-planes (equivalently, the image of the order-m Gauss map in the
Grassmannian, under the Pluecker embedding) has expected dimension
n + (N-m)(m-n).  When the Gauss map is generically finite onto X_m*, its
degree is a tableau-weighted sum of Schur integrals of the twisted normal
sheaf.  This module evaluates that sum exactly for Veronese varieties and
for arbitrary varieties given as integral tables, together with several
independent closed forms used to cross-check it, sandwich bounds on the
normalized degree, and a scan harness for a conjectured sharper bound.

Everything is exact: integers are unbounded, ratios are
`fractions.Fraction`, every quotient the theory promises to be an integer
is a `partitions.exact_quotient`, and every degree is checked positive.
The tableau-weighted sum is the table's own, `schur.TermPlan`, evaluated
by `TermPlan.row`: a cell costs two long operations, the split and the
degree.  A sweep steps only the first half of its Grassmannian counts;
`_sweep_cells`, the one mirror, splits each once and hands a row of the
second half its stepped row's count and split, so that row costs one.  A
count may be an int or, past the sweep's base-10 switch, a Decimal: this
module never asks which, and works it by `partitions`' `count_divmod`,
`count_multiply` and `count_fma`.  A sweep's rows are written as text
(`table_rows`, `conjecture_scan`); `bounds` makes one cell's record, of ints.

This module prices nothing: every refusal made before a number is formed,
the registry's guards and `degree_alternate`'s bound on (dim X_m)!
included, lives in `cost`.
"""

from collections.abc import Callable, Iterator
from itertools import chain, islice
from math import comb, factorial, gcd, perm, prod
from operator import index

from .cost import (
    _check_range,
    _guard_boole,
    _guard_curve_closed,
    _guard_m_np1,
    _guard_partition_sum,
    _n_bits_exceed,
    check_factorial,
    guard_degree,
)
from .grassmann import GrassmannShape, grassmann_degree, grassmann_degree_sweep
from .partitions import (
    KEPT,
    Numeral,
    Record,
    canonical,
    charge,
    check_partition_terms,
    count_digits,
    count_divmod,
    count_fma,
    count_multiply,
    enumerate_partitions,
    exact_quotient,
    falling_factorial_product,
    message,
    pad,
    syt_count,
)
from .schur import (
    NotGenericallyFiniteError,
    SegreIntegralTable,
    TermPlan,
    VeroneseVariety,
    _row_binomials,
)


class DegreeReport(Record):
    """Dimension and degree of one tangent-plane variety, with provenance."""

    _fields = ("n", "N", "m", "deg_xm", "method", "d", "notes")

    def __init__(
        self, n: int, N: int, m: int, deg_xm: int, method: str, d: int | None = None,
        notes: str = "",
    ):
        if method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {method!r}")
        if deg_xm <= 0:
            raise ValueError("degree must be positive")
        self._set(n=n, N=N, m=m, deg_xm=deg_xm, method=method, d=d, notes=notes)

    @property
    def dim_xm(self) -> int:
        return dim_xm(self.n, self.N, self.m)

    def to_dict(self) -> dict:
        doc: dict = {"n": self.n}
        if self.d is not None:
            doc["d"] = self.d
        doc["N"] = self.N
        doc["m"] = self.m
        doc["dim"] = self.dim_xm
        doc["degree"] = Numeral(self.deg_xm)
        doc["method"] = self.method
        if self.notes:
            doc["notes"] = self.notes
        return doc


class BoundsReport(Record):
    """One (variety, m): the degree against its reference product, and bounds.

    `ratio` is degree / product and `conjecture_upper` the power bound, each
    a `Fraction`.  `bounds` makes these records and enforces the proved
    sandwich `lower <= ratio <= upper`; the conjectured power bound is only
    reported.  `to_dict` is the row `conjecture` prints, written by
    `_conjecture_row` as `conjecture_scan` writes it.
    """

    _fields = ("n", "d", "N", "m", "degree", "product", "ratio", "conjecture_upper")

    def __init__(self, n, d, N, m, degree, product, ratio, conjecture_upper):
        self._set(
            n=n, d=d, N=N, m=m, degree=degree, product=product, ratio=ratio,
            conjecture_upper=conjecture_upper,
        )

    @property
    def lower(self) -> "Fraction":
        """The proved lower bound C(N-m, n) / C(N-n, n) of `ratio`."""
        n, N = self.n, self.N
        return _fraction(comb(N - self.m, n), comb(N - n, n))

    @property
    def upper(self) -> "Fraction":
        """The proved upper bound C(N-m+n-1, n) / C(N-1, n) of `ratio`."""
        n, N = self.n, self.N
        return _fraction(comb(N - self.m + n - 1, n), comb(N - 1, n))

    @property
    def within_conjecture(self) -> bool:
        return self.ratio <= self.conjecture_upper

    @property
    def conjecture_value(self) -> "Fraction":
        """Conjectured virtual degree: the power bound times the reference product."""
        return self.conjecture_upper * self.product

    def to_dict(self) -> dict:
        ratio, degree = self.ratio, Numeral(self.degree)
        cell = self.n, self.d, self.N, self.m, degree, self.product
        return _conjecture_row(*cell, ratio.numerator, ratio.denominator, self.within_conjecture)


def _fraction(num: int, den: int = 1) -> "Fraction":
    """`fractions.Fraction(num, den)`, the module imported on first use (`bounds`, not a sweep)."""
    from fractions import Fraction

    return Fraction(num, den)


def _conjecture_row(n, d, N, m, degree: Numeral, product, num, den, within) -> dict:
    """The row `conjecture` prints of one cell, whose ratio is num / den in lowest terms.

    `degree` comes as its text, made once.  The power bound
    a/b = ((N-m)/(N-n))^n and the conjectured value a * product / b,
    reduced by gcd(product, b) alone, are written with no `Fraction`.  The
    product, an int or a sweep's Decimal, takes two long operations: with
    product = quot * b + rest (`count_divmod`) and k = gcd(rest, b), the value
    is quot * (b/k * a) + rest/k * a, one `count_fma`.
    """
    common = gcd(N - m, N - n)
    a, b = ((N - m) // common) ** n, ((N - n) // common) ** n
    quotient, rest = count_divmod(product, b)
    common = gcd(rest, b)
    value = count_fma(quotient, b // common * a, rest // common * a)
    b_value = b // common
    return {
        "n": n,
        "d": d,
        "N": N,
        "m": m,
        "degree": degree,
        "product": Numeral(product),
        "ratio": f"{num}/{den}" if den != 1 else str(num),
        "conjecture_upper": f"{a}/{b}" if b != 1 else str(a),
        "conjecture_value": Numeral(f"{value}/{b_value}" if b_value != 1 else value),
        "within_conjecture": within,
    }


def dim_xm(n: int, N: int, m: int) -> int:
    """Dimension n + (N-m)(m-n) of the variety of tangent m-planes."""
    _check_range(n, N, m)
    return n + (N - m) * (m - n)


def ordinary_gauss_degree(v: VeroneseVariety) -> int:
    """Degree of the image of the ordinary (m = n) Gauss map: (n+1)^n (d-1)^n."""
    return (v.n + 1) ** v.n * (v.d - 1) ** v.n


def boole_degree(n: int, d: int) -> int:
    """Degree (n+1)(d-1)^n of the variety dual to the degree-d Veronese n-fold."""
    n, d = index(n), index(d)
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    return (n + 1) * (d - 1) ** n


def _report(
    n: int, d: int, N: int, m: int, method: str, num: int, den: int = 1, notes: str = ""
) -> DegreeReport:
    """The report of degree num / den, an `exact_quotient` that must be positive."""
    degree = exact_quotient(num, den, "degree of %s(n=%s, d=%s, m=%s)", method, n, d, m)
    if degree <= 0:
        template = "%s(n=%s, d=%s, m=%s): degree came out non-positive: %s"
        raise ArithmeticError(message(template, method, n, d, m, degree))
    return DegreeReport(n=n, d=d, N=N, m=m, deg_xm=degree, method=method, notes=notes)


def degree_main(v: VeroneseVariety, m: int) -> DegreeReport:
    """Degree of the tangent m-plane variety by the tableau-weighted sum.

    This is `degree_generic` over the Veronese integral table, whose entry
    at lam is (d-1)^n / n! times the tableau count of lam times the
    falling-factorial product of lam.  The process keeps that table, and
    its plan, for each (n, d) (`VeroneseVariety.integral_table`), so a
    sweep over m, or a later call, pays for it once.  The report is built
    once, with its method and d.
    """
    degree = _table_degree(v.integral_table, m)
    return DegreeReport(n=v.n, d=v.d, N=v.N, m=m, deg_xm=degree, method="main")


def degree_alternate(v: VeroneseVariety, m: int) -> DegreeReport:
    """Same degree through the inclusion-exclusion form over the dual rectangle.

    Independent of `degree_main` and of `reference_product`: the rectangle
    is (N-m) wide and m-n tall, and the sum runs over k = 0..n with
    partitions lam of n-k in at most m-n parts (at m = n, only k = n),
    each weighted by f(lam) times its falling-factorial product and by the
    tableau count of itself plus the rectangle.  Term k has weight
    1/(n-k)! = perm(n, k)/n!, so the sum is kept in integers and divided
    by n! once.  (dim X_m)! bounds the widest shape's tableau count, so
    past `cost.MAX_DIGITS` digits of it the cell is refused first.
    """
    n, N = v.n, v.N
    big_m = dim_xm(n, N, m)
    check_partition_terms(n)
    e, width = m - n, N - m
    check_factorial(big_m, "(dim X_m)! of the alternate sum at (n=%s, d=%s, m=%s)", n, v.d, m)
    total = 0
    # the weights depend on n alone: every pair for a kept variety, kept once
    # a sum over them checks out, else only the lam of at most e rows
    kept = KEPT.get(("weights", n)) if v.kept else None
    weights = kept or _alternate_weights(n, n if v.kept else e)
    for k, pairs in enumerate(weights):
        inner = 0
        for lam, weight in pairs:
            if len(lam) <= e:
                # lam comes from `enumerate_partitions`: the shifted shape is
                # canonical as built, and width >= 1 leaves no zero part
                shape = tuple([part + width for part in lam]) + (width,) * (e - len(lam))
                inner += weight * syt_count(shape)
        total += (-1) ** (n - k) * (n + 1) ** k * perm(n, k) * comb(big_m, k) * inner
    report = _report(n, v.d, N, m, "alternate", (v.d - 1) ** n * total, factorial(n))
    if v.kept and kept is None:
        held = [weight for pairs in weights for _, weight in pairs]
        KEPT.keep(("weights", n), weights, charge(held))
    return report


def _alternate_weights(n: int, rows: int) -> tuple:
    """For k = 0..n, the pairs (lam, f(lam) * `falling_factorial_product(n, lam)`), lam |- n-k.

    Only the lam of at most `rows` rows are built, on every call.
    """
    return tuple(
        tuple(
            (lam, syt_count(lam) * falling_factorial_product(n, lam))
            for lam in enumerate_partitions(n - k, rows)
        )
        for k in range(n + 1)
    )


def degree_m_np1(v: VeroneseVariety) -> DegreeReport:
    """Closed form at m = n+1: an alternating binomial sum, no partitions.

    Term k is (-1)^(n-k) (n+1)^k C(N-1, k) C(n+1, n-k), made from the last
    by the factor -(n+1)(N-1-k)(n-k) / ((k+1)(k+2)).
    """
    n, N = v.n, v.N
    m = n + 1
    _check_range(n, N, m)
    total, term = 0, (-1) ** n * (n + 1)
    for k in range(n + 1):
        total += term
        step = -term * ((n + 1) * (N - 1 - k) * (n - k))
        term = exact_quotient(step, (k + 1) * (k + 2), "term %s of the m = n+1 sum", k + 1)
    return _report(n, v.d, N, m, "m_eq_n_plus_1", (v.d - 1) ** n * total)


def reference_product(n: int, N: int, m: int, first: int) -> int:
    """C(n + dim G, n) * deg G * first, with G = G(m-n, N-n).

    `first` is the first-stage degree: the ordinary Gauss degree of a
    Veronese variety, or 2g - 2 + 2d for a curve of degree d and genus g.
    Each closed form below is a rational ratio in e = N-m and N times this
    product, and `bounds` measures the degree against it.
    """
    _check_range(n, N, m)
    pluecker = grassmann_degree(GrassmannShape(m - n, N - n))
    return comb(dim_xm(n, N, m), n) * pluecker * first


def _closed_form(
    n: int, N: int, m: int, first: int, ratio, method: str, d: int, notes: str = ""
) -> DegreeReport:
    """The closed forms' one step: `ratio(N-m, N) * reference_product(n, N, m, first)`.

    `ratio` gives its value as two ints, num and den > 0, not reduced: the
    degree is one checked division of num times the product by den.
    """
    product = reference_product(n, N, m, first)
    num, den = ratio(N - m, N)
    return _report(n, d, N, m, method, num * product, den, notes)


def degree_curve_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the rational normal curve of degree d (n = 1, N = d); d, m read by `index`.

    The genus-0 general curve in P^d.  G(m-1, d-1) and its dual G(d-m, d-1)
    must have equal Pluecker degree, so the degree is compared with
    2(d-m) * (1 + dim G) times the degree of the one of the two with fewer
    rows, read off `grassmann_degree_sweep(d - 1)`: rows <= (d-1)/2, so
    inside the half it steps.  An independent route, since the sweep steps
    by short ratios and shares no code with the tableau kernel behind
    `reference_product`.
    """
    d, m = index(d), index(m)
    report = _general_curve(d, d, 0, m, "curve_closed")
    rows = min(m - 1, d - m)
    pluecker = next(islice(grassmann_degree_sweep(d - 1), rows, None))
    expected = count_multiply(pluecker, 2 * (d - m) * (1 + rows * (d - 1 - rows)))
    if report.deg_xm != expected:
        raise ArithmeticError("dual Grassmannian degrees disagree")
    return report


def degree_general_curve(N: int, d: int, g: int, m: int) -> DegreeReport:
    """Closed form for any smooth non-degenerate curve of degree d, genus g in P^N.

    (N-m)/(N-1) times the reference product of the first-stage degree
    2g - 2 + 2d, which must be positive.  N, d, g and m are read by
    `operator.index`: a float raises TypeError.
    """
    N, d, g, m = index(N), index(d), index(g), index(m)
    return _general_curve(N, d, g, m, "general_curve", f"genus {g}")


def _general_curve(N: int, d: int, g: int, m: int, method: str, notes: str = "") -> DegreeReport:
    """`degree_general_curve`'s degree of ints, reported under `method` with `notes`."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if g < 0:
        raise ValueError("genus must be >= 0")
    if d < 1:
        raise ValueError("curve degree must be >= 1")
    first = 2 * g - 2 + 2 * d
    if first <= 0:
        raise ValueError(message("2g - 2 + 2d = %s must be positive", first))
    return _closed_form(1, N, m, first, lambda e, N: (e, N - 1), method, d, notes)


def degree_surface_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the degree-d Veronese surface (n = 2)."""
    v = VeroneseVariety(2, d)

    def ratio(e: int, N: int) -> tuple[int, int]:
        return e * (3 * e * N - N - 5 * e - 1), 3 * (N - 1) * (N - 2) * (N - 3)

    return _closed_form(2, v.N, m, ordinary_gauss_degree(v), ratio, "surface_closed", d)


def degree_threefold_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the degree-d Veronese threefold (n = 3)."""
    v = VeroneseVariety(3, d)

    def ratio(e: int, N: int) -> tuple[int, int]:
        return (
            e * (
                (8 * e * e - 6 * e + 1) * N * N
                + (-42 * e * e + 9 * e + 6) * N
                + 5 * (8 * e * e + 3 * e + 1)
            ),
            8 * (N - 1) * (N - 2) * (N - 3) * (N - 4) * (N - 5),
        )

    return _closed_form(3, v.N, m, ordinary_gauss_degree(v), ratio, "threefold_closed", d)


class Method(Record):
    """One `degree --method`: how it computes, where it applies, what it costs.

    `compute` is a `(v, m)` adapter that looks its formula up among this
    module's globals when called, so rebinding a formula's global name
    (to wrap or replace it) reaches calls made through the registry.
    `applies` never forms a huge N.  `guard(v, m)`, one of `cost`'s
    guards, raises a range error or a "too large" ValueError before
    `compute` forms a big number: by default `cost.guard_degree`, the
    reference product and a degree that can be printed; the partition sums
    hold n to `partitions.MAX_PARTITIONS` terms first, the m = n+1 sum and
    `curve_closed` price their work before the degree's digits, and
    Boole's (n+1)(d-1)^n is bounded by `cost.boole_digits` alone.
    """

    _fields = ("compute", "requires", "applies", "guard")

    def __init__(
        self,
        compute: Callable[[VeroneseVariety, int], DegreeReport],
        requires: str = "",
        applies: Callable[[VeroneseVariety, int], bool] = lambda v, m: True,
        guard: Callable[[VeroneseVariety, int], None] = guard_degree,
    ):
        self._set(compute=compute, requires=requires, applies=applies, guard=guard)


METHODS = {
    "main": Method(lambda v, m: degree_main(v, m), guard=_guard_partition_sum),
    "alternate": Method(lambda v, m: degree_alternate(v, m), guard=_guard_partition_sum),
    "curve_closed": Method(
        lambda v, m: degree_curve_closed(v.d, m), "n = 1", lambda v, m: v.n == 1,
        _guard_curve_closed,
    ),
    "surface_closed": Method(
        lambda v, m: degree_surface_closed(v.d, m), "n = 2", lambda v, m: v.n == 2
    ),
    "threefold_closed": Method(
        lambda v, m: degree_threefold_closed(v.d, m), "n = 3", lambda v, m: v.n == 3
    ),
    "m_eq_n_plus_1": Method(
        lambda v, m: degree_m_np1(v), "m = n + 1", lambda v, m: m == v.n + 1, _guard_m_np1
    ),
    "boole": Method(
        lambda v, m: _report(v.n, v.d, v.N, m, "boole", boole_degree(v.n, v.d)),
        "m = N - 1",
        # N - 1 >= n, and N = m + 1 has at most one bit more than m
        lambda v, m: v.n <= m and not _n_bits_exceed(v, m.bit_length() + 1) and m == v.N - 1,
        _guard_boole,
    ),
}

# Every tag a DegreeReport may carry: the registry's Veronese methods plus
# the two table- and curve-driven forms that take other inputs.
METHOD_TAGS = (*METHODS, "generic", "general_curve")


def degree_generic(table: SegreIntegralTable, m: int) -> DegreeReport:
    """Table-driven degree for an arbitrary n-fold in P^N.

    Pushes the weight-n Schur integrals down along the Grassmann bundle of
    rank-(N-m) quotients of a rank-(N-n) bundle: each is weighted by the
    tableau count f of the partition plus the w-wide rectangle of height e,
    with e = N-m and w = m-n.  By the hook length formula
    (Frame-Robinson-Thrall), for |lam| = n

        f(lam + (w^e)) = reference_product(n, N, m, 1) * f(lam)
                         * binomial_ratio_product(lam, n, N, m),

    where the ratio vanishes when lam has more than e rows.  So the degree
    is the reference product times the table-weighted ratio sum, and the
    rectangle's tableau count is computed once, not once per partition.
    `TermPlan.row` adds the sum up in short integers and forms the degree;
    a non-positive total is not a degree and raises NotGenericallyFiniteError.
    """
    degree = _table_degree(table, m)
    return DegreeReport(n=table.n, N=table.N, m=m, deg_xm=degree, method="generic")


def _table_degree(table: SegreIntegralTable, m: int) -> int:
    """The degree `degree_generic` reports: one cell of the table's plan."""
    n, N = table.n, table.N
    _check_range(n, N, m)
    _, _, degree = table.plan.row(m, grassmann_degree(GrassmannShape(m - n, N - n)))
    return degree


def binomial_ratio_product(lam, n: int, N: int, m: int) -> "Fraction":
    """Row-wise product of C(N-m+lam_i-i, lam_i) / C(N-n+lam_i-i, lam_i).

    Zero rows contribute 1.  Row i's numerator, as the rising product
    (N-m-i+1)...(N-m-i+lam_i) / lam_i!, vanishes at the first nonzero row
    past N-m, so the ratio is 0 for shapes with more than N-m rows.  Over
    partitions of n this interpolates monotonically between the column
    shape (1^n) (minimum) and the row shape (n) (maximum).
    """
    _check_range(n, N, m)
    lam = canonical(pad(lam, n))
    if len(lam) > N - m:
        return _fraction(0)
    pairs = [(part - i, part) for i, part in enumerate(lam, start=1)]
    return _fraction(prod(_row_binomials(pairs, N - m)), prod(_row_binomials(pairs, N - n)))


def bounds(v: VeroneseVariety, m: int) -> BoundsReport:
    """The degree at (v, m) against its reference product, with sandwich bounds.

    One evaluation of the cell: the degree (`degree_main`'s number) and the
    reference product share one Grassmannian degree.  The ratio
    degree / product always lies in [C(N-m,n)/C(N-n,n), C(N-m+n-1,n)/C(N-1,n)]
    (a theorem, enforced); the sharper power bound ((N-m)/(N-n))^n is only
    conjectural and is reported, never enforced.  `conjecture_scan` writes
    the same cells' rows for every m at once.
    """
    n, N = v.n, v.N
    _check_range(n, N, m)
    pluecker = grassmann_degree(GrassmannShape(m - n, N - n))
    ((_, _, coefficient, degree, num, den, _),) = _bounds_rows(v, ((m, pluecker, None),))
    product = coefficient * pluecker * ordinary_gauss_degree(v)
    power = _fraction((N - m) ** n, (N - n) ** n)
    return BoundsReport(n, v.d, N, m, degree, product, _fraction(num, den), power)


def table_rows(v: VeroneseVariety) -> Iterator[dict]:
    """The rows `table` prints, m = n..N-1: m, dim, degree, ratio, within_conjecture.

    The numbers of `bounds(v, m)` at every m, read off `v`'s swept records
    (`_swept_records`: one Grassmannian sweep made whole before the first
    row, or the one the process kept), written as `conjecture_scan` writes
    them, with no `Fraction` made.  Each row is a new dict, the caller's to
    change.
    """
    n, N = v.n, v.N
    for m, _, _, degree, num, den, within in _swept_records(v):
        yield {
            "m": m,
            "dim": n + (N - m) * (m - n),
            "degree": degree,
            "ratio": f"{num}/{den}" if den != 1 else str(num),
            "within_conjecture": within,
        }


def _swept_records(v: VeroneseVariety) -> tuple:
    """(m, pluecker, coefficient, degree text, num, den, within) for m = n..N-1.

    The records the process kept of `v`, or `_bounds_rows` over
    `_sweep_cells` of `v`'s plan, made whole, each degree made a `Numeral`
    once, and kept in `partitions.KEPT` if `v` is, charged the digits of its
    degrees' text and stepped counts: (3, 10) at 9.3 M passes the budget
    alone, and a sweep that raises keeps nothing.
    """
    key = ("sweep", v.n, v.d)
    records = KEPT.get(key)
    if records is None:
        cells = _sweep_cells(v.integral_table.plan)
        records = tuple([
            (m, pluecker, coefficient, Numeral(degree), num, den, within)
            for m, pluecker, coefficient, degree, num, den, within in _bounds_rows(v, cells)
        ])
        if v.kept:
            # a mirrored row's count is one of the stepped half's
            stepped = records[: len(records) // 2 + 1]
            digits = sum(len(record[3]) for record in records)
            digits += sum(count_digits(record[1]) for record in stepped)
            KEPT.keep(key, records, digits)
    return records


def _sweep_cells(plan: TermPlan) -> list[tuple]:
    """The cells (m, deg G(m-n, N-n), its `plan.split`), m = n..N-1, of `plan`'s n and N.

    The sweep's one mirror.  `grassmann_degree_sweep(r)`, r = N - n, yields
    the counts of its first half, each split here once; the row of k past
    them reads D(k, r-k) = D(r-k, k) back, the very count and split of its
    stepped row r - k.
    """
    n, r = plan.n, plan.N - plan.n
    stepped = [(pluecker, plan.split(pluecker)) for pluecker in grassmann_degree_sweep(r)]
    return [(n + k, *stepped[min(k, r - k)]) for k in range(r)]


def _bounds_rows(v: VeroneseVariety, cells) -> Iterator[tuple]:
    """(m, pluecker, coefficient, degree, ratio num, ratio den, within) for each cell.

    A cell is (m, pluecker, split): `pluecker` is deg G(m-n, N-n) and
    `split` its `TermPlan.split`, or None to make it.  The Veronese layer
    over `TermPlan.row` of `v.integral_table`'s plan, which gives each
    cell's C(dim X_m, n), S and degree = unit * S / L.  The ratio
    degree / product is S / (L * g), g the ordinary Gauss degree: reduced
    by one gcd of short integers, checked against the proved bounds and
    measured against the power bound, each cross-multiplied, in short ints.
    """
    n, N = v.n, v.N
    plan = v.integral_table.plan
    scale = plan.lcd * ordinary_gauss_degree(v)
    low_den, up_den, power_den = comb(N - n, n), comb(N - 1, n), (N - n) ** n
    for m, pluecker, split in cells:
        coefficient, total, degree = plan.row(m, pluecker, split)
        common = gcd(total, scale)
        num, den = total // common, scale // common
        low, up = comb(N - m, n), comb(N - m + n - 1, n)
        if not (low * den <= num * low_den and num * up_den <= up * den):
            template = "proved bounds violated at (n=%s, d=%s, m=%s): %s <= %s/%s <= %s fails"
            lower, upper = _fraction(low, low_den), _fraction(up, up_den)
            raise ArithmeticError(message(template, n, v.d, m, lower, num, den, upper))
        yield m, pluecker, coefficient, degree, num, den, num * power_den <= (N - m) ** n * den


def verify_identity(n: int, tableau_count=syt_count) -> tuple[int, int, bool]:
    """Weighted square-sum identity over partitions of n.

    Returns (lhs, rhs, lhs == rhs) where lhs sums f(lam)^2 times the
    falling-factorial product over all partitions of n and rhs is
    (n+1)^n n!.  `tableau_count` is injectable so the identity can be
    re-checked against the brute-force counter.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = sum(
        tableau_count(lam) ** 2 * falling_factorial_product(n, lam)
        for lam in enumerate_partitions(n, n)
    )
    rhs = (n + 1) ** n * factorial(n)
    return lhs, rhs, lhs == rhs


def conjecture_scan(n_values, d_values) -> Iterator[dict]:
    """The rows `conjecture` prints, for every m of every n in `n_values` and d in `d_values`.

    Each row is `bounds(v, m).to_dict()`, written by `_conjecture_row` from
    each variety's swept records, made whole by one Grassmannian sweep or
    kept from an earlier one (`_swept_records`).  A variety's rows are
    yielded once its sweep is made; empty ranges are refused at the call.
    A violation is a row whose "within_conjecture" is false.
    """
    n_values, d_values = tuple(n_values), tuple(d_values)
    if not n_values or not d_values:
        raise ValueError("scan ranges must be non-empty")
    varieties = (VeroneseVariety(n, d) for n in n_values for d in d_values)
    return chain.from_iterable(map(_conjecture_rows, varieties))


def _conjecture_rows(v: VeroneseVariety) -> Iterator[dict]:
    """`conjecture_scan`'s rows of `v`, m = n..N-1, read off `v`'s swept records.

    The records are `_swept_records(v)`, the ones `table_rows` reads.  Each
    row forms its reference product, one long `count_multiply` of the
    swept count, and its conjectured value from it.
    """
    n, d, N = v.n, v.d, v.N
    first = ordinary_gauss_degree(v)
    for m, pluecker, coefficient, degree, num, den, within in _swept_records(v):
        product = count_multiply(pluecker, coefficient * first)
        yield _conjecture_row(n, d, N, m, degree, product, num, den, within)
