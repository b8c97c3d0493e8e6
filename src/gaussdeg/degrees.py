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
The tableau-weighted sum is laid out once per table, as a `TermPlan`, and
one method, `TermPlan.row`, evaluates it for every cell and every sweep
row: one long remainder, one short checked division per term, and the
degree, by one long division and one long multiplication, each by a short
integer.  A sweep's long integers are integral Decimals, under
`grassmann.EXACT`, and its rows are written as text (`table_rows`,
`conjecture_scan`); `bounds` makes one cell's record, of ints.
"""

import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import comb, factorial, gcd, inf, lcm, lgamma, log, log2, log10, perm, prod

from .grassmann import (
    EXACT,
    GrassmannShape,
    degree_digits,
    grassmann_degree,
    grassmann_degree_sweep,
)
from .partitions import (
    _MESSAGE_BITS,
    Numeral,
    Partition,
    canonical,
    check_partition_terms,
    enumerate_partitions,
    exact_quotient,
    falling_factorial_product,
    message,
    pad,
    partition_count,
    syt_count,
)
from .schur import KEPT_TABLE_N, SegreIntegralTable, VeroneseVariety


class NotGenericallyFiniteError(Exception):
    """Raised when a table-driven degree comes out non-positive.

    A vanishing total means the order-m Gauss map is not generically
    finite onto its image (the fibres are positive-dimensional), so no
    degree exists; a negative total means the table itself is not the
    Segre data of any variety.  Either way the number must not be
    reported as a degree.
    """


@dataclass(frozen=True)
class DegreeReport:
    """Dimension and degree of one tangent-plane variety, with provenance."""

    n: int
    N: int
    m: int
    deg_xm: int
    method: str
    d: int | None = None
    notes: str = ""

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.deg_xm <= 0:
            raise ValueError("degree must be positive")

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


@dataclass(frozen=True)
class BoundsReport:
    """One (variety, m): the degree against its reference product, and bounds.

    `ratio` is degree / product.  `bounds` makes these records and enforces
    the proved sandwich `lower <= ratio <= upper`; the conjectured power
    bound is only reported.  `to_dict` is the row `conjecture` prints,
    written by `_conjecture_row` as `conjecture_scan` writes it.
    """

    n: int
    d: int
    N: int
    m: int
    degree: int
    product: int
    ratio: Fraction
    conjecture_upper: Fraction

    @property
    def lower(self) -> Fraction:
        """The proved lower bound C(N-m, n) / C(N-n, n) of `ratio`."""
        n, N = self.n, self.N
        return Fraction(comb(N - self.m, n), comb(N - n, n))

    @property
    def upper(self) -> Fraction:
        """The proved upper bound C(N-m+n-1, n) / C(N-1, n) of `ratio`."""
        n, N = self.n, self.N
        return Fraction(comb(N - self.m + n - 1, n), comb(N - 1, n))

    @property
    def within_conjecture(self) -> bool:
        return self.ratio <= self.conjecture_upper

    @property
    def conjecture_value(self) -> Fraction:
        """Conjectured virtual degree: the power bound times the reference product."""
        return self.conjecture_upper * self.product

    def to_dict(self) -> dict:
        ratio, cell = self.ratio, (self.n, self.d, self.N, self.m, self.degree, self.product)
        return _conjecture_row(*cell, ratio.numerator, ratio.denominator, self.within_conjecture)


def _conjecture_row(n, d, N, m, degree, product, num, den, within) -> dict:
    """The row `conjecture` prints of one cell, whose ratio is num / den in lowest terms.

    The power bound a/b = ((N-m)/(N-n))^n and the conjectured value a * product / b,
    reduced by gcd(product, b) alone, are written with no `Fraction`.  An integral
    Decimal `degree` or `product` needs the caller to have entered `grassmann.EXACT`.
    """
    common = gcd(N - m, N - n)
    a, b = ((N - m) // common) ** n, ((N - n) // common) ** n
    common = gcd(int(product % b), b)
    value, b_value = product // common * a, b // common
    return {
        "n": n,
        "d": d,
        "N": N,
        "m": m,
        "degree": Numeral(degree),
        "product": Numeral(product),
        "ratio": f"{num}/{den}" if den != 1 else str(num),
        "conjecture_upper": f"{a}/{b}" if b != 1 else str(a),
        "conjecture_value": Numeral(f"{value}/{b_value}" if b_value != 1 else value),
        "within_conjecture": within,
    }


# The cost guard: a number estimated to have more decimal digits than this
# is refused, with a "too large" ValueError, before it is formed: by each
# `Method.guard` and `guard_scan`, by `degree_alternate` for its (dim X_m)!
# and by the command line for a Pluecker degree or a tableau count.
MAX_DIGITS = 10**6


def check_digits(digits: float, template: str, *args) -> None:
    """Refuse the number `message(template, *args)` names when `digits` pass MAX_DIGITS."""
    if digits > MAX_DIGITS:
        raise ValueError(
            f"too large: {message(template, *args)} would have over {MAX_DIGITS:,} digits "
            f"(estimated {digits:,.0f} or more)"
        )


def check_printable(digits: float, template: str, *args) -> None:
    """Refuse the number `message(template, *args)` names when `digits` pass the str() limit.

    The interpreter converts an int of at most `sys.get_int_max_str_digits()`
    digits to a string (4300 unless `PYTHONINTMAXSTRDIGITS` sets it), any
    int when that limit is 0.  `digits` must be a proved lower bound of the
    number's log10, so that no number that can be printed is refused.
    """
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(
            f"too large: {message(template, *args)} would have over {limit} digits, more "
            f"than the interpreter converts to a string (estimated {digits:,.0f} or more)"
        )


_RANGE = "m must satisfy %s <= m <= %s, got %s"


def _check_range(n: int, N: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not n <= m <= N - 1:
        raise ValueError(message(_RANGE, n, N - 1, m))


def _n_bits_exceed(v: VeroneseVariety, bits: int) -> bool:
    """Whether N = C(n+d, d) - 1 has more than `bits` bits, forming N only if cheap.

    C(n+d, k) >= ((n+d)/k)^k with k = min(n, d), so N has more than `bits`
    bits once k log2((n+d)/k) passes bits + 2; the two are compared in
    logarithms so that no k overflows a float.  Short of that, N has at
    most about 2.5 times `bits` bits, as C(n+d, k) <= (e(n+d)/k)^k, and is
    formed.
    """
    k = min(v.n, v.d)
    log_bound_bits = log2(k) + log2(log2(v.n + v.d) - log2(k))
    return log_bound_bits > log2(bits + 2) or v.N.bit_length() > bits


def check_veronese_range(v: VeroneseVariety, m: int) -> None:
    """`_check_range(v.n, v.N, m)`, forming N only where the answer needs it.

    N = C(n+d, d) - 1 can have millions of digits.  An m from n up with
    fewer bits than N is in range.  Below n the message names N - 1 in
    decimal only if N fits in a message, and C(n+d, d) - 2 otherwise.
    """
    n, d = v.n, v.d
    if not _n_bits_exceed(v, m.bit_length() if m >= n else _MESSAGE_BITS):
        _check_range(n, v.N, m)
    elif m < n:
        raise ValueError(message(_RANGE, n, message("C(%s, %s) - 2", n + d, d), m))


def dim_xm(n: int, N: int, m: int) -> int:
    """Dimension n + (N-m)(m-n) of the variety of tangent m-planes."""
    _check_range(n, N, m)
    return n + (N - m) * (m - n)


def ordinary_gauss_degree(v: VeroneseVariety) -> int:
    """Degree of the image of the ordinary (m = n) Gauss map: (n+1)^n (d-1)^n."""
    return (v.n + 1) ** v.n * (v.d - 1) ** v.n


def ordinary_gauss_digits(v: VeroneseVariety) -> float:
    """log10 of `ordinary_gauss_degree(v)`, without forming it; inf past the floats."""
    return v.n * log10((v.n + 1) * (v.d - 1)) if v.n.bit_length() < 1000 else inf


def boole_degree(n: int, d: int) -> int:
    """Degree (n+1)(d-1)^n of the variety dual to the degree-d Veronese n-fold."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    return (n + 1) * (d - 1) ** n


def boole_digits(n: int, d: int) -> float:
    """log10 of `boole_degree(n, d)`, without forming it; inf past the floats."""
    if d == 2:
        return log10(n + 1)
    return log10(n + 1) + n * log10(d - 1) if n.bit_length() < 1000 else inf


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
    sweep over m, or a later call, pays for it once.
    """
    return replace(degree_generic(v.integral_table, m), method="main", d=v.d)


def degree_alternate(v: VeroneseVariety, m: int) -> DegreeReport:
    """Same degree through the inclusion-exclusion form over the dual rectangle.

    Independent of `degree_main` and of `reference_product`: the rectangle
    is (N-m) wide and m-n tall, and the sum runs over k = 0..n with
    partitions lam of n-k in at most m-n parts (at m = n, only k = n),
    each weighted by f(lam) times its falling-factorial product and by the
    tableau count of itself plus the rectangle.  Term k has weight
    1/(n-k)! = perm(n, k)/n!, so the sum is kept in integers and divided
    by n! once.  (dim X_m)! bounds the widest shape's tableau count, so
    past MAX_DIGITS digits of it the cell is refused first.
    """
    n, N = v.n, v.N
    big_m = dim_xm(n, N, m)
    check_partition_terms(n)
    e, width = m - n, N - m
    digits = lgamma(big_m + 1) / log(10) if big_m.bit_length() < 1000 else inf
    check_digits(digits, "(dim X_m)! of the alternate sum at (n=%s, d=%s, m=%s)", n, v.d, m)
    total = 0
    # the weights depend on n alone: kept for a small n, else built for the
    # lam of at most e rows
    weights = _kept_alternate_weights(n) if n <= KEPT_TABLE_N else _alternate_weights(n, e)
    for k, pairs in enumerate(weights):
        inner = 0
        for lam, weight in pairs:
            if len(lam) <= e:
                # lam comes from `enumerate_partitions`: the shifted shape is
                # canonical as built, and width >= 1 leaves no zero part
                shape = tuple([part + width for part in lam]) + (width,) * (e - len(lam))
                inner += weight * syt_count(shape)
        total += (-1) ** (n - k) * (n + 1) ** k * perm(n, k) * comb(big_m, k) * inner
    return _report(n, v.d, N, m, "alternate", (v.d - 1) ** n * total, factorial(n))


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


@cache
def _kept_alternate_weights(n: int) -> tuple:
    """`_alternate_weights(n, n)`, every pair, kept for n <= KEPT_TABLE_N.

    At most sum_{j <= 13} p(j) = 373 pairs an n; `schur.cache_clear`
    empties them.
    """
    return _alternate_weights(n, n)


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


def reference_digits(n: int, N: int, m: int, first_digits: float, limit: float = inf) -> float:
    """Estimated decimal digits of `reference_product(n, N, m, first)`, in floats.

    `first_digits` is log10 of `first`.  log C(n + kc, n) (k = m-n,
    c = N-m) in O(n) steps, plus `first_digits`, plus
    `grassmann.degree_digits` of G(k, N-n), stopped once past `limit`.
    """
    _check_range(n, N, m)
    kc = (m - n) * (N - m)
    # C(n + kc, n) * first, one factor (kc + j) / j at a time; past 2^64 a
    # float reads kc + j as kc, so a long kc is not added to n times
    big = kc >> 64 > 0
    base = sum(log10(kc if big else kc + j) - log10(j) for j in range(1, n + 1)) + first_digits
    return base + degree_digits(GrassmannShape(m - n, N - n), limit - base)


def guard_reference(n: int, N: int, m: int, first_digits: float) -> float:
    """Refuse a reference product past MAX_DIGITS; `first_digits` is log10 of `first`.

    Returns the product's estimated digits.
    """
    digits = reference_digits(n, N, m, first_digits, MAX_DIGITS)
    check_digits(digits, "the reference product at (n=%s, N=%s, m=%s)", n, N, m)
    return digits


def guard_veronese(v: VeroneseVariety, m: int) -> float:
    """Cost guard of a degree of `v` at m; range errors come first.

    The reference product's first factor is refused before N is formed.
    Returns the reference product's estimated digits.
    """
    check_veronese_range(v, m)
    first = ordinary_gauss_digits(v)
    check_digits(first, "the ordinary Gauss degree at (n=%s, d=%s)", v.n, v.d)
    return guard_reference(v.n, v.N, m, first)


def guard_degree(v: VeroneseVariety, m: int) -> None:
    """The default `Method.guard`: `guard_veronese`, then the degree must be printable."""
    _check_degree_printable(v, m, guard_veronese(v, m))


def _check_degree_printable(v: VeroneseVariety, m: int, product_digits: float) -> None:
    """`check_printable` of the degree at (v, m), by its proved lower bound, `_lower_digits`."""
    digits = _lower_digits(v, m, product_digits)
    check_printable(digits, "the degree at (n=%s, d=%s, m=%s)", v.n, v.d, m)


def _lower_digits(v: VeroneseVariety, m: int, product_digits: float) -> float:
    """Digits of the degree's proved lower bound, `BoundsReport.lower` times the product.

    `product_digits` estimates the reference product's digits; one digit
    is taken off for the estimate.  Where N - m < n the bound is 0: -inf.
    """
    n, N = v.n, v.N
    if N - m < n:
        return -inf
    ratio = sum(log10(N - m - j) - log10(N - n - j) for j in range(n))
    return product_digits + ratio - 1


# A sweep holds every row before it prints them: `guard_scan` bounds the
# digits of all its rows, rows x central digits, to MAX_SWEEP_DIGITS, and
# their work to MAX_WORK digit-terms, about 0.8 ns each: one digit of a long
# operation.  A row makes p(n) short terms of its weighted sum, priced at
# _SHORT_TERM_WORK each, and _ROW_LONG_OPS long operations on its central
# digits (the sweep step, the remainder mod L, the degree's division and
# product, and its decimal text).  In process (CPython 3.11, shared 2-core
# x86-64) a term took 1.2-1.8 us from n = 5 to 25, and the long operations
# of a row of (3, 10) about 10 ns a digit.  As processes,
# `conjecture --n 1 --d 400`, an estimate of 3.0 x 10^7 digits, held 234 MB
# to print 57 MB, and `table --n 25 --d 2`, 2.0 x 10^9 digit-terms, took
# 1.8 s.  MAX_WORK also bounds the m = n+1 sum, terms x digits of its
# largest term: 3.9 s for (n, d) = (20000, 3); and the check of
# `degree_curve_closed`, rows x d x digits digit pairs for its sweep (each
# step's factors have up to d short terms) plus digits^2 for comparing an
# int with a Decimal: 1.4 s each at (1, 700, 350), 263,676 digits, 0.021 to
# 0.030 ns a pair, so _CHECK_PAIRS pairs to a digit-term.  Each step of that
# sweep first forms its factor's two products of short integers and their
# gcd, quadratic in their digits: 5.1 s for the 2.1 million digits of the
# second step at d = 200,000, 1.2 to 1.8 ps a pair from 0.46 to 2.1 million
# digits, priced at _FACTOR_PAIRS pairs a digit-term (2.7 ps a pair).
MAX_SWEEP_DIGITS = 2 * 10**7
MAX_WORK = 5 * 10**9
_SHORT_TERM_WORK = 3_000
_ROW_LONG_OPS = 8
_CHECK_PAIRS = 25
_FACTOR_PAIRS = 300


def guard_scan(n_values, d_values) -> None:
    """Cost guard of `conjecture_scan(n_values, d_values)`, or of `table` as a box of one.

    The box's cost is the sum of its varieties' `_sweep_cost`, added up in
    the scan's order and refused at the first variety that takes either
    sum past its bound, so a long box stops early.  The first variety is
    the smallest: its range errors come first, and a box refused there is
    named as its one sweep.  An empty box checks nothing.
    """
    digits = work = 0.0
    box = ((n, d) for n in n_values for d in d_values)
    for done, (n, d) in enumerate(box, start=1):
        more_digits, more_work = _sweep_cost(VeroneseVariety(n, d))
        digits, work = digits + more_digits, work + more_work
        if done == 1:
            _refuse_past(digits, work, "the sweep over m of (n=%s, d=%s)", n, d)
        else:
            _refuse_past(digits, work, "%s sweeps over m, up to (n=%s, d=%s),", done, n, d)


def _refuse_past(digits: float, work: float, template: str, *args) -> None:
    """Refuse the sweeps `message(template, *args)` names past either bound."""
    if digits > MAX_SWEEP_DIGITS:
        cost = f"print over {MAX_SWEEP_DIGITS:,} digits (estimated {digits:,.0f})"
    elif work > MAX_WORK:
        cost = f"take over {MAX_WORK:,} digit-terms (estimated {work:,.0f})"
    else:
        return
    raise ValueError(f"too large: {message(template, *args)} would {cost}")


def _sweep_cost(v: VeroneseVariety) -> tuple[float, float]:
    """Estimated digits and work of every m of `v`, from rows x central digits.

    deg G(k, r - k) rises up to k = r/2 (`grassmann._sweep_factor` is at
    least 1 there), and so does C(n + kc, n), so the central m's reference
    product bounds each row's numbers; it must pass `guard_veronese`.  The
    work is rows x (p(n) _SHORT_TERM_WORK + _ROW_LONG_OPS x central digits).
    The partition count comes first, before N is formed.
    """
    check_partition_terms(v.n)
    rows = v.N - v.n
    central = guard_veronese(v, v.n + rows // 2)
    row_work = partition_count(v.n) * _SHORT_TERM_WORK + _ROW_LONG_OPS * central
    return rows * central, rows * row_work


def _closed_form(
    n: int, N: int, m: int, first: int, ratio, method: str, d: int, notes: str = ""
) -> DegreeReport:
    """The closed forms' one step: `ratio(N-m, N) * reference_product(n, N, m, first)`."""
    product = reference_product(n, N, m, first)
    r = ratio(N - m, N)
    num = r.numerator * product
    return _report(n, d, N, m, method, num, r.denominator, notes)


def degree_curve_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the rational normal curve of degree d (n = 1, N = d).

    The genus-0 general curve in P^d.  G(m-1, d-1) and its dual G(d-m, d-1)
    must have equal Pluecker degree, so the degree is compared with
    2(d-m) * (1 + dim G) times the degree of the one of the two with fewer
    rows, read off `grassmann_degree_sweep(d - 1)`: an independent route,
    since the sweep steps by short ratios and shares no code with the
    tableau kernel behind `reference_product`.
    """
    report = degree_general_curve(d, d, 0, m)
    rows = min(m - 1, d - m)
    pluecker = next(islice(grassmann_degree_sweep(d - 1), rows, None))
    with localcontext(EXACT):  # the sweep's count may be a Decimal
        expected = 2 * (d - m) * (1 + rows * (d - 1 - rows)) * pluecker
    if report.deg_xm != expected:
        raise ArithmeticError("dual Grassmannian degrees disagree")
    return replace(report, method="curve_closed", notes="")


def degree_general_curve(N: int, d: int, g: int, m: int) -> DegreeReport:
    """Closed form for any smooth non-degenerate curve of degree d, genus g in P^N.

    (N-m)/(N-1) times the reference product of the first-stage degree
    2g - 2 + 2d, which must be positive.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if g < 0:
        raise ValueError("genus must be >= 0")
    if d < 1:
        raise ValueError("curve degree must be >= 1")
    first = 2 * g - 2 + 2 * d
    if first <= 0:
        raise ValueError(message("2g - 2 + 2d = %s must be positive", first))
    return _closed_form(
        1, N, m, first, lambda e, N: Fraction(e, N - 1), "general_curve", d, f"genus {g}"
    )


def degree_surface_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the degree-d Veronese surface (n = 2)."""
    v = VeroneseVariety(2, d)

    def ratio(e: int, N: int) -> Fraction:
        return Fraction(e * (3 * e * N - N - 5 * e - 1), 3 * (N - 1) * (N - 2) * (N - 3))

    return _closed_form(2, v.N, m, ordinary_gauss_degree(v), ratio, "surface_closed", d)


def degree_threefold_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the degree-d Veronese threefold (n = 3)."""
    v = VeroneseVariety(3, d)

    def ratio(e: int, N: int) -> Fraction:
        return Fraction(
            e * (
                (8 * e * e - 6 * e + 1) * N * N
                + (-42 * e * e + 9 * e + 6) * N
                + 5 * (8 * e * e + 3 * e + 1)
            ),
            8 * (N - 1) * (N - 2) * (N - 3) * (N - 4) * (N - 5),
        )

    return _closed_form(3, v.N, m, ordinary_gauss_degree(v), ratio, "threefold_closed", d)


@dataclass(frozen=True)
class Method:
    """One `degree --method`: how it computes, where it applies, what it costs.

    `compute` is a `(v, m)` adapter that looks its formula up among this
    module's globals when called, so rebinding a formula's global name
    (to wrap or replace it) reaches calls made through the registry.
    `applies` never forms a huge N.  `guard(v, m)` raises a range error
    or a "too large" ValueError before `compute` forms a big number: by
    default `guard_degree`, the reference product and a degree that can be
    printed; the partition sums hold n to `partitions.MAX_PARTITIONS` terms
    first, the m = n+1 sum and `curve_closed` price their work before the
    degree's digits, and Boole's (n+1)(d-1)^n is bounded by `boole_digits`
    alone.
    """

    compute: Callable[[VeroneseVariety, int], DegreeReport]
    requires: str = ""
    applies: Callable[[VeroneseVariety, int], bool] = lambda v, m: True
    guard: Callable[[VeroneseVariety, int], None] = guard_degree


def _guard_m_np1(v: VeroneseVariety, m: int) -> None:
    """`guard_degree`, with the m = n+1 sum's n + 1 terms x digits of its largest first.

    Term k, (n+1)^k C(N-1, k) C(n+1, n-k), is at most (n+1)^n 2^(n+1)
    C(N-1, n) once N - 1 >= 2n (every Veronese variety but (1, 2)): the
    reference product at m = n+1 with that first factor.  Each step costs
    O(digits).
    """
    digits = guard_veronese(v, m)
    n = v.n
    largest = reference_digits(n, v.N, m, n * log10(n + 1) + (n + 1) * log10(2))
    _refuse_past(0.0, (n + 1) * largest, "the m = n+1 sum at (n=%s, d=%s)", n, v.d)
    _check_degree_printable(v, m, digits)


def _guard_curve_closed(v: VeroneseVariety, m: int) -> None:
    """`guard_degree`, with the check's (min(m-1, d-m) d + digits) digits pairs first.

    Added to them, the sweep's steps, each its factor's digits squared over
    _FACTOR_PAIRS (`_sweep_factor_work`).
    """
    digits = guard_veronese(v, m)
    rows = min(m - 1, v.d - m)
    steps = min(rows * v.d, MAX_WORK * _CHECK_PAIRS)  # keeps d out of floats
    work = (steps + digits) * digits / _CHECK_PAIRS + _sweep_factor_work(v.d - 1, rows)
    _refuse_past(0.0, work, "the curve_closed check at (n=%s, d=%s, m=%s)", v.n, v.d, m)
    _check_degree_printable(v, m, digits)


def _sweep_factor_work(r: int, rows: int) -> float:
    """Digit-terms of the factors of `grassmann_degree_sweep(r)`'s first `rows` steps.

    Step k forms perm(kc + s, s) and perm(c - 1, s), c = r - k and s = c - k - 1,
    and their gcd: their digits squared over _FACTOR_PAIRS.  The step from
    the empty rectangle, k = 0, forms nothing.  The sum stops once past
    MAX_WORK.  A sweep that `guard_veronese` passed has c < 2 x 10^6 from
    k = 1 on, where deg G(2, c), about 0.6c digits, is still within MAX_DIGITS.
    """
    work = 0.0
    for k in range(1, rows):
        c = r - k
        cells, steps = k * c, c - k - 1
        num = lgamma(cells + steps + 1) - lgamma(cells + 1)
        den = lgamma(c) - lgamma(k + 1)
        work += ((num + den) / log(10)) ** 2 / _FACTOR_PAIRS
        if work > MAX_WORK:
            break
    return work


def _guard_partition_sum(v: VeroneseVariety, m: int) -> None:
    """`guard_degree`, with the partitions of n held to their count after the range.

    A degree that can be printed is not priced by its terms: at the 57 to
    83 us a term measured at n = 30 and 40, p(60) terms take under two minutes.
    """
    check_veronese_range(v, m)
    check_partition_terms(v.n)
    guard_degree(v, m)


def _guard_boole(v: VeroneseVariety, m: int) -> None:
    """Boole's degree, its method's whole cost, by `boole_digits`, less one digit to print."""
    digits, what = boole_digits(v.n, v.d), "Boole's degree at (n=%s, d=%s)"
    check_digits(digits, what, v.n, v.d)
    check_printable(digits - 1, what, v.n, v.d)


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


def katz_kleiman(table: SegreIntegralTable) -> int:
    """Degree of the dual variety: the table entry at the one-row partition (n)."""
    return table.lookup((table.n,))


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
    n, N = table.n, table.N
    _check_range(n, N, m)
    _, _, degree = table.plan.row(m, grassmann_degree(GrassmannShape(m - n, N - n)))
    return DegreeReport(n=n, N=N, m=m, deg_xm=degree, method="generic")


class TermPlan:
    """The tableau-weighted sum of one table, laid out once for every m.

    With unit = `reference_product(n, N, m, 1)` = C(dim X_m, n) * deg G,
    G = G(m-n, N-n), the degree is unit * S / L, where S sums
    f(lam) * num * (L / den) * T[lam] over the partitions lam of n:
    num / den is `binomial_ratio_product(lam, n, N, m)`, with
    num = prod_i C(N-m + lam_i-i, lam_i) and den the same at m = n, free
    of m.  L = `lcd` is the lcm of the dens.  `pairs` holds every row
    offset (lam_i - i, lam_i) once, and `terms`, for each lam, (lam,
    f(lam), den, (L / den) * T[lam], the indices of its rows' offsets in
    `pairs`).  A lam of more than N - n rows has a zero term at every m
    and is left out.  A table builds its plan once, as
    `SegreIntegralTable.plan`; `row` evaluates it at one m, the one
    evaluator of the sum for a single cell and for every sweep row.
    """

    def __init__(self, table: SegreIntegralTable):
        n, N = table.n, table.N
        index, terms = {}, []
        for lam, integral in table.entries.items():
            if len(lam) <= N - n:
                rows = enumerate(lam, start=1)
                indices = tuple([index.setdefault((part - i, part), len(index)) for i, part in rows])
                terms.append((lam, integral, indices, *_plan_term(lam, n, N)))
        self.n, self.N, self.pairs = n, N, tuple(index)
        self.lcd = lcd = lcm(*[den for *_, den in terms])
        self.terms = tuple(
            (lam, count, den, lcd // den * integral, indices)
            for lam, integral, indices, count, den in terms
        )

    def row(self, m: int, pluecker: int | Decimal) -> tuple[int, int, int | Decimal]:
        """(C(dim X_m, n), S, degree) at an m in range; `pluecker` is deg G.

        unit = C(dim X_m, n) * pluecker is never formed: `_weighted_sum`
        needs unit mod L, one long remainder.  With q = C(dim X_m, n) * S
        and k = gcd(q, L), the degree is (pluecker / (L / k)) * (q / k): one
        checked long division and one long multiplication, each by a short
        integer.  A Decimal `pluecker` is worked under `grassmann.EXACT`,
        entered here.  S <= 0 raises NotGenericallyFiniteError.
        """
        n, lcd = self.n, self.lcd
        coefficient = comb(n + (self.N - m) * (m - n), n)
        with _NO_CONTEXT if type(pluecker) is int else localcontext(EXACT):
            total = _weighted_sum(self, m, int(pluecker % lcd) * coefficient % lcd)
            q = coefficient * total
            common = gcd(q, lcd)
            what = "the weighted total at m = %s"
            degree = exact_quotient(pluecker, lcd // common, what, m) * (q // common)
        if total <= 0:
            template = (
                "weighted total %s <= 0 at m = %s: the order-%s Gauss map is not generically "
                "finite onto its image, or the table is not the Segre data of a variety"
            )
            raise NotGenericallyFiniteError(message(template, degree, m, m))
        return coefficient, total, degree


def _plan_term(lam: Partition, n: int, N: int) -> tuple[int, int]:
    """f(lam) and its row-binomial denominator prod_i C(N-n+lam_i-i, lam_i)."""
    den = 1
    for i, part in enumerate(lam, start=1):
        den *= comb(N - n + part - i, part)
    return syt_count(lam), den


def _row_binomials(pairs: Sequence, height: int) -> list[int]:
    """C(height + offset, part) for each (offset, part) of `pairs`, 0 where height + offset < 0.

    A pair whose top is negative belongs only to shapes of more than
    `height` rows, whose terms are 0 and are skipped.
    """
    return [comb(height + offset, part) if height + offset >= 0 else 0 for offset, part in pairs]


_TERM = "tableau count of %s plus the %s-wide rectangle of height %s"


def _weighted_sum(plan: TermPlan, m: int, residue: int) -> int:
    """S of `plan` at m, each term checked; `residue` is unit mod L.

    The row's binomials are formed once, one per offset pair.  A term's
    tableau count, unit * f(lam) * num / den, is checked integral on its
    own as residue * f(lam) * num over den: a short `exact_quotient` per
    term, made for a zero integral too.
    """
    height = plan.N - m
    binomials = _row_binomials(plan.pairs, height)
    total = 0
    for lam, count, den, weight, indices in plan.terms:
        if len(indices) > height:
            continue
        for k in indices:
            count *= binomials[k]
        exact_quotient(residue * count, den, _TERM, lam, m - plan.n, height)
        total += count * weight
    return total


def binomial_ratio_product(lam, n: int, N: int, m: int) -> Fraction:
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
        return Fraction(0)
    pairs = [(part - i, part) for i, part in enumerate(lam, start=1)]
    return Fraction(prod(_row_binomials(pairs, N - m)), prod(_row_binomials(pairs, N - n)))


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
    ((_, _, coefficient, degree, num, den, _),) = _bounds_rows(v, ((m, pluecker),))
    product = coefficient * pluecker * ordinary_gauss_degree(v)
    power = Fraction((N - m) ** n, (N - n) ** n)
    return BoundsReport(n, v.d, N, m, degree, product, Fraction(num, den), power)


def table_rows(v: VeroneseVariety) -> Iterator[dict]:
    """The rows `table` prints, m = n..N-1: m, dim, degree, ratio, within_conjecture.

    The numbers of `bounds(v, m)` at every m, from one Grassmannian sweep,
    written as `conjecture_scan` writes them, with no record and no
    `Fraction` made per row.
    """
    n, N = v.n, v.N
    for m, _, _, degree, num, den, within in _bounds_rows(v, _sweep_cells(n, N)):
        yield {
            "m": m,
            "dim": n + (N - m) * (m - n),
            "degree": Numeral(degree),
            "ratio": f"{num}/{den}" if den != 1 else str(num),
            "within_conjecture": within,
        }


def _sweep_cells(n: int, N: int):
    """(m, deg G(m-n, N-n)) for m = n..N-1, from `grassmann_degree_sweep(N - n)`."""
    return zip(range(n, N), grassmann_degree_sweep(N - n))


_NO_CONTEXT = nullcontext()


def _bounds_rows(v: VeroneseVariety, cells) -> Iterator[tuple]:
    """(m, pluecker, coefficient, degree, ratio num, ratio den, within) for each (m, pluecker).

    `pluecker` is deg G(m-n, N-n).  The Veronese layer over `TermPlan.row`
    of `v.integral_table`'s plan, which gives each cell's C(dim X_m, n), S
    and degree = unit * S / L.  The ratio degree / product is S / (L * g),
    g the ordinary Gauss degree: reduced by one gcd of short integers,
    checked against the proved bounds and measured against the power
    bound, each cross-multiplied, in short ints and no decimal context.
    """
    n, N = v.n, v.N
    plan = v.integral_table.plan
    scale = plan.lcd * ordinary_gauss_degree(v)
    low_den, up_den, power_den = comb(N - n, n), comb(N - 1, n), (N - n) ** n
    for m, pluecker in cells:
        coefficient, total, degree = plan.row(m, pluecker)
        common = gcd(total, scale)
        num, den = total // common, scale // common
        low, up = comb(N - m, n), comb(N - m + n - 1, n)
        if not (low * den <= num * low_den and num * up_den <= up * den):
            template = "proved bounds violated at (n=%s, d=%s, m=%s): %s <= %s/%s <= %s fails"
            lower, upper = Fraction(low, low_den), Fraction(up, up_den)
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
    the row kernel over one Grassmannian sweep per variety, with no record
    made.  Rows are yielded as they are made; empty ranges are refused at
    the call.  A violation is a row whose "within_conjecture" is false.
    """
    n_values, d_values = tuple(n_values), tuple(d_values)
    if not n_values or not d_values:
        raise ValueError("scan ranges must be non-empty")
    varieties = (VeroneseVariety(n, d) for n in n_values for d in d_values)
    return chain.from_iterable(map(_conjecture_rows, varieties))


def _conjecture_rows(v: VeroneseVariety) -> Iterator[dict]:
    """`conjecture_scan`'s rows of `v`, m = n..N-1, each forming its reference product."""
    n, d, N = v.n, v.d, v.N
    first = ordinary_gauss_degree(v)
    for m, pluecker, coefficient, degree, num, den, within in _bounds_rows(v, _sweep_cells(n, N)):
        with _NO_CONTEXT if type(pluecker) is int else localcontext(EXACT):
            product = coefficient * pluecker * first
            row = _conjecture_row(n, d, N, m, degree, product, num, den, within)
        yield row
