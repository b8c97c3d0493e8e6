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
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, islice
from math import comb, factorial, inf, lgamma, log, log2, log10, perm

from .grassmann import GrassmannShape, degree_digits, grassmann_degree, grassmann_degree_sweep
from .partitions import (
    _MESSAGE_BITS,
    Partition,
    _syt_count_hook,
    add_rectangle,
    canonical,
    check_partition_terms,
    enumerate_partitions,
    exact_quotient,
    falling_factorial_product,
    message,
    pad,
    syt_count_canonical,
)
from .schur import SegreIntegralTable, VeroneseVariety


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
        doc["degree"] = str(self.deg_xm)
        doc["method"] = self.method
        if self.notes:
            doc["notes"] = self.notes
        return doc


@dataclass(frozen=True)
class BoundsReport:
    """One (variety, m): the degree against its reference product, and bounds.

    `ratio` is degree / product.  `bounds` enforces the proved sandwich
    `lower <= ratio <= upper`; the conjectured power bound is only reported.
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
        return {
            "n": self.n,
            "d": self.d,
            "N": self.N,
            "m": self.m,
            "degree": str(self.degree),
            "product": str(self.product),
            "ratio": str(self.ratio),
            "conjecture_upper": str(self.conjecture_upper),
            "conjecture_value": str(self.conjecture_value),
            "within_conjecture": self.within_conjecture,
        }


# The cost guard: a number estimated to have more decimal digits than this
# is refused, with a "too large" ValueError, before it is formed: by each
# `Method.guard` and `guard_sweep`, by `degree_alternate` for its (dim X_m)!
# and by the command line for a Pluecker degree or a tableau count.
MAX_DIGITS = 10**6


def check_digits(digits: float, template: str, *args) -> None:
    """Refuse the number `message(template, *args)` names when `digits` pass MAX_DIGITS."""
    if digits > MAX_DIGITS:
        raise ValueError(
            f"too large: {message(template, *args)} would have over {MAX_DIGITS:,} digits "
            f"(estimated {digits:,.0f} or more)"
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
    falling-factorial product of lam.  The variety builds that table once,
    so a sweep over m pays for it once.
    """
    return replace(degree_generic(v.integral_table, m), method="main", d=v.d)


def degree_alternate(v: VeroneseVariety, m: int) -> DegreeReport:
    """Same degree through the inclusion-exclusion form over the dual rectangle.

    Independent of `degree_main` and of `reference_product`: the rectangle
    is (N-m) wide and m-n tall, and the sum runs over k = 0..n with
    partitions of n-k in at most m-n parts (at m = n, only k = n).  Term k
    has weight 1/(n-k)! = perm(n, k)/n!, so the sum is kept in integers
    and divided by n! once.  (dim X_m)! bounds the widest shape's tableau
    count, so past MAX_DIGITS digits of it the cell is refused first.
    """
    n, N = v.n, v.N
    big_m = dim_xm(n, N, m)
    check_partition_terms(n)
    e = m - n
    digits = lgamma(big_m + 1) / log(10) if big_m.bit_length() < 1000 else inf
    check_digits(digits, "(dim X_m)! of the alternate sum at (n=%s, d=%s, m=%s)", n, v.d, m)
    total = 0
    for k in range(n + 1):
        inner = sum(
            _syt_count_hook(lam)
            * syt_count_canonical(add_rectangle(lam, e, N - m))
            * falling_factorial_product(n, lam)
            for lam in enumerate_partitions(n - k, e)
        )
        total += (-1) ** (n - k) * (n + 1) ** k * perm(n, k) * comb(big_m, k) * inner
    return _report(n, v.d, N, m, "alternate", (v.d - 1) ** n * total, factorial(n))


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
    return _reference_unit(n, N, m, pluecker) * first


def _reference_unit(n: int, N: int, m: int, pluecker: int) -> int:
    """C(n + dim G, n) * deg G = C(dim X_m, n) * `pluecker`, G = G(m-n, N-n)."""
    return comb(dim_xm(n, N, m), n) * pluecker


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


def guard_reference(n: int, N: int, m: int, first_digits: float) -> None:
    """Refuse a reference product past MAX_DIGITS; `first_digits` is log10 of `first`."""
    digits = reference_digits(n, N, m, first_digits, MAX_DIGITS)
    check_digits(digits, "the reference product at (n=%s, N=%s, m=%s)", n, N, m)


def guard_veronese(v: VeroneseVariety, m: int) -> None:
    """Cost guard of a degree of `v` at m; range errors come first.

    The reference product's first factor is refused before N is formed.
    """
    check_veronese_range(v, m)
    first = ordinary_gauss_digits(v)
    check_digits(first, "the ordinary Gauss degree at (n=%s, d=%s)", v.n, v.d)
    guard_reference(v.n, v.N, m, first)


def guard_sweep(v: VeroneseVariety) -> None:
    """Cost guard of every m of `v` at once.

    deg G(k, r - k) rises up to k = r/2 (`grassmann._sweep_factor` is at
    least 1 there), and so does C(n + kc, n), so the central m bounds the
    sweep.  The partition count comes first, before N is formed.
    """
    check_partition_terms(v.n)
    guard_veronese(v, v.n + (v.N - v.n) // 2)


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
    if report.deg_xm != 2 * (d - m) * (1 + rows * (d - 1 - rows)) * pluecker:
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
    default `guard_veronese`, the reference product; the partition sums
    hold n to `partitions.MAX_PARTITIONS` terms first, and Boole's
    (n+1)(d-1)^n is bounded by `boole_digits` alone.
    """

    compute: Callable[[VeroneseVariety, int], DegreeReport]
    requires: str = ""
    applies: Callable[[VeroneseVariety, int], bool] = lambda v, m: True
    guard: Callable[[VeroneseVariety, int], None] = guard_veronese


def _guard_partition_sum(v: VeroneseVariety, m: int) -> None:
    """`guard_veronese`, with the partitions of n held to their count after the range."""
    check_veronese_range(v, m)
    check_partition_terms(v.n)
    guard_veronese(v, m)


METHODS = {
    "main": Method(lambda v, m: degree_main(v, m), guard=_guard_partition_sum),
    "alternate": Method(lambda v, m: degree_alternate(v, m), guard=_guard_partition_sum),
    "curve_closed": Method(
        lambda v, m: degree_curve_closed(v.d, m), "n = 1", lambda v, m: v.n == 1
    ),
    "surface_closed": Method(
        lambda v, m: degree_surface_closed(v.d, m), "n = 2", lambda v, m: v.n == 2
    ),
    "threefold_closed": Method(
        lambda v, m: degree_threefold_closed(v.d, m), "n = 3", lambda v, m: v.n == 3
    ),
    "m_eq_n_plus_1": Method(
        lambda v, m: degree_m_np1(v), "m = n + 1", lambda v, m: m == v.n + 1
    ),
    "boole": Method(
        lambda v, m: _report(v.n, v.d, v.N, m, "boole", boole_degree(v.n, v.d)),
        "m = N - 1",
        # N - 1 >= n, and N = m + 1 has at most one bit more than m
        lambda v, m: v.n <= m and not _n_bits_exceed(v, m.bit_length() + 1) and m == v.N - 1,
        lambda v, m: check_digits(
            boole_digits(v.n, v.d), "Boole's degree at (n=%s, d=%s)", v.n, v.d
        ),
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
    A non-positive total is not a degree and raises
    NotGenericallyFiniteError.
    """
    n, N = table.n, table.N
    total = _weighted_total(table, m, reference_product(n, N, m, 1))
    return DegreeReport(n=n, N=N, m=m, deg_xm=total, method="generic")


def _weighted_total(table: SegreIntegralTable, m: int, unit: int) -> int:
    """`degree_generic`'s checked total; unit = `reference_product(n, N, m, 1)`.

    The caller has checked the range of m, and the table's keys are
    canonical, so each term is integer work only: one exact division of
    unit * f(lam) times the unreduced row-binomial ratio, then T[lam].
    """
    n, N = table.n, table.N
    what = "tableau count of %s plus the %s-wide rectangle of height %s"
    total = 0
    for lam, integral in table.entries.items():
        num, den = _row_binomial_ratio(lam, n, N, m)
        quotient = exact_quotient(unit * _syt_count_hook(lam) * num, den, what, lam, m - n, N - m)
        total += quotient * integral
    if total <= 0:
        template = (
            "weighted total %s <= 0 at m = %s: the order-%s Gauss map is not generically "
            "finite onto its image, or the table is not the Segre data of a variety"
        )
        raise NotGenericallyFiniteError(message(template, total, m, m))
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
    return Fraction(*_row_binomial_ratio(canonical(pad(lam, n)), n, N, m))


def _row_binomial_ratio(lam: Partition, n: int, N: int, m: int) -> tuple[int, int]:
    """`binomial_ratio_product` of a canonical lam as an unreduced (num, den).

    (0, 1) when lam has more than N-m rows.  Neither lam nor the range of
    m is checked: the weighted sum checks each once, outside its loop.
    """
    if len(lam) > N - m:
        return 0, 1
    num = den = 1
    for i, part in enumerate(lam, start=1):
        num *= comb(N - m + part - i, part)
        den *= comb(N - n + part - i, part)
    return num, den


def bounds(v: VeroneseVariety, m: int) -> BoundsReport:
    """The degree at (v, m) against its reference product, with sandwich bounds.

    One evaluation of the cell: the degree (`degree_main`'s number) and the
    reference product share one `reference_product(n, N, m, 1)`.  The ratio
    degree / product always lies in [C(N-m,n)/C(N-n,n), C(N-m+n-1,n)/C(N-1,n)]
    (a theorem, enforced); the sharper power bound ((N-m)/(N-n))^n is only
    conjectural and is reported, never enforced.  `bounds_sweep` gives the
    same records for every m at once.
    """
    return _bounds_record(v, m, reference_product(v.n, v.N, m, 1))


def bounds_sweep(v: VeroneseVariety):
    """`bounds(v, m)` for m = n..N-1, in order, from one Grassmannian sweep.

    Along m, G(m-n, N-n) keeps N - n fixed, so the Pluecker degrees come
    from `grassmann_degree_sweep(N - n)`, one short step per m, instead
    of one `grassmann_degree` per m.  Records are yielded as they are made.
    """
    n, N = v.n, v.N
    for m, pluecker in zip(range(n, N), grassmann_degree_sweep(N - n)):
        yield _bounds_record(v, m, _reference_unit(n, N, m, pluecker))


def _bounds_record(v: VeroneseVariety, m: int, unit: int) -> BoundsReport:
    """The `BoundsReport` at (v, m); unit = `reference_product(n, N, m, 1)`."""
    n, N = v.n, v.N
    degree = _weighted_total(v.integral_table, m, unit)
    product = unit * ordinary_gauss_degree(v)
    record = BoundsReport(
        n=n,
        d=v.d,
        N=N,
        m=m,
        degree=degree,
        product=product,
        ratio=Fraction(degree, product),
        conjecture_upper=Fraction((N - m) ** n, (N - n) ** n),
    )
    # lower <= degree / product <= upper, cross-multiplied: every
    # denominator is a positive integer
    if not (
        comb(N - m, n) * product <= degree * comb(N - n, n)
        and degree * comb(N - 1, n) <= comb(N - m + n - 1, n) * product
    ):
        template = "proved bounds violated at (n=%s, d=%s, m=%s): %s <= %s/%s <= %s fails"
        ratio = record.ratio
        args = (n, v.d, m, record.lower, ratio.numerator, ratio.denominator, record.upper)
        raise ArithmeticError(message(template, *args))
    return record


def verify_identity(n: int, tableau_count=_syt_count_hook) -> tuple[int, int, bool]:
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


def conjecture_scan(n_values, d_values) -> Iterator[BoundsReport]:
    """Evaluate the conjectured power bound over a parameter sweep.

    Yields the `BoundsReport` of every admissible m of every n in `n_values`
    and d in `d_values`, each as `bounds_sweep` makes it; empty ranges are
    refused at the call.  A violation is a record with `within_conjecture` false.
    """
    n_values, d_values = tuple(n_values), tuple(d_values)
    if not n_values or not d_values:
        raise ValueError("scan ranges must be non-empty")
    varieties = (VeroneseVariety(n, d) for n in n_values for d in d_values)
    return chain.from_iterable(map(bounds_sweep, varieties))
