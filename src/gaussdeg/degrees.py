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

Everything is exact: integers are unbounded, intermediate rationals are
`fractions.Fraction`, and any value the theory promises to be a positive
integer is checked to be one.
"""

from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial, inf, log10

from .grassmann import GrassmannShape, degree_digits, grassmann_degree, grassmann_degree_sweep
from .partitions import (
    add_rectangle,
    enumerate_partitions,
    falling_factorial_product,
    pad,
    syt_count_hook,
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
    lower: Fraction
    upper: Fraction
    conjecture_upper: Fraction

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


# Longest integer an error message prints in decimal: CPython refuses str()
# past 4,300 digits by default, and 13,000 bits is about 3,900 digits.
_MESSAGE_BITS = 13_000


def _message_int(value: int) -> str:
    """`value` in decimal, or its size when the decimal would be too long."""
    if value.bit_length() <= _MESSAGE_BITS:
        return str(value)
    return f"an integer of {value.bit_length():,} bits"


def _range_error(n: int, upper: str, m: int) -> ValueError:
    return ValueError(f"m must satisfy {n} <= m <= {upper}, got {_message_int(m)}")


def _check_range(n: int, N: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not n <= m <= N - 1:
        raise _range_error(n, _message_int(N - 1), m)


def check_veronese_range(v: VeroneseVariety, m: int) -> None:
    """`_check_range(v.n, v.N, m)`, forming N only where the answer needs it.

    N = C(n+d, d) - 1 can have millions of digits.  Since C(n+d, d) > 2^k,
    k = min(n, d), every m < 2^k that is at least n is in range.  Below n
    the message names N - 1 = C(n+d, d) - 2 in decimal only when
    (n+d)^k, a bound on C(n+d, d), fits in a message.
    """
    n, d = v.n, v.d
    k = min(n, d)
    if m < n:
        short = k * (n + d).bit_length() <= _MESSAGE_BITS
        raise _range_error(n, str(v.N - 1) if short else f"C({n + d}, {d}) - 2", m)
    if m.bit_length() >= k:
        _check_range(n, v.N, m)


def dim_xm(n: int, N: int, m: int) -> int:
    """Dimension n + (N-m)(m-n) of the variety of tangent m-planes."""
    _check_range(n, N, m)
    return n + (N - m) * (m - n)


def ordinary_gauss_degree(v: VeroneseVariety) -> int:
    """Degree of the image of the ordinary (m = n) Gauss map: (n+1)^n (d-1)^n."""
    return (v.n + 1) ** v.n * (v.d - 1) ** v.n


def ordinary_gauss_digits(v: VeroneseVariety) -> float:
    """log10 of `ordinary_gauss_degree(v)`, without forming the integer."""
    return v.n * log10((v.n + 1) * (v.d - 1))


def boole_degree(n: int, d: int) -> int:
    """Degree (n+1)(d-1)^n of the variety dual to the degree-d Veronese n-fold."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    return (n + 1) * (d - 1) ** n


def _exact_positive(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{context}: degree came out non-integral: {value}")
    degree = int(value)
    if degree <= 0:
        raise ArithmeticError(f"{context}: degree came out non-positive: {degree}")
    return degree


def _veronese_report(v: VeroneseVariety, m: int, value: Fraction, method: str) -> DegreeReport:
    degree = _exact_positive(value, f"{method}(n={v.n}, d={v.d}, m={m})")
    return DegreeReport(n=v.n, d=v.d, N=v.N, m=m, deg_xm=degree, method=method)


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

    Independent of `degree_main`: the rectangle here is (N-m) wide and m-n
    tall, and the sum runs over k = 0..n with partitions of n-k in at most
    m-n parts.  At m = n the inner sum collapses to the k = n term.
    """
    n, N = v.n, v.N
    _check_range(n, N, m)
    e = m - n
    big_m = dim_xm(n, N, m)
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum(
            syt_count_hook(lam)
            * syt_count_hook(add_rectangle(lam, e, N - m))
            * falling_factorial_product(n, lam)
            for lam in enumerate_partitions(n - k, e)
        )
        coeff = Fraction((-1) ** (n - k) * (n + 1) ** k, factorial(n - k))
        total += coeff * comb(big_m, k) * inner
    return _veronese_report(v, m, (v.d - 1) ** n * total, "alternate")


def degree_m_np1(v: VeroneseVariety) -> DegreeReport:
    """Closed form at m = n+1: an alternating binomial sum, no partitions."""
    n, N = v.n, v.N
    m = n + 1
    if m > N - 1:
        raise ValueError(f"m = n+1 = {m} is out of range for N = {N}")
    total = sum(
        (-1) ** (n - k) * (n + 1) ** k * comb(N - 1, k) * comb(n + 1, n - k)
        for k in range(n + 1)
    )
    return _veronese_report(v, m, (v.d - 1) ** n * total, "m_eq_n_plus_1")


def reference_product(n: int, N: int, m: int, first: int) -> int:
    """C(n + dim G, n) * deg G * first, with G = G(m-n, N-n).

    `first` is the first-stage degree: the ordinary Gauss degree of a
    Veronese variety, or 2g - 2 + 2d for a curve of degree d and genus g.
    Each closed form below is a rational ratio in e = N-m and N times this
    product, and `bounds` measures the degree against it.
    """
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
    k, c = m - n, N - m
    # C(n + kc, n) * first, one factor (kc + j) / j at a time
    base = sum(log10(k * c + j) - log10(j) for j in range(1, n + 1)) + first_digits
    return base + degree_digits(GrassmannShape(k, N - n), limit - base)


def _closed_form(
    n: int, N: int, m: int, first: int, ratio, method: str, d: int, notes: str = ""
) -> DegreeReport:
    """The closed forms' one step: `ratio(N-m, N) * reference_product(n, N, m, first)`."""
    _check_range(n, N, m)
    value = ratio(N - m, N) * reference_product(n, N, m, first)
    degree = _exact_positive(value, f"{method}(n={n}, N={N}, m={m})")
    return DegreeReport(n=n, d=d, N=N, m=m, deg_xm=degree, method=method, notes=notes)


def degree_curve_closed(d: int, m: int) -> DegreeReport:
    """Closed form for the rational normal curve of degree d (n = 1, N = d).

    The genus-0 general curve in P^d.  G(m-1, d-1) and its dual G(d-m, d-1)
    must have equal Pluecker degree, so the degree is compared with
    2(d-m) * (1 + dim G) times the hook count of the dual's rectangle,
    taken with its fewer rows: an independent route, since
    `grassmann_degree` treats both orientations alike.
    """
    report = degree_general_curve(d, d, 0, m)
    rows, cols = sorted((m - 1, d - m))
    if report.deg_xm != 2 * (d - m) * (1 + rows * cols) * syt_count_hook((cols,) * rows):
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
        raise ValueError(f"2g - 2 + 2d = {first} must be positive")
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
    """One `degree --method`: how it computes and where it applies.

    `compute` is a `(v, m)` adapter that looks its formula up among this
    module's globals when called, so rebinding a formula's global name
    (to wrap or replace it) reaches calls made through the registry.
    `cost` names what bounds the work, for the command line's cost guard:
    "sum" for a partition sum or a closed form over the reference product,
    "reference" for the m = n + 1 sum, whose n + 1 binomial terms are
    about as long as the reference product there, and "" for Boole's
    formula, which costs next to nothing.
    """

    compute: Callable[[VeroneseVariety, int], DegreeReport]
    requires: str = ""
    applies: Callable[[VeroneseVariety, int], bool] = lambda v, m: True
    cost: str = "sum"


METHODS = {
    "main": Method(lambda v, m: degree_main(v, m)),
    "alternate": Method(lambda v, m: degree_alternate(v, m)),
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
        lambda v, m: degree_m_np1(v),
        "m = n + 1",
        lambda v, m: m == v.n + 1,
        cost="reference",
    ),
    "boole": Method(
        lambda v, m: _veronese_report(v, m, boole_degree(v.n, v.d), "boole"),
        "m = N - 1",
        # N - 1 >= n, so m < n is answered before N is formed
        lambda v, m: v.n <= m == v.N - 1,
        cost="",
    ),
}

# Every tag a DegreeReport may carry: the registry's Veronese methods plus
# the two table- and curve-driven forms that take other inputs.
METHOD_TAGS = (*METHODS, "generic", "general_curve")


def degree_by_method(v: VeroneseVariety, m: int, method: str) -> DegreeReport:
    """Degree at (v, m) by a registry method; ValueError where it does not apply."""
    entry = METHODS[method]
    if not entry.applies(v, m):
        raise ValueError(f"method {method} requires {entry.requires}")
    return entry.compute(v, m)


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
    _check_range(n, N, m)
    total = _weighted_total(table, m, reference_product(n, N, m, 1))
    return DegreeReport(n=n, N=N, m=m, deg_xm=total, method="generic")


def _weighted_total(table: SegreIntegralTable, m: int, unit: int) -> int:
    """`degree_generic`'s checked total; unit = `reference_product(n, N, m, 1)`."""
    n, N = table.n, table.N
    total = 0
    for lam, integral in table.entries.items():
        ratio = binomial_ratio_product(lam, n, N, m)
        count, rem = divmod(
            unit * syt_count_hook(lam) * ratio.numerator, ratio.denominator
        )
        if rem:
            raise ArithmeticError(
                f"tableau count of {lam} plus the {m - n}-wide rectangle of "
                f"height {N - m} did not come out integral"
            )
        total += count * integral
    if total <= 0:
        raise NotGenericallyFiniteError(
            f"weighted total {total} <= 0 at m = {m}: the order-{m} Gauss map "
            "is not generically finite onto its image, or the table is not "
            "the Segre data of a variety"
        )
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
    num = den = 1
    for i, part in enumerate(pad(lam, n), start=1):
        if not part:
            break
        if i > N - m:
            return Fraction(0)
        num *= comb(N - m + part - i, part)
        den *= comb(N - n + part - i, part)
    return Fraction(num, den)


def bounds(v: VeroneseVariety, m: int) -> BoundsReport:
    """The degree at (v, m) against its reference product, with sandwich bounds.

    One evaluation of the cell: the degree (`degree_main`'s number) and the
    reference product share one `reference_product(n, N, m, 1)`.  The ratio
    degree / product always lies in [C(N-m,n)/C(N-n,n), C(N-m+n-1,n)/C(N-1,n)]
    (a theorem, enforced); the sharper power bound ((N-m)/(N-n))^n is only
    conjectural and is reported, never enforced.  `bounds_sweep` gives the
    same records for every m at once.
    """
    _check_range(v.n, v.N, m)
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
    ratio = Fraction(degree, product)
    lower = Fraction(comb(N - m, n), comb(N - n, n))
    upper = Fraction(comb(N - m + n - 1, n), comb(N - 1, n))
    if not lower <= ratio <= upper:
        raise ArithmeticError(
            f"proved bounds violated at (n={n}, d={v.d}, m={m}): "
            f"{lower} <= {ratio} <= {upper} fails"
        )
    return BoundsReport(
        n=n,
        d=v.d,
        N=N,
        m=m,
        degree=degree,
        product=product,
        ratio=ratio,
        lower=lower,
        upper=upper,
        conjecture_upper=Fraction(N - m, N - n) ** n,
    )


def verify_identity(n: int, tableau_count=syt_count_hook) -> tuple[int, int, bool]:
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


def conjecture_scan(n_values, d_values) -> tuple[BoundsReport, ...]:
    """Evaluate the conjectured power bound over a parameter sweep.

    For every n in `n_values` and d in `d_values`, collects `bounds_sweep(v)`,
    the `bounds(v, m)` of every admissible m: the exact ratio, the
    conjectured bound, and the conjectured virtual degree (bound times
    reference product, rational in general).  A violation is a row with
    `within_conjecture` false.
    """
    n_values = tuple(n_values)
    d_values = tuple(d_values)
    if not n_values or not d_values:
        raise ValueError("scan ranges must be non-empty")
    rows = []
    for n in n_values:
        for d in d_values:
            v = VeroneseVariety(n, d)
            rows.extend(bounds_sweep(v))
    return tuple(rows)
