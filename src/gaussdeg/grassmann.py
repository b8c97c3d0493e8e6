"""Grassmannians of quotients: dimension and Pluecker degree.

G(d, r) parametrizes rank-d quotient spaces of a fixed r-dimensional
space.  Its Pluecker degree is the tableau count of the k x c rectangle,
k = d and c = r - d; `degrees.reference_product` carries it into every
degree.

A sweep over m keeps k + c fixed, and `grassmann_degree_sweep` steps from
one rectangle to the next: by the product form (kc)! prod_{i<a} i! / (b+i)!,
a = min(k, c), b = max(k, c), D(k+1, c-1) is D(k, c) times
((k+1)(c-1))!/(kc)! * k!/(c-1)!, a ratio of two short products.  It yields
only the counts it steps, up to k = c: D(k, c) = D(c, k), so the rest of a
sweep is its stepped half read backwards, and `degrees._sweep_cells`, the
one mirror, reads it so.

Past `DECIMAL_BITS` the sweep carries its count in base 10, as an integral
`decimal.Decimal` under `EXACT`: multiplying and exactly dividing by short
integers costs O(digits) in either base, and only base 10 prints in
O(digits), where CPython's `str()` of an int is quadratic and refused past
4,300 digits.  This is the one module that imports `decimal` and knows the
choice: a `Count` of either kind is worked by `count_divmod`,
`count_multiply` and `count_fma`, an int's operators or `EXACT`'s own
methods, which enter no context, so a caller's context is neither used
nor changed, and sized by `count_digits`.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from math import gcd, perm

from .partitions import exact_quotient, message, syt_count

# Past this many bits a sweep's running count turns into a Decimal.  Every
# variety of the `table_sweep` benchmark passes it; of `small_mixed`'s sweeps
# only the central rows of (3, 5), N = 55, do (up to 2,319 bits).  At 2,000
# bits (603 digits) the one conversion costs about 16 us (CPython 3.11,
# shared 2-core x86-64).
DECIMAL_BITS = 2_000
# Exact integer arithmetic in base 10: precision and exponents as wide as
# libmpdec allows, and any rounding raises instead of passing silently, as it
# would under the default 28-digit context.  Only its methods are called, so
# the caller's context is neither used nor changed.
EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)

# A swept count: an int, or past `DECIMAL_BITS` an integral Decimal.
Count = int | Decimal


def count_divmod(count: Count, den: int) -> tuple[Count, int]:
    """(count // den, count % den), den > 0: the quotient of `count`'s kind, the rest an int."""
    if type(count) is int:
        return divmod(count, den)
    quotient, rest = EXACT.divmod(count, den)
    return quotient, int(rest)


def count_multiply(count: Count, factor: int) -> Count:
    """count * factor, of `count`'s kind."""
    return count * factor if type(count) is int else EXACT.multiply(count, factor)


def count_fma(count: Count, factor: int, addend: int) -> Count:
    """count * factor + addend, of `count`'s kind: one fused multiply-add for a Decimal."""
    return count * factor + addend if type(count) is int else EXACT.fma(count, factor, addend)


def count_digits(count: Count) -> int:
    """The decimal digits of a count >= 1, from its size: exact for a Decimal.

    For an int, bits * 30,103 // 10^5 + 1: 30,103 / 10^5 exceeds log10(2)
    by under 5 x 10^-9 a bit, so it is never short, and below 10^8 bits at
    most one over.
    """
    if type(count) is int:
        return count.bit_length() * 30_103 // 100_000 + 1
    return count.adjusted() + 1


@dataclass(frozen=True)
class GrassmannShape:
    """Grassmannian of rank-`d` quotients of a rank-`r` space."""

    d: int
    r: int

    def __post_init__(self):
        if not 0 <= self.d <= self.r:
            raise ValueError(message("need 0 <= d <= r, got d=%s, r=%s", self.d, self.r))


def grassmann_dim(shape: GrassmannShape) -> int:
    return shape.d * (shape.r - shape.d)


def grassmann_degree(shape: GrassmannShape) -> int:
    """Degree under the Pluecker embedding: tableaux of the k x c rectangle.

    `partitions.syt_count`, the one counting path, of the orientation with
    fewer rows: kept below `partitions.PRIME_POWER_CELLS` cells and formed
    as prime powers from there on.  It is 1 at once for a point (d = 0 or
    d = r), a projective space or its dual: a rectangle of at most one row
    or column.
    """
    rows, cols = sorted((shape.d, shape.r - shape.d))
    return syt_count((cols,) * rows)


def grassmann_degree_sweep(r: int) -> Iterator[Count]:
    """deg G(k, r) for k = 0..min(r-1, r/2), in order: the k x (r-k) rectangles' tableau counts.

    The stepped half of the sweep; deg G(k, r) = deg G(r-k, r) gives the
    rest.  Starts at D(0, r) = 1 and takes each next count from the last by
    one `_sweep_factor`, whose denominator must divide the running count
    (an `exact_quotient` by `count_divmod`).  No sieve and no prime-power
    product: each step costs one division and one multiplication of the
    count by a short integer.  From the first count past `DECIMAL_BITS` on,
    each is an integral Decimal.  `int()` of a yielded Decimal is exact;
    any other arithmetic on it goes through the `count_*` functions, as the
    default 28-digit context rounds silently.
    """
    degree, what = 1, "tableau count of the %s x %s rectangle"
    for k in range(min(r, r // 2 + 1)):
        if k:
            num, den = _sweep_factor(k - 1, r - k + 1)
            degree = exact_quotient(degree, den, what, k, r - k, divide=count_divmod)
            degree = count_multiply(degree, num)
            if type(degree) is int and degree.bit_length() > DECIMAL_BITS:
                degree = Decimal(degree)
        yield degree


def _sweep_factor(k: int, c: int) -> tuple[int, int]:
    """D(k+1, c-1) / D(k, c) in lowest terms, as (numerator, denominator); c > k.

    The ratio is ((k+1)(c-1))!/(kc)! * k!/(c-1)!: with s = c - k - 1 >= 0,
    the first quotient is the s integers up to kc + s and the second the s
    integers up to c - 1.  From the empty rectangle, k = 0, the ratio is 1:
    both quotients would be (c-1)!.
    """
    if not k:
        return 1, 1
    cells, steps = k * c, c - k - 1
    num, den = perm(cells + steps, steps), perm(c - 1, steps)
    common = gcd(num, den)
    return num // common, den // common
