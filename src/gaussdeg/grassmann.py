"""Grassmannians of quotients: dimension and Pluecker degree.

G(d, r) parametrizes rank-d quotient spaces of a fixed r-dimensional
space.  Its Pluecker degree is the tableau count of the k x c rectangle,
k = d and c = r - d; `degrees.reference_product` carries it into every
degree.

A sweep over m keeps k + c fixed, and `grassmann_degree_sweep` steps from
one rectangle to the next: by the product form (kc)! prod_{i<a} i! / (b+i)!,
a = min(k, c), b = max(k, c), D(k+1, c-1) is D(k, c) times
((k+1)(c-1))!/(kc)! * k!/(c-1)!, a ratio of two short products.  It steps
only up to k = c: D(k, c) = D(c, k), so the second half of a sweep is its
first half read backwards.

Past `DECIMAL_BITS` the sweep carries its count in base 10, as an integral
`decimal.Decimal` under `EXACT`: multiplying and exactly dividing by short
integers costs O(digits) in either base, and only base 10 prints in
O(digits), where CPython's `str()` of an int is quadratic and refused past
4,300 digits.
"""

from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import gcd, inf, perm

from .partitions import EXACT, _runs_digits, exact_quotient, message, syt_count

# Past this many bits a sweep's running count turns into a Decimal.  Every
# variety of the `table_sweep` benchmark passes it; of `small_mixed`'s sweeps
# only the central rows of (3, 5), N = 55, do (up to 2,319 bits).  At 2,000
# bits (603 digits) the one conversion costs about 16 us (CPython 3.11,
# shared 2-core x86-64).
DECIMAL_BITS = 2_000
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


def degree_digits(shape: GrassmannShape, limit: float = inf) -> float:
    """Estimated decimal digits of `grassmann_degree(shape)`, in floats.

    `partitions._runs_digits` of the a x b rectangle, a = min(k, c), read
    off its one run (b, a), as `syt_count_digits` but with no cell bound:
    at most a steps, one per row, stopped once past `limit` digits.  One
    row or none reads 0, two rows or more whose sizes pass the floats inf.
    """
    a, b = sorted((shape.d, shape.r - shape.d))
    return _runs_digits(((b, a),), limit) if a > 1 else 0.0


def grassmann_degree_sweep(r: int):
    """deg G(k, r) for k = 0..r-1, in order: the k x (r-k) rectangles' tableau counts.

    Starts at D(0, r) = 1 and, while k <= r/2, takes each next count from
    the last by one `_sweep_factor`, whose denominator must divide the
    running count (an `exact_quotient`).  Past r/2 it yields D(r-k, k),
    the same rectangle turned over, from the counts already stepped.  No
    sieve and no prime-power product: each step costs one division and one
    multiplication of the count by a short integer.  From the first count
    past `DECIMAL_BITS` on, each is an integral Decimal, stepped under
    `EXACT`; an int step enters no context, which would cost about 1 us,
    more than the step itself.  `int()` of a yielded Decimal is exact; any
    other arithmetic on it needs the caller to enter `EXACT`, as the
    default 28-digit context rounds silently.
    """
    degree, what = 1, "tableau count of the %s x %s rectangle"
    stepped = []
    for k in range(r):
        if 2 * k > r:
            yield stepped[r - k]
            continue
        if k:
            num, den = _sweep_factor(k - 1, r - k + 1)
            if type(degree) is int:
                degree = exact_quotient(degree, den, what, k, r - k) * num
                if degree.bit_length() > DECIMAL_BITS:
                    degree = Decimal(degree)
            else:
                with localcontext(EXACT):
                    degree = exact_quotient(degree, den, what, k, r - k) * num
        stepped.append(degree)
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
