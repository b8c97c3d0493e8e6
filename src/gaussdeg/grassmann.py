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

Past `partitions.DECIMAL_BITS` the sweep carries its count in base 10, as
`partitions.as_count` rules; `partitions` says why.
"""

from collections.abc import Iterator
from math import gcd, perm

from .partitions import Count, Record, as_count, count_multiply, exact_quotient, message, syt_count


class GrassmannShape(Record):
    """Grassmannian of rank-`d` quotients of a rank-`r` space."""

    _fields = ("d", "r")

    def __init__(self, d: int, r: int):
        if not 0 <= d <= r:
            raise ValueError(message("need 0 <= d <= r, got d=%s, r=%s", d, r))
        self._set(d=d, r=r)


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
    (an `exact_quotient`).  No sieve and no prime-power product: each step
    costs one division and one multiplication of the count by a short
    integer.  From the first count past `DECIMAL_BITS` on, each is an
    integral Decimal (`as_count`).  `int()` of a yielded Decimal is exact;
    any other arithmetic on it goes through the `count_*` functions of
    `partitions`, as the default 28-digit context rounds silently.
    """
    degree, what = 1, "tableau count of the %s x %s rectangle"
    for k in range(min(r, r // 2 + 1)):
        if k:
            num, den = _sweep_factor(k - 1, r - k + 1)
            degree = as_count(count_multiply(exact_quotient(degree, den, what, k, r - k), num))
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
