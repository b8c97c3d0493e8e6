"""Grassmannians of quotients: dimension and Pluecker degree.

G(d, r) parametrizes rank-d quotient spaces of a fixed r-dimensional
space.  Its Pluecker degree is the tableau count of the k x c rectangle,
k = d and c = r - d; `degrees.reference_product` carries it into every
degree.

A sweep over m keeps k + c fixed, and `grassmann_degree_sweep` steps from
one rectangle to the next: by the product form (kc)! prod_{i<a} i! / (b+i)!,
a = min(k, c), b = max(k, c), D(k+1, c-1) is D(k, c) times
((k+1)(c-1))!/(kc)! * k!/(c-1)!, a ratio of two short products.
"""

from dataclasses import dataclass
from math import gcd, inf, perm

from .partitions import _runs_digits, exact_quotient, syt_count_canonical


@dataclass(frozen=True)
class GrassmannShape:
    """Grassmannian of rank-`d` quotients of a rank-`r` space."""

    d: int
    r: int

    def __post_init__(self):
        if not 0 <= self.d <= self.r:
            raise ValueError(f"need 0 <= d <= r, got d={self.d}, r={self.r}")


def grassmann_dim(shape: GrassmannShape) -> int:
    return shape.d * (shape.r - shape.d)


def grassmann_degree(shape: GrassmannShape) -> int:
    """Degree under the Pluecker embedding: tableaux of the k x c rectangle.

    `partitions.syt_count_canonical` of the orientation with fewer rows,
    past the hook cache.  It is 1 at once for a point (d = 0 or d = r), a
    projective space or its dual: a rectangle of at most one row or column.
    """
    rows, cols = sorted((shape.d, shape.r - shape.d))
    return syt_count_canonical((cols,) * rows)


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

    Starts at D(0, r) = 1 and takes each next count from the last by one
    `_sweep_factor`, whose denominator must divide the running count (an
    `exact_quotient`).  No sieve and no prime-power product: each step costs
    one division and one multiplication of the count by a short integer.
    """
    degree, what = 1, "tableau count of the %s x %s rectangle"
    for k in range(r):
        if k:
            num, den = _sweep_factor(k - 1, r - k + 1)
            degree = exact_quotient(degree, den, what, k, r - k) * num
        yield degree


def _sweep_factor(k: int, c: int) -> tuple[int, int]:
    """D(k+1, c-1) / D(k, c) in lowest terms, as (numerator, denominator); c >= 1.

    The ratio is ((k+1)(c-1))!/(kc)! * k!/(c-1)!.  Both quotients are
    products of |c - k - 1| consecutive integers, the first up to
    max(kc, (k+1)(c-1)), the second up to max(k, c-1); for c - k - 1 >= 0
    the first is the numerator, otherwise the second.
    """
    cells, steps = k * c, c - k - 1
    if steps >= 0:
        num, den = perm(cells + steps, steps), perm(c - 1, steps)
    else:
        num, den = perm(k, -steps), perm(cells, -steps)
    common = gcd(num, den)
    return num // common, den // common
