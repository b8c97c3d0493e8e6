"""Grassmannians of quotients: dimension and Pluecker degree.

G(d, r) parametrizes rank-d quotient spaces of a fixed r-dimensional
space.  Its Pluecker degree is the tableau count of the k x c rectangle,
k = d and c = r - d; `degrees.reference_product` carries it into every
degree.  By the hook length formula (Frame-Robinson-Thrall) that count is
(kc)! over the product of the hooks, and hook h occurs
min(h, k, c, k + c - h) times, so `grassmann_degree` forms it as a product
of prime powers p^e, e = Legendre's exponent of p in (kc)! minus the
exponent of p in the hooks.  No big division is made, and the cost is the
same for the rectangle and its transpose.  Small rectangles take the
product form (kc)! prod_{i<a} i! / (b+i)!, a = min(k, c), b = max(k, c),
instead: a few factorials and one short division beat the loop over the
primes there.  `partitions.syt_count_hook`, the general O(rows^2)
counter, is the test oracle of both.

A sweep over m keeps k + c fixed, and `grassmann_degree_sweep` steps from
one rectangle to the next: by that product form, D(k+1, c-1) is D(k, c)
times ((k+1)(c-1))!/(kc)! * k!/(c-1)!, a ratio of two short products.
"""

from dataclasses import dataclass
from itertools import compress
from math import factorial, gcd, isqrt, prod

# Below this many cells the product form is faster than the prime powers
# (measured crossover 700-1000 cells on CPython 3.11, x86-64).
PRIME_POWER_CELLS = 800


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

    From PRIME_POWER_CELLS cells on, for each prime p <= kc the exponent
    is sum_j floor(kc / p^j) minus the multiplicities of the hooks
    h < k + c divisible by p^j.  A negative exponent, or a remainder in
    the product form below that size, would mean the count is not an
    integer and raises ArithmeticError.  A rectangle of at most one row or
    column has one tableau: G is then a point (d = 0 or d = r), a
    projective space or its dual, of degree 1, and no sieve is built.
    """
    k, c = shape.d, shape.r - shape.d
    if min(k, c) <= 1:
        return 1
    cells = k * c
    if cells < PRIME_POWER_CELLS:
        a, b = sorted((k, c))
        count, rem = divmod(
            factorial(cells) * prod(map(factorial, range(a))),
            prod(factorial(b + i) for i in range(a)),
        )
        if rem:
            raise ArithmeticError(f"tableau count of the {k} x {c} rectangle is not integral")
        return count
    # mults[h] is the number of hooks of length h
    mults = [min(h, k, c, k + c - h) for h in range(k + c)]
    powers = []
    for p in _primes_upto(cells):
        exponent = 0
        q = p
        while q <= cells:
            exponent += cells // q - sum(mults[q::q])
            q *= p
        if exponent < 0:
            raise ArithmeticError(f"tableau count of the {k} x {c} rectangle is not integral")
        powers.append(p**exponent)
    return _balanced_product(powers)


def grassmann_degree_sweep(r: int):
    """deg G(k, r) for k = 0..r-1, in order: the k x (r-k) rectangles' tableau counts.

    Starts at D(0, r) = 1 and takes each next count from the last by one
    `_sweep_factor`, whose denominator must divide the running count; a
    remainder would mean a count is not an integer and raises
    ArithmeticError.  No sieve and no prime-power product: each step costs
    one division and one multiplication of the count by a short integer.
    """
    degree = 1
    for k in range(r):
        if k:
            num, den = _sweep_factor(k - 1, r - k + 1)
            degree, rem = divmod(degree, den)
            if rem:
                raise ArithmeticError(
                    f"tableau count of the {k} x {r - k} rectangle is not integral"
                )
            degree *= num
        yield degree


def _sweep_factor(k: int, c: int) -> tuple[int, int]:
    """D(k+1, c-1) / D(k, c) in lowest terms, as (numerator, denominator); c >= 1.

    The ratio is ((k+1)(c-1))!/(kc)! * k!/(c-1)!.  Both quotients are
    products of |c - k - 1| consecutive integers, the first just above
    min(kc, (k+1)(c-1)), the second just above min(k, c-1); for
    c - k - 1 >= 0 the first is the numerator, otherwise the second.
    """
    cells, steps = k * c, c - k - 1
    if steps >= 0:
        num, den = prod(range(cells + 1, cells + steps + 1)), prod(range(k + 1, c))
    else:
        num, den = prod(range(c, k + 1)), prod(range(cells + steps + 1, cells + 1))
    common = gcd(num, den)
    return num // common, den // common


def _primes_upto(n: int):
    """Primes p <= n (n >= 1), by a sieve of n + 1 bytes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return compress(range(n + 1), sieve)


def _balanced_product(factors: list[int]) -> int:
    """Product of `factors`, multiplying neighbours pairwise until one is left."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1
