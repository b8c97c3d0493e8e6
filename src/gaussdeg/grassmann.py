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
instead: a few factorials and one checked division beat the loop over the
primes there.  `partitions.syt_count_hook`, the general O(rows^2)
counter, is the test oracle of both.

A sweep over m keeps k + c fixed, and `grassmann_degree_sweep` steps from
one rectangle to the next: by that product form, D(k+1, c-1) is D(k, c)
times ((k+1)(c-1))!/(kc)! * k!/(c-1)!, a ratio of two short products.
"""

from dataclasses import dataclass
from itertools import compress
from math import factorial, gcd, inf, isqrt, lgamma, log, perm, prod

from .partitions import exact_quotient

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
    the product form below that size, raises ArithmeticError: the count
    did not come out integral.  A rectangle of at most one row or
    column has one tableau: G is then a point (d = 0 or d = r), a
    projective space or its dual, of degree 1, and no sieve is built.
    """
    k, c = shape.d, shape.r - shape.d
    if min(k, c) <= 1:
        return 1
    cells, what = k * c, f"tableau count of the {k} x {c} rectangle"
    if cells < PRIME_POWER_CELLS:
        a, b = sorted((k, c))
        return exact_quotient(
            factorial(cells) * prod(map(factorial, range(a))),
            prod(factorial(b + i) for i in range(a)),
            what,
        )
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
            raise ArithmeticError(f"{what} did not come out integral")
        powers.append(p**exponent)
    return _balanced_product(powers)


def degree_digits(shape: GrassmannShape, limit: float = inf) -> float:
    """Estimated decimal digits of `grassmann_degree(shape)`, in floats.

    By the product form, log deg G(k, c) = lgamma(kc+1) + sum_{i<a}
    [lgamma(i+1) - lgamma(b+i+1)], a = min(k, c), b = max(k, c), taken as
    log deg G(i, b) for i = 2..a in turn (one row or none has degree 1).
    These rise with i, so the loop stops once past `limit` digits and
    returns that lower bound: at most O(a) steps.  Two rows or more whose
    sizes pass the float range estimate as inf.
    """
    a, b = sorted((shape.d, shape.r - shape.d))
    log_g, ln10 = 0.0, log(10)
    try:
        partial = -lgamma(b + 1) if a > 1 else 0.0  # the i = 0 term
        for i in range(2, a + 1):
            partial += lgamma(i) - lgamma(b + i)
            log_g = lgamma(i * b + 1) + partial
            if log_g > limit * ln10:
                break
    except OverflowError:
        return inf
    return log_g / ln10


def grassmann_degree_sweep(r: int):
    """deg G(k, r) for k = 0..r-1, in order: the k x (r-k) rectangles' tableau counts.

    Starts at D(0, r) = 1 and takes each next count from the last by one
    `_sweep_factor`, whose denominator must divide the running count (an
    `exact_quotient`).  No sieve and no prime-power product: each step costs
    one division and one multiplication of the count by a short integer.
    """
    degree = 1
    for k in range(r):
        if k:
            num, den = _sweep_factor(k - 1, r - k + 1)
            what = f"tableau count of the {k} x {r - k} rectangle"
            degree = exact_quotient(degree, den, what) * num
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
