"""Integer partitions and standard Young tableau counting.

Partitions are plain tuples of weakly decreasing non-negative integers.
The canonical form carries no trailing zeros; formulas that index parts up
to a declared length work against the zero-padded view returned by `pad`.
All arithmetic is exact.
"""

from functools import lru_cache
from itertools import accumulate, compress, groupby, islice, repeat, zip_longest
from math import factorial, inf, isqrt, lgamma, log, perm, prod
from operator import lt

Partition = tuple[int, ...]

DEFAULT_BRUTE_CAP = 12
MAX_PARTITIONS = 10**6  # terms of a partition sum; p(61) is the first count past it
# canonical shapes whose tableau counts `syt_count_hook` keeps; a seeded
# `small_mixed` benchmark run asks for 857 distinct ones
HOOK_CACHE_SIZE = 4096
# ln of Glaisher's constant A, the constant term of ln prod_{d<=n} d^d
_LOG_GLAISHER = 0.2487544770337843
# Below this many cells the hooks multiplied block by block and one division
# beat the prime powers on every shape measured.  They cross near 1,000 cells
# for a staircase (a block per cell), between 1,200 and 1,600 for squares,
# ten-row rectangles, (2, 1^k) and shapes plus a rectangle, and near 2,000 for
# the hook (k, 1^k) (CPython 3.11, shared 2-core x86-64).
PRIME_POWER_CELLS = 800
# Longest integer an error message prints in decimal: CPython refuses str()
# past 4,300 digits by default, and 13,000 bits is about 3,900 digits.
_MESSAGE_BITS = 13_000


def canonical(parts) -> Partition:
    """Validate weak decrease and non-negativity, strip trailing zeros."""
    lam = tuple(map(int, parts))
    if lam and lam[-1] < 0:
        raise ValueError(f"negative part in {lam}")
    if any(map(lt, lam, lam[1:])):
        raise ValueError(f"parts not weakly decreasing: {lam}")
    return _strip_zeros(lam)


def _strip_zeros(lam: Partition) -> Partition:
    """A weakly decreasing, non-negative `lam` without its trailing zeros."""
    return lam[: lam.index(0)] if lam and not lam[-1] else lam


def exact_quotient(num: int, den: int, what: str, *args) -> int:
    """num // den, which the theory promises exact: a remainder raises ArithmeticError.

    The message names `what`, %-formatted with `args` only when it is
    raised, an int argument through `_message_int`, so a hot loop builds
    no message for a division that is exact.
    """
    quotient, rem = divmod(num, den)
    if rem:
        if args:
            what %= tuple(_message_int(arg) if isinstance(arg, int) else arg for arg in args)
        raise ArithmeticError(f"{what} did not come out integral")
    return quotient


def _message_int(value: int) -> str:
    """`value` in decimal, or its size when the decimal would be too long."""
    if value.bit_length() <= _MESSAGE_BITS:
        return str(value)
    return f"an integer of {value.bit_length():,} bits"


def pad(lam, length: int) -> Partition:
    """Zero-padded view with exactly `length` parts."""
    lam = canonical(lam)
    if len(lam) > length:
        raise ValueError(f"{lam} has more than {length} nonzero parts")
    return lam + (0,) * (length - len(lam))


def weight(lam) -> int:
    return sum(lam)


def enumerate_partitions(total: int, max_parts: int) -> list[Partition]:
    """All partitions of `total` into at most `max_parts` parts.

    Reverse-lexicographic order: (total,) first when it fits, the flattest
    admissible shape last.  enumerate_partitions(0, k) == [()] for any k.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if max_parts < 0:
        raise ValueError("max_parts must be non-negative")
    out: list[Partition] = []
    prefix: list[int] = []

    def descend(remaining: int, largest: int, slots: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for part in range(min(remaining, largest), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, slots - 1)
            prefix.pop()

    descend(total, total, max_parts)
    return out


def partition_counts():
    """p(0), p(1), p(2), ... without end, by Euler's pentagonal-number recurrence.

    p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)),
    about k^1.5 additions up to p(k) where enumerating the partitions takes
    p(k) steps.  The counts never decrease, so a caller asking only whether
    p(n) passes a bound can stop at the first count that does.
    """
    counts = [1]
    yield 1
    while True:
        k = len(counts)
        total = 0
        j = 1
        while (pentagonal := j * (3 * j - 1) // 2) <= k:
            sign = 1 if j % 2 else -1
            total += sign * counts[k - pentagonal]
            if pentagonal + j <= k:
                total += sign * counts[k - pentagonal - j]
            j += 1
        counts.append(total)
        yield total


def check_partition_terms(n: int) -> None:
    """Raise ValueError when n has over MAX_PARTITIONS partitions, one term each.

    Stops at n or at the first count past the bound, so any n costs at most p(61).
    """
    counts = zip(range(n + 1), partition_counts())
    if any(count > MAX_PARTITIONS for _, count in counts):
        raise ValueError(
            f"too large: n = {n} has over {MAX_PARTITIONS:,} partitions, one term each"
        )


def partition_count(n: int) -> int:
    """Number p(n) of partitions of n, the n-th of `partition_counts`."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return next(islice(partition_counts(), n, None))


def add_rectangle(lam, height: int, width: int) -> Partition:
    """Add `width` cells to each of the first `height` rows.

    `lam` must fit in `height` rows; the result is the partition
    (lam_1 + width, ..., lam_height + width), canonicalized.  `lam` is
    validated once, by `pad`: a positive width leaves no zero part.
    """
    if height < 0 or width < 0:
        raise ValueError("rectangle sides must be non-negative")
    padded = pad(lam, height)
    if not width:
        return _strip_zeros(padded)
    return tuple(part + width for part in padded)


def syt_count_hook(lam) -> int:
    """Number of standard Young tableaux of shape `lam`; the empty shape counts 1.

    Validates `lam` on every call, then reads `syt_count_canonical` of the
    canonical shape from a cache of the HOOK_CACHE_SIZE used most recently.
    """
    return _syt_count_hook(canonical(lam))


def syt_count_canonical(lam: Partition) -> int:
    """Tableau count of a canonical shape, neither validated nor cached.

    The hook length formula (Frame-Robinson-Thrall), f = |lam|! over the
    product of the hooks, in Frobenius-Young form
    f = |lam|! prod_{i<j} (l_i - l_j) / prod_i l_i!, where
    l_i = lam_i + e - 1 - i is the hook of the first cell of row i < e.
    One row or one column counts 1 at once.  Below PRIME_POWER_CELLS cells
    the hooks are multiplied block by block and divided into |lam|! once;
    from there on the count is a product of prime powers.  A count that is
    not integral raises ArithmeticError.
    """
    if len(lam) <= 1 or lam[0] == 1:
        return 1
    count = _count_by_division if weight(lam) < PRIME_POWER_CELLS else _count_by_prime_powers
    return count(lam)


def _count_by_division(lam: Partition) -> int:
    """`syt_count_canonical` as |lam|! over the product of the hooks, block by block.

    The runs of equal parts cut the rows, and the runs of equal column
    lengths the columns, into r(r+1)/2 blocks for r runs.  In a block of k
    rows and w columns the hooks are d + i + j (i < k, j < w), d the hook
    of its bottom right cell, so they multiply to
    prod_{i<s} (d+i+t-1)! / (d+i-1)!, s and t the lesser and greater of k
    and w: s calls of `perm`.  The product never passes |lam|!, where
    prod l_i! and the row differences grow with the rows squared.
    The runs go bottom up.  Each meets the column blocks of itself and of
    every run below, kept as (l of that run's lowest row, block width), and
    d is 1 plus the difference of the two runs' l.
    """
    hooks, below, part_below, columns = 1, 0, 0, []
    for part, group in groupby(reversed(lam)):
        rows = len(list(group))
        columns.append((part + below, part - part_below))
        for ell, width in columns:
            short, long = (rows, width) if rows < width else (width, rows)
            first = part + below - ell + long  # d + t - 1
            if short == 1:  # most blocks of a small shape: one call, no map
                hooks *= perm(first, long)
            else:
                hooks *= prod(map(perm, range(first, first + short), repeat(long)))
        below += rows
        part_below = part
    return exact_quotient(factorial(weight(lam)), hooks, "tableau count for %s", lam)


def _count_by_prime_powers(lam: Partition) -> int:
    """`syt_count_canonical` of |lam| >= 1 cells as a product of prime powers p^x.

    x is Legendre's exponent of p in |lam|! less that in the hooks, whose
    multiplicities `_hook_mults` gives up to the largest hook l_1.  A prime
    p > l_1 divides no hook, and as l_1 >= sqrt(|lam|) its x is |lam| // p:
    those primes go in blocks, one product per value k of |lam| // p.
    `_power_product` multiplies the powers.
    """
    cells, top = weight(lam), lam[0] + len(lam) - 1
    mults, sieve = _hook_mults(lam), _prime_sieve(cells)
    powers = []
    for p in compress(range(top + 1), sieve[: top + 1]):
        exponent, q = 0, p
        while q <= cells:
            exponent += cells // q - sum(mults[q::q])
            q *= p
        if exponent < 0:
            raise ArithmeticError(f"tableau count for {lam} did not come out integral")
        if exponent:
            powers.append((p, exponent))
    for k in range(1, cells // (top + 1) + 1):
        # the primes p > l_1 with |lam| // p == k
        low, high = max(cells // (k + 1), top) + 1, cells // k
        block = compress(range(low, high + 1), sieve[low : high + 1])
        powers.append((_balanced_product(list(block)), k))
    return _power_product(powers)


def _hook_mults(lam: Partition) -> list[int]:
    """mults[h], h = 1..l_1: rows with l_i >= h less row pairs with l_i - l_j = h.

    Each run of `_runs` adds a ramp (its rows leave the count one by one)
    and a triangle (its own pairs), and each pair of runs a trapezoid (the
    differences of two ranges).  These are written as second differences
    and summed by two `accumulate` passes: O(runs^2 + l_1) where the row
    pairs cost O(rows^2).  mults[0] is 0.
    """
    rows, top = len(lam), lam[0] + len(lam) - 1
    diff2 = [0] * (top + 3)
    diff2[1], diff2[2] = rows, -rows
    above: list[tuple[int, int]] = []  # (lowest l_i, rows) of the runs above
    for high, length in _runs(lam):
        low = high - length + 1
        # its rows: row i leaves the count from h = l_i + 1 on
        diff2[low + 1] -= 1
        diff2[high + 2] += 1
        # its own pairs: difference d = 1..length-1, length - d times
        diff2[1] -= length - 1
        diff2[2] += length
        diff2[length + 1] -= 1
        # its pairs with each run above: differences from `least` on
        for other_low, other_length in above:
            least = other_low - high
            diff2[least] -= 1
            diff2[least + other_length] += 1
            diff2[least + length] += 1
            diff2[least + other_length + length] -= 1
        above.append((low, length))
    return list(accumulate(accumulate(diff2[: top + 1])))


def _runs(lam: Partition):
    """(highest l_i, rows) of each run of equal parts of `lam`, top run first.

    The l_i of a run are consecutive: highest l_i - rows + 1 up to it.
    """
    start = 0
    for part, group in groupby(lam):
        length = len(list(group))
        yield part + len(lam) - 1 - start, length
        start += length


_syt_count_hook = lru_cache(maxsize=HOOK_CACHE_SIZE)(syt_count_canonical)


def _prime_sieve(n: int) -> bytearray:
    """n + 1 bytes, byte p set exactly when p is prime (n >= 1)."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)  # 0 and 1 are not prime
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sieve


def _balanced_product(factors: list[int]) -> int:
    """Product of `factors`, multiplying neighbours pairwise until one is left."""
    while len(factors) > 1:
        factors = [a * b for a, b in zip_longest(factors[::2], factors[1::2], fillvalue=1)]
    return factors[0] if factors else 1


def _power_product(powers: list[tuple[int, int]]) -> int:
    """prod b^e over the (b, e) of `powers`, e >= 0, one squaring per bit of e.

    From the highest bit down: result <- result^2 times the product of the
    bases whose exponent has that bit set.
    """
    result = 1
    for bit in reversed(range(max((e for _, e in powers), default=0).bit_length())):
        result = result * result * _balanced_product([b for b, e in powers if e >> bit & 1])
    return result


def syt_count_digits(lam: Partition, limit: float = inf) -> float:
    """Estimated decimal digits of the tableau count of canonical `lam`, in floats.

    ln f = ln |lam|! - sum_i ln l_i! + sum_{i<j} ln(l_i - l_j), taken run by
    run of `_runs`: over one run, or a pair of runs, each sum is a
    difference of `_log_superfactorial`s, so nothing l_1 long is built.
    The pair terms are positive and come last, so the loop over pairs of
    runs stops once past `limit` digits and returns that lower bound.  One
    row or one column counts 1 at once; over 500-bit shapes estimate as inf.
    """
    if len(lam) <= 1 or lam[0] == 1:
        return 0.0
    cells = weight(lam)
    if cells >> 500:
        return inf
    runs = list(_runs(lam))
    log_f = lgamma(cells + 1) + sum(
        _log_superfactorial(high - length) - _log_superfactorial(high)
        + _log_superfactorial(length - 1)  # the run's own pairs
        for high, length in runs
    )
    bound = limit * log(10)
    for i, (high, length) in enumerate(runs):
        low = high - length + 1
        for other_high, other_length in runs[i + 1 :]:
            other_low = other_high - other_length + 1
            log_f += (
                _log_superfactorial(high - other_low)
                - _log_superfactorial(low - other_low - 1)
                - _log_superfactorial(high - other_high - 1)
                + _log_superfactorial(low - other_high - 2)
            )
        if log_f > bound:
            break
    return log_f / log(10)


def _log_superfactorial(n: int) -> float:
    """sum_{x<=n} ln x! = (n + 1) ln n! - sum_{d<=n} d ln d, 0 for n < 2.

    The second sum is ln of the hyperfactorial, by its asymptotic series
    (n^2/2 + n/2 + 1/12) ln n - n^2/4 + ln A + 1/(720 n^2), A Glaisher's
    constant: within 1e-6 from n = 2 on.
    """
    if n < 2:
        return 0.0
    log_hyper = (n * n / 2 + n / 2 + 1 / 12) * log(n) - n * n / 4 + _LOG_GLAISHER
    return (n + 1) * lgamma(n + 1) - log_hyper - 1 / (720 * n * n)


def syt_count_bruteforce(lam, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Count standard Young tableaux as paths in Young's lattice.

    A standard filling of `lam` places 1, 2, ..., |lam| one cell at a
    time, each value at a cell that keeps rows and columns strictly
    increasing, so the cells holding 1..k always form a sub-diagram of
    `lam`.  The count keeps, for every sub-diagram of k cells, the number
    of fillings that reach it, and grows the sub-diagrams by one cell per
    placed value.  It never uses the product formula.  The work is about
    |lam| times the rows times the sub-diagrams of one size, so `cap`
    bounds the weight of the shape.
    """
    lam = canonical(lam)
    n = weight(lam)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n > cap:
        raise ValueError(f"|lam| = {n} exceeds brute-force cap {cap}")
    rows = len(lam)
    # cells filled per row -> number of ways to place 1..k in exactly them
    layer = {(0,) * rows: 1}
    for _ in range(n):
        grown: dict[Partition, int] = {}
        for filled, ways in layer.items():
            for i in range(rows):
                # a new cell at (i, filled[i]) is admissible iff the row still
                # has room and the cell above it is already occupied
                if filled[i] < lam[i] and (i == 0 or filled[i - 1] > filled[i]):
                    key = filled[:i] + (filled[i] + 1,) + filled[i + 1 :]
                    grown[key] = grown.get(key, 0) + ways
        layer = grown
    # the only sub-diagram of lam with |lam| cells is lam itself
    return layer[lam]


def falling_factorial_product(n: int, lam) -> int:
    """Product over rows i = 1, 2, ... of (n+i)! / (n+i-lam_i)!.

    Every part must satisfy lam_i <= n+i, which holds whenever |lam| <= n;
    zero parts contribute 1.
    """
    return prod(perm(n + i, part) for i, part in enumerate(lam, start=1))
