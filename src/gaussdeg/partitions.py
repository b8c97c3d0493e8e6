"""Integer partitions and standard Young tableau counting.

Partitions are plain tuples of weakly decreasing non-negative integers.
The canonical form carries no trailing zeros; formulas that index parts up
to a declared length work against the zero-padded view returned by `pad`.
All arithmetic is exact.
"""

from functools import lru_cache
from itertools import islice
from math import factorial, perm, prod

Partition = tuple[int, ...]

DEFAULT_BRUTE_CAP = 12
MAX_PARTITIONS = 10**6  # terms of a partition sum; p(61) is the first count past it
# canonical shapes whose tableau counts `syt_count_hook` keeps; a seeded
# `small_mixed` benchmark run asks for 857 distinct ones
HOOK_CACHE_SIZE = 4096


def canonical(parts) -> Partition:
    """Validate weak decrease and non-negativity, strip trailing zeros."""
    lam = tuple(int(p) for p in parts)
    if lam and lam[-1] < 0:
        raise ValueError(f"negative part in {lam}")
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {lam}")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


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

    Stops at the first count past the bound, so any n costs at most p(61).
    """
    counts = islice(partition_counts(), max(n + 1, 0))
    if any(count > MAX_PARTITIONS for count in counts):
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
    (lam_1 + width, ..., lam_height + width), canonicalized.
    """
    if height < 0 or width < 0:
        raise ValueError("rectangle sides must be non-negative")
    padded = pad(lam, height)
    return canonical(tuple(part + width for part in padded))


def syt_count_hook(lam) -> int:
    """Number of standard Young tableaux of shape `lam`.

    Closed product form: |lam|! times the product of part differences
    (lam_i - lam_j + j - i) over i < j, divided by the product of
    (lam_i + e - i)! where e is the number of parts.  The value does not
    change when zero parts are appended; the empty shape counts 1.
    Validates `lam` on every call, then reads the count from a cache of
    the HOOK_CACHE_SIZE canonical shapes used most recently.
    """
    return _syt_count_hook(canonical(lam))


@lru_cache(maxsize=HOOK_CACHE_SIZE)
def _syt_count_hook(lam: Partition) -> int:
    """`syt_count_hook` of a canonical shape."""
    e = len(lam)
    num = factorial(weight(lam))
    for i in range(e):
        for j in range(i + 1, e):
            num *= lam[i] - lam[j] + j - i
    den = 1
    for i in range(e):
        den *= factorial(lam[i] + e - 1 - i)
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"tableau count for {lam} did not come out integral")
    return count


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
