"""Integer partitions and standard Young tableau counting.

Partitions are plain tuples of weakly decreasing non-negative integers.
The canonical form carries no trailing zeros; formulas that index parts up
to a declared length work against the zero-padded view returned by `pad`.
All arithmetic is exact.  Every other module imports this one, so it also
holds the one store of values the process keeps, `KEPT` (the tableau counts
below PRIME_POWER_CELLS cells among them), and the kinds a long count
takes, `Count`: an int or, past `DECIMAL_BITS` (`as_count`, the one rule),
an integral `decimal.Decimal` under `EXACT`.  Multiplying and
exactly dividing by short integers costs O(digits) in either base, and only
base 10 prints in O(digits): CPython's `str()` of an int is quadratic and
refused past 4,300 digits.  This is the one module that imports `decimal`;
a count of either kind is worked by `count_divmod`, `count_multiply` and
`count_fma`, which enter no context, and sized by `count_digits`.
"""

from _thread import allocate_lock
from bisect import bisect_right
from collections import OrderedDict, deque
from collections.abc import Iterator
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
from itertools import accumulate, compress, count, groupby, islice, repeat
from math import factorial, inf, isqrt, lgamma, log, log1p, perm, pi, prod
from operator import index, lt
from types import MappingProxyType

Partition = tuple[int, ...]

DEFAULT_BRUTE_CAP = 12
MAX_PARTITIONS = 10**6  # terms of a partition sum; p(61) is the first count past it
# The switch between the hooks multiplied block by block with one division
# and the prime powers, with the primes read from the kept list (best of 9,
# CPython 3.11, shared 2-core x86-64).  On rectangles of 3 to 28 rows the two
# tie at 600 cells (33-35 us against 31-42 us); at 700-800 the prime powers
# win (39-57 us against 47-63 us) but on three rows, where they tie, and at
# 900 they take 46-62 us against 79-84 us.  Shapes plus a rectangle cross
# near 600 cells and staircases below it, but (2, 1^k) crosses between 800
# and 1,000 and the hook (k, 1^k) between 1,500 and 2,000: at 800 cells the
# hook divides in 75 us and takes 178 us as prime powers.  So the switch
# stays at 800, below which counts are also kept in `KEPT`.
PRIME_POWER_CELLS = 800
# Blocks of hooks with a side of at most this many cells are summed along
# that side, an lgamma pair a step; any other block is priced by Barnes G
_DIRECT_SIDE = 16
# ln G(z) for z <= _LOG_G_TABLE as prefix sums of lgamma, G(z+1) = G(z) Gamma(z)
# (index 0 unused); from there on ln G is read off its asymptotic expansion
_LOG_G_TABLE = 40
_LOG_G = [0.0, 0.0, *accumulate(map(lgamma, range(1, _LOG_G_TABLE)))]
_HALF_LOG_2PI = log(2 * pi) / 2
# Longest integer an error message prints in decimal: CPython refuses str()
# past 4,300 digits by default, and 13,000 bits is about 3,900 digits.
_MESSAGE_BITS = 13_000
# Longest text of any other argument an error message echoes whole; CPython's
# own int() message stops at 200 characters.
_MESSAGE_CHARS = 200
# Most primes `_balanced_product` hands to one C-level `prod`: from 16 to 64
# its time fell by a tenth on the ladder's groups, and past 64 barely moved
_CHUNK = 64
# Bytes the process keeps across calls (`KEPT`): a `table_sweep` round's seven
# fixed sweeps charge 1.38 M and each curve 0.14-0.40 M, so a round and the
# next round's two curves fit (at 2 M, 0-5 of the seven went before reuse)
KEPT_BYTES = 3_000_000
# Bytes charged a kept integer beyond its bits (`charge`): a `sys.getsizeof`
# walk finds 100-170, in a table with its plan and in the alternate weights
_INTEGER_BYTES = 150
_PRIME_BYTES = 36  # a kept prime: a small int and its slot in the list
# Past this many bits a long count turns into a Decimal (`as_count`).  Every
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

# A long count: an int, or past `DECIMAL_BITS` an integral Decimal.
Count = int | Decimal


def canonical(parts) -> Partition:
    """Validate weak decrease and non-negativity, strip trailing zeros; parts read by `index`."""
    lam = tuple(map(index, parts))
    if lam and lam[-1] < 0:
        raise ValueError(message("negative part in %s", lam))
    if any(map(lt, lam, lam[1:])):
        raise ValueError(message("parts not weakly decreasing: %s", lam))
    return _strip_zeros(lam)


def _integers(names: str, *values) -> tuple[int, ...]:
    """`values` read by `operator.index`, none a bool, or ValueError "<names> must be integers"."""
    if bool not in map(type, values):
        try:
            return tuple(map(index, values))
        except TypeError:
            pass
    raise ValueError(f"{names} must be integers")


def _strip_zeros(lam: Partition) -> Partition:
    """A weakly decreasing, non-negative `lam` without its trailing zeros."""
    return lam[: lam.index(0)] if lam and not lam[-1] else lam


def as_count(count: Count) -> Count:
    """`count`, but an int past `DECIMAL_BITS` bits as its equal integral Decimal."""
    if type(count) is int and count.bit_length() > DECIMAL_BITS:
        return Decimal(count)
    return count


def count_divmod(count: Count, den: int) -> tuple[Count, int]:
    """(count // den, count % den), den > 0: the quotient of `count`'s kind, the rest an int."""
    if type(count) is Decimal:
        quotient, rest = EXACT.divmod(count, den)
        return quotient, int(rest)
    return divmod(count, den)


def count_multiply(count: Count, factor: int) -> Count:
    """count * factor, of `count`'s kind."""
    return EXACT.multiply(count, factor) if type(count) is Decimal else count * factor


def count_fma(count: Count, factor: int, addend: int) -> Count:
    """count * factor + addend, of `count`'s kind: one fused multiply-add for a Decimal."""
    return EXACT.fma(count, factor, addend) if type(count) is Decimal else count * factor + addend


def count_digits(count: Count) -> int:
    """The decimal digits of a count >= 1, from its size: exact for a Decimal.

    For an int, bits * 30,103 // 10^5 + 1: 30,103 / 10^5 exceeds log10(2)
    by under 5 x 10^-9 a bit, so it is never short, and below 10^8 bits at
    most one over.
    """
    if type(count) is int:
        return count.bit_length() * 30_103 // 100_000 + 1
    return count.adjusted() + 1


def exact_quotient(num: Count, den: int, what: str, *args) -> Count:
    """num // den, which the theory promises exact: a remainder raises ArithmeticError.

    The message names `message(what, *args)`, built only when it is
    raised, so a hot loop builds no message for a division that is exact.
    The division is `count_divmod`'s, so a count keeps its kind.
    """
    quotient, rem = count_divmod(num, den)
    if rem:
        raise ArithmeticError(message(what, *args) + " did not come out integral")
    return quotient


def integer(text: str) -> int:
    """An integer as the package reads one from text: ASCII `-?[0-9]+`, nothing else.

    The type of every integer option of `cli`, of each number of its ranges,
    shapes and brute-force cap, and of a table file's integrals
    (`schur.SegreIntegralTable.from_json`).  `int()` alone would also take
    spaces, '_', '+' and non-ASCII digits, so `--n 1_0` would be read as 10.
    Two string tests, not a regex match: it runs for every integer option
    of every command.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(message("expected an integer of ASCII digits, got %r", text))
    return int(text)


def message(template: str, *args) -> str:
    """`template` %-formatted with `args`: how every error message writes its values.

    An int is written by `_message_int`; any other argument, a Decimal
    included, is echoed by `_Echo`.  A sweep's long Decimals reach no
    message: a row with no degree is named by its S, an int
    (`schur.TermPlan.row`).
    """
    args = tuple(_message_int(arg) if isinstance(arg, int) else _Echo(arg) for arg in args)
    return template % args


def _message_int(value: int) -> str:
    """`value` in decimal, or its size when the decimal is too long or refused."""
    if value.bit_length() <= _MESSAGE_BITS:
        try:
            return str(value)
        except ValueError:  # the interpreter's digit limit is set below its default
            pass
    return f"an integer of {value.bit_length():,} bits"


class _Echo:
    """Any other message argument: its %s or %r text, cut to a prefix and its length."""

    def __init__(self, arg):
        self.arg = arg

    def __str__(self) -> str:
        return self._cut(str(self.arg))

    def __repr__(self) -> str:
        return self._cut(repr(self.arg))

    def _cut(self, text: str) -> str:
        if len(text) <= _MESSAGE_CHARS:
            return text
        size = len(self.arg) if hasattr(self.arg, "__len__") else len(text)
        return f"{text[:_MESSAGE_CHARS]}... ({type(self.arg).__name__} of length {size:,})"


class Numeral(str):
    """`str()` of an int, Decimal or Fraction: `Numeral(value)` is that text, marked.

    Such text holds no quote, backslash, control or non-ASCII character, so
    JSON writes it as it is: `cli`'s JSON writer quotes it without escaping
    it character by character, and its CSV writer joins a column of them
    without scanning it for a character to quote.
    """


class Record:
    """A frozen record of named fields: what `dataclass(frozen=True)` gave the package's records.

    A subclass names its fields, in order, in `_fields`; its `__init__`
    checks them and stores them by name with `_set`, past `__setattr__`.
    Records of one class are equal when their fields are, and equal
    records hash equal: a field that is a read-only mapping hashes as the
    frozenset of its items.  The repr is the dataclass's,
    `Name(field=value, ...)`.  Setting or deleting an attribute raises
    `dataclasses.FrozenInstanceError`, whose module is imported then; a
    `functools.cached_property` writes the instance's `__dict__` itself
    and still works.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        vars(self).update(fields)

    def _values(self) -> tuple:
        fields = vars(self)
        return tuple([fields[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(tuple([
            frozenset(value.items()) if type(value) is MappingProxyType else value
            for value in self._values()
        ]))

    def __repr__(self) -> str:
        fields = [f"{name}={value!r}" for name, value in zip(self._fields, self._values())]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Store:
    """Values kept for the life of the process by (kind, key...), least recently used first.

    Each value is a pure function of its key, charged in bytes by its maker
    from sizes it already has.  `keep` keeps nothing charged past KEPT_BYTES
    alone, and evicts the least recently used until the total is at most
    KEPT_BYTES.  Every change to the map and its total, a read's move to most
    recently used included, is made under `_lock`; values are made outside
    it, since making a sweep reads its table through the store.
    """

    def __init__(self):
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()  # key -> (value, charge)
        self._lock = allocate_lock()
        self.total = 0

    def get(self, key: tuple):
        """The value kept under `key`, now the most recently used, or None; under `_lock`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        return entry[0]

    def keep(self, key: tuple, value, charge: int) -> None:
        """Keep `value` under `key` as the most recently used, if `charge` fits the budget."""
        if charge > KEPT_BYTES:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            self.total += charge - (old[1] if old else 0)
            self._entries[key] = value, charge
            while self.total > KEPT_BYTES:
                self.total -= self._entries.popitem(last=False)[1][1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.total = 0


KEPT = Store()


def charge(integers: list[int]) -> int:
    """The bytes `KEPT` charges a value of these integers: bits / 8, plus _INTEGER_BYTES each."""
    return sum(map(int.bit_length, integers)) // 8 + _INTEGER_BYTES * len(integers)


def pad(lam, length: int) -> Partition:
    """Zero-padded view with exactly `length` parts."""
    lam = canonical(lam)
    if len(lam) > length:
        raise ValueError(message("%s has more than %s nonzero parts", lam, length))
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


# The largest n of at most MAX_PARTITIONS partitions: 60
MAX_PARTITION_N = next(n for n, p in enumerate(partition_counts()) if p > MAX_PARTITIONS) - 1


def check_partition_terms(n: int) -> None:
    """Raise ValueError when n has over MAX_PARTITIONS partitions, one term each.

    One comparison with MAX_PARTITION_N, so any n, however large, costs O(1).
    """
    if n > MAX_PARTITION_N:
        raise ValueError(
            message(f"too large: n = %s has over {MAX_PARTITIONS:,} partitions, one term each", n)
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

    Validates `lam` on every call, then counts the canonical shape by
    `syt_count`, the one counting path.
    """
    return syt_count(canonical(lam))


def syt_count(lam: Partition) -> int:
    """Tableau count of the canonical shape `lam`, not validated: the one counting path.

    The hook length formula (Frame-Robinson-Thrall), f = |lam|! over the
    product of the hooks, read off the blocks of `_hook_blocks`.  One row
    or one column counts 1 at once.  One switch picks kernel and keeping:
    below PRIME_POWER_CELLS cells the count is `_count_by_division`, kept in
    `KEPT` under ("count", lam) and charged as an integer plus 8 bytes a
    part (its slot in the key), so the store holds no count past 799!,
    1,974 digits.  From there on it is `_count_by_prime_powers`, formed on
    every call and never kept.  A count that is not integral raises
    ArithmeticError.
    """
    if len(lam) <= 1 or lam[0] == 1:
        return 1
    if weight(lam) < PRIME_POWER_CELLS:
        key = "count", lam
        count = KEPT.get(key)
        if count is None:
            count = _count_by_division(lam)
            KEPT.keep(key, count, charge((count,)) + 8 * len(lam))
        return count
    return _count_by_prime_powers(lam)


def _count_by_division(lam: Partition) -> int:
    """`syt_count` as |lam|! over the product of the hooks, block by block.

    A block of `_hook_blocks`, k rows by w columns of hooks d + i + j,
    multiplies to prod_{i<s} (d+i+t-1)! / (d+i-1)!, s and t the lesser and
    greater of k and w: s calls of `perm`.  The product never passes |lam|!.
    """
    hooks = 1
    for rows, corner, columns in _hook_blocks(_bottom_runs(lam)):
        for ell, width in columns:
            short, long = (rows, width) if rows < width else (width, rows)
            first = corner - ell + long - 1
            if short == 1:  # most blocks of a small shape: one call, no map
                hooks *= perm(first, long)
            else:
                hooks *= prod(map(perm, range(first, first + short), repeat(long)))
    return exact_quotient(factorial(weight(lam)), hooks, "tableau count for %s", lam)


def _count_by_prime_powers(lam: Partition) -> int:
    """`syt_count` of |lam| >= 1 cells as a product of prime powers p^x.

    x is Legendre's exponent of p in |lam|! less that in the hooks, whose
    multiplicities `_hook_mults` gives up to the largest, l_1 = lam_1 + e - 1
    for e rows.  A prime p > l_1 divides no hook, and as l_1 >= sqrt(|lam|)
    its x is |lam| // p: those primes go in blocks, one slice of the prime
    list per value k of |lam| // p, cut by bisection.  For p <= l_1,
    Legendre's loop sums the multiplicities of the multiples of p^j only
    while p^j <= l_1, and adds |lam| // p^j alone from there.  `_primes`
    gives the primes up to |lam|, from the list the process keeps, and
    `_power_product` multiplies the powers.
    """
    cells, top = weight(lam), lam[0] + len(lam) - 1
    mults, primes = _hook_mults(lam), _primes(cells)
    small = bisect_right(primes, top)
    powers = []
    for p in primes[:small]:
        exponent, q = 0, p
        while q <= top:
            exponent += cells // q - sum(mults[q::q])
            q *= p
        while q <= cells:  # no hook is a multiple of q > l_1
            exponent += cells // q
            q *= p
        if exponent < 0:
            raise ArithmeticError(message("tableau count for %s did not come out integral", lam))
        if exponent:
            powers.append(([p], exponent))
    high = len(primes)
    for k in range(1, cells // (top + 1) + 1):
        # the primes p > l_1 with |lam| // p == k, just below the block of k - 1
        low = bisect_right(primes, cells // (k + 1), small)
        powers.append((primes[low:high], k))
        high = low
    return _power_product(powers)


def _hook_mults(lam: Partition) -> list[int]:
    """mults[h], h = 0..l_1: the cells of `lam` whose hook is h (mults[0] = 0).

    In a block of `_hook_blocks` with k rows and w columns, hook d + s
    stands on the min(s+1, k, w, k+w-1-s) cells with i + j = s: a
    trapezoid, whose second differences are +1 at d and d + k + w and -1
    at d + k and d + w.  Two `accumulate` passes sum them: O(blocks + l_1).
    """
    top = lam[0] + len(lam) - 1
    diff2 = [0] * (top + 3)
    for rows, corner, columns in _hook_blocks(_bottom_runs(lam)):
        for ell, width in columns:
            d = corner - ell
            diff2[d] += 1
            diff2[d + rows] -= 1
            diff2[d + width] -= 1
            diff2[d + rows + width] += 1
    return list(accumulate(accumulate(diff2[: top + 1])))


def _bottom_runs(lam: Partition):
    """(part, rows) of each run of equal parts of `lam`, bottom run first."""
    return ((part, len(list(group))) for part, group in groupby(reversed(lam)))


def _hook_blocks(runs):
    """(rows, corner, columns) for each run of `runs`, each read before the next: a shape in blocks.

    `runs` are the runs of equal parts as (part, rows), bottom run first.
    A run's rows meet the column block of itself and of each run below, so
    r runs make r(r+1)/2 blocks.  A block of k rows and w columns holds the
    hooks d + i + j (i < k up from its bottom row, j < w left from its right
    column); its bottom right cell's hook is d = corner - ell, where corner
    is 1 + part + below for the run's part and the rows below it, and
    (ell, w) is the block's entry of `columns`: part' + below' and the
    width of the run it takes its columns from.  `columns` is one list,
    grown by an entry per run, so a caller reads it before the next run;
    one that keeps a run's columns copies them.
    """
    below, part_below, columns = 0, 0, []  # columns: (part + below of a run, width)
    for part, rows in runs:
        columns.append((part + below, part - part_below))
        yield rows, part + below + 1, columns
        below += rows
        part_below = part


def _primes(n: int) -> list[int]:
    """The primes up to n, in order: a new list, cut from the one the process keeps.

    The list and its bound, a power of two, are kept together in `KEPT`,
    charged _PRIME_BYTES a prime: 0.44 MB up to 2^17, and past 2^20 no list
    fits.  A call past the bound sieves once, up to the next power of two.
    """
    bound, primes = KEPT.get(("primes",)) or (1, [])
    if n > bound:
        bound = 1 << (n - 1).bit_length()
        primes = _sieve(bound)
        KEPT.keep(("primes",), (bound, primes), _PRIME_BYTES * len(primes))
    return primes[: bisect_right(primes, n)]


def _sieve(n: int) -> list[int]:
    """The primes up to n, in order, from a sieve of the odd numbers."""
    if n < 2:
        return []
    sieve = bytearray([1]) * ((n + 1) // 2)  # byte i: is 2i + 1 prime
    sieve[0] = 0
    # the sieve is read as it is cut, so only the primes up to sqrt(n) cut it
    for i in compress(range((isqrt(n) + 1) // 2), sieve):
        step = 2 * i + 1
        start = step * step // 2
        sieve[start::step] = bytes(len(range(start, len(sieve), step)))
    return [2, *compress(range(1, n + 1, 2), sieve)]


def _balanced_product(factors: list[int]) -> int:
    """Product of `factors`, its halves multiplied recursively down to C-level `prod`."""
    if len(factors) <= _CHUNK:
        return prod(factors)
    half = len(factors) // 2
    return _balanced_product(factors[:half]) * _balanced_product(factors[half:])


def _power_product(powers: list[tuple[list[int], int]]) -> int:
    """prod b^e over the bases b of each (bases, e) of `powers`, e >= 1, one squaring per bit.

    One pass puts each base in the group of every bit set in its exponent;
    then from the highest bit down: result <- result^2 times the product of
    that bit's group.
    """
    groups = [[] for _ in range(max((e for _, e in powers), default=0).bit_length())]
    for bases, exponent in powers:
        while exponent:  # its set bits, highest first
            bit = exponent.bit_length() - 1
            groups[bit] += bases
            exponent ^= 1 << bit
    result = 1
    for group in reversed(groups):
        result = result * result * _balanced_product(group)
    return result


def syt_count_digits(lam: Partition, limit: float = inf) -> float:
    """Estimated decimal digits of the tableau count of canonical `lam`, in floats.

    One row or one column reads 0, any other `_runs_digits` of its runs up
    to 2^40 cells and inf from there, where a long row's log-hooks would
    cancel lgamma(|lam| + 1) only to its rounding ((10^16, 1) would read 0).
    Each block of hooks costs O(1) and the stop past `limit` is tested
    once a run, so r runs cost r(r+1)/2 steps however long the rows.
    """
    if len(lam) <= 1 or lam[0] == 1:
        return 0.0
    if weight(lam) >> 40:
        return inf
    return _runs_digits(_bottom_runs(lam), limit)


def _runs_digits(runs, limit: float = inf) -> float:
    """log10 of the tableau count of the shape of `runs`, by `_hook_blocks`, in floats.

    ln f = lgamma(|lam| + 1) less the log-hooks, priced block by block,
    run by run bottom up: a block one row or one column wide is one lgamma
    pair, any other `_block_log_hooks`, O(1) at any size.  The runs
    walked so far form a shape inside `lam` with the same hooks, and a
    smaller shape has no more tableaux, so the partial estimate only rises:
    the walk stops once a run takes it past `limit` digits and returns that
    lower bound.  A part past the float range estimates as inf.  Past
    about 2^44 cells a long row's hooks cancel lgamma(|lam| + 1) only to
    its rounding.
    """
    bound, cells, log_hooks, log_f = limit * log(10), 0, 0.0, 0.0
    try:
        for rows, corner, columns in _hook_blocks(runs):
            for ell, width in columns:
                cells += rows * width
                d = corner - ell
                if rows == 1 or width == 1:  # hooks d up to d + rows + width - 2
                    log_hooks += lgamma(d + rows + width - 1) - lgamma(d)
                else:
                    log_hooks += _block_log_hooks(rows, d, width)
            log_f = lgamma(cells + 1) - log_hooks
            if log_f > bound:
                break
    except OverflowError:
        return inf
    return log_f / log(10)


def _block_log_hooks(rows: int, d: int, width: int) -> float:
    """ln of the product of the hooks d + i + j, i < rows, j < width, of one block.

    Row by row it is sum_{i<rows} lgamma(d+i+width) - lgamma(d+i), which
    telescopes in the Barnes G-function to ln G(d+rows+width) - ln G(d+width)
    - ln G(d+rows) + ln G(d).  A block with a side of at most _DIRECT_SIDE
    is summed along that side, the sum being symmetric in rows and width;
    any other is the difference of two `_log_g_steps` along its shorter
    side, whose cancellation is no worse than the row walk's.
    """
    short, long = (rows, width) if rows < width else (width, rows)
    if short <= _DIRECT_SIDE:
        return sum(lgamma(d + i + long) - lgamma(d + i) for i in range(short))
    return _log_g_steps(d + long, short) - _log_g_steps(d, short)


def _log_g_steps(z: int, steps: int) -> float:
    """ln G(z + steps) - ln G(z) = sum_{i<steps} lgamma(z + i), z >= 1, in O(1).

    Below _LOG_G_TABLE the prefix sums `_LOG_G` hold ln G; from there on,
    with x = z - 1 and y = x + steps, the asymptotic expansion (DLMF 5.17.5)
    ln G(x+1) = x^2/2 ln x - 3x^2/4 + x/2 ln 2pi - ln(x)/12 + zeta'(-1)
    - 1/(240 x^2) + 1/(1008 x^4), whose next term is below 2e-13 from
    x = 39, is differenced in a form with no large terms that cancel: the
    x^2 ln x terms as (y^2 - x^2)/2 ln y - x^2/2 ln(x/y); zeta'(-1) cancels.
    """
    top = z + steps
    if top <= _LOG_G_TABLE:
        return _LOG_G[top] - _LOG_G[z]
    if z < _LOG_G_TABLE:
        return _log_g_steps(_LOG_G_TABLE, top - _LOG_G_TABLE) + _LOG_G[_LOG_G_TABLE] - _LOG_G[z]
    x, y = float(z - 1), float(top - 1)
    squares = steps * (2 * (z - 1) + steps) / 2  # (y^2 - x^2)/2, formed in integers
    # ln(x/y): log1p keeps it accurate near 0, where log(x/y) would round x/y to 1
    ratio = log1p(-steps / y) if 2 * steps < y else log(x / y)
    inv_x, inv_y = 1 / (x * x), 1 / (y * y)
    return (
        squares * (log(y) - 1.5)
        - x * (x * ratio) / 2
        + steps * _HALF_LOG_2PI
        + ratio / 12
        - (inv_y - inv_x) / 240
        + (inv_y * inv_y - inv_x * inv_x) / 1008
    )


def syt_count_bruteforce(lam, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Count standard Young tableaux as paths in Young's lattice.

    A standard filling of `lam` places 1, 2, ..., |lam| one cell at a
    time, each value at a cell that keeps rows and columns strictly
    increasing, so the cells holding 1..k always form a sub-diagram of
    `lam`: the count is the last layer of `_young_layers(lam)`.  It never
    uses the product formula.  The work is about |lam| times the rows
    times the sub-diagrams of one size, so `cap` bounds the weight of the
    shape.
    """
    lam = canonical(lam)
    n = weight(lam)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n > cap:
        raise ValueError(message("|lam| = %s exceeds brute-force cap %s", n, cap))
    # the only sub-diagram of lam with |lam| cells is lam itself
    return deque(_young_layers(lam), maxlen=1)[0][lam]


def _young_layers(bound: Partition) -> Iterator[dict[Partition, int]]:
    """Layer k = 0, 1, ..., |bound| of Young's lattice inside canonical `bound`.

    Layer k maps each canonical sub-diagram mu of `bound` with k cells to
    the number of paths from the empty shape to mu, one cell a step: the
    standard fillings of mu.  It is grown from layer k - 1 by adding a
    cell at the end of a row that has room and is shorter than the row
    above, or as a new row.  A caller that needs only the first layers
    stops iterating; the product formula is never used.
    """
    rows = len(bound)
    layer = {(): 1}
    yield layer
    for _ in range(weight(bound)):
        grown: dict[Partition, int] = {}
        for mu, ways in layer.items():
            for i, part in enumerate(mu):
                if part < bound[i] and (i == 0 or mu[i - 1] > part):
                    key = mu[:i] + (part + 1,) + mu[i + 1 :]
                    grown[key] = grown.get(key, 0) + ways
            if len(mu) < rows:
                key = mu + (1,)
                grown[key] = grown.get(key, 0) + ways
        layer = grown
        yield layer


def falling_factorial_product(n: int, lam) -> int:
    """Product over rows i = 1, 2, ... of (n+i)! / (n+i-lam_i)!.

    Every part must satisfy lam_i <= n+i, which holds whenever |lam| <= n;
    zero parts contribute 1.
    """
    return prod(map(perm, count(n + 1), lam))
