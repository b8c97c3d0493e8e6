"""The cost model: every refusal made before a number is formed.

Numbers are priced in floats, by decimal digits and digit-terms of work,
and refused with a "too large" ValueError.  Range errors come first, then
the partition count, then digits.  Nothing here forms a number it prices
or calls a layer `bench/tracing.py` times.
"""

import sys
from math import inf, lgamma, log, log2, log10
from operator import index

from .grassmann import GrassmannShape
from .partitions import (
    _MESSAGE_BITS,
    Partition,
    _runs_digits,
    check_partition_terms,
    message,
    partition_count,
    syt_count_digits,
    weight,
)
from .schur import VeroneseVariety

MAX_DIGITS = 10**6
MAX_SYT_CELLS = 4_000_000  # `syt`'s sieve and hook lists take about 23 bytes a cell
# A sweep holds its rows, rows x central digits, to MAX_SWEEP_DIGITS, and its
# work to MAX_WORK digit-terms of about 0.8 ns: p(n) short terms a row at
# _SHORT_TERM_WORK (1.2-1.8 us from n = 5 to 25) and _ROW_LONG_OPS long steps
# on its central digits.  A `table` row makes at most four (the sweep step,
# the split, the degree's multiply-add and its text) and a mirrored row two,
# so 8 is twice a `table` row's count, kept as slack; a `conjecture` row makes
# 7 to 9, its product, a division with remainder, a multiply-add and two more
# texts on top.  On a shared 2-core x86-64 (CPython 3.11)
# `table --n 25 --d 2`, 2.0 x 10^9 digit-terms, took 1.8 s, and `conjecture
# --n 1 --d 400`, 3.0 x 10^7 digits, held 234 MB.  MAX_WORK also bounds the
# m = n+1 sum (3.9 s at (20000, 3)) and `degree_curve_closed`'s check: its
# comparisons at _CHECK_PAIRS digit pairs a digit-term (0.021-0.030 ns a pair)
# and its factors at _FACTOR_PAIRS (1.2-1.8 ps a pair, 5.1 s at d = 200,000).
MAX_SWEEP_DIGITS = 2 * 10**7
MAX_WORK = 5 * 10**9
_SHORT_TERM_WORK = 3_000
_ROW_LONG_OPS = 8
_CHECK_PAIRS = 25
_FACTOR_PAIRS = 300


def _too_large(template: str, args: tuple, cost: str) -> None:
    """Raise "too large: <message(template, *args)><cost>", the one refusal of every bound."""
    raise ValueError(f"too large: {message(template, *args)}{cost}")


def check_digits(digits: float, template: str, *args) -> None:
    """Refuse the number `message(template, *args)` names when `digits` pass MAX_DIGITS."""
    if digits > MAX_DIGITS:
        cost = f" would have over {MAX_DIGITS:,} digits (estimated {digits:,.0f} or more)"
        _too_large(template, args, cost)


def check_printable(digits: float, template: str, *args) -> None:
    """As `check_digits`, against the str() limit; `digits` must be a proved lower bound."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        cost = f" would have over {limit} digits, more than the interpreter converts to a string"
        _too_large(template, args, f"{cost} (estimated {digits:,.0f} or more)")


def check_printed(digits: float, template: str, *args) -> None:
    """A number printed whole: `check_digits`, then `check_printable` one digit lower."""
    check_digits(digits, template, *args)
    check_printable(digits - 1, template, *args)


def check_factorial(k: int, template: str, *args) -> None:
    """`check_digits` of k!, lgamma(k + 1) / ln 10; inf past the floats."""
    check_digits(lgamma(k + 1) / log(10) if k.bit_length() < 1000 else inf, template, *args)


def _refuse_past(digits: float, work: float, template: str, *args) -> None:
    """Refuse the sweeps `message(template, *args)` names past either sweep bound."""
    if digits > MAX_SWEEP_DIGITS:
        cost = f"print over {MAX_SWEEP_DIGITS:,} digits (estimated {digits:,.0f})"
    elif work > MAX_WORK:
        cost = f"take over {MAX_WORK:,} digit-terms (estimated {work:,.0f})"
    else:
        return
    _too_large(template, args, f" would {cost}")


_RANGE = "m must satisfy %s <= m <= %s, got %s"


def _check_range(n: int, N: int, m: int) -> None:
    n, N, m = index(n), index(N), index(m)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not n <= m <= N - 1:
        raise ValueError(message(_RANGE, n, N - 1, m))


def _n_bits_exceed(v: VeroneseVariety, bits: int) -> bool:
    """Whether N = C(n+d, d) - 1 has more than `bits` bits, forming N only if cheap.

    By C(n+d, k) >= ((n+d)/k)^k, k = min(n, d), in logarithms; short of that
    bound N has at most about 2.5 times `bits` bits and is formed.
    """
    k = min(v.n, v.d)
    log_bound_bits = log2(k) + log2(log2(v.n + v.d) - log2(k))
    return log_bound_bits > log2(bits + 2) or v.N.bit_length() > bits


def check_veronese_range(v: VeroneseVariety, m: int) -> None:
    """`_check_range(v.n, v.N, m)`, forming N only if needed; it can have millions of digits.

    Below n the message names N - 1 only if N fits in a message, else C(n+d, d) - 2.
    """
    n, d = v.n, v.d
    if not _n_bits_exceed(v, m.bit_length() if m >= n else _MESSAGE_BITS):
        _check_range(n, v.N, m)
    elif m < n:
        raise ValueError(message(_RANGE, n, message("C(%s, %s) - 2", n + d, d), m))


def ordinary_gauss_digits(v: VeroneseVariety) -> float:
    """log10 of the ordinary Gauss degree (n+1)^n (d-1)^n; inf past the floats."""
    return v.n * log10((v.n + 1) * (v.d - 1)) if v.n.bit_length() < 1000 else inf


def boole_digits(n: int, d: int) -> float:
    """log10 of Boole's degree (n+1)(d-1)^n; inf past the floats."""
    if d == 2:
        return log10(n + 1)
    return log10(n + 1) + n * log10(d - 1) if n.bit_length() < 1000 else inf


def degree_digits(shape: GrassmannShape) -> float:
    """Estimated digits of `grassmann_degree(shape)`: one block of hooks, O(1) at any size."""
    a, b = sorted((shape.d, shape.r - shape.d))
    return _runs_digits(((b, a),)) if a > 1 else 0.0


def reference_digits(n: int, N: int, m: int, first_digits: float) -> float:
    """Estimated digits of `reference_product(n, N, m, first)`, of log10 `first_digits`."""
    _check_range(n, N, m)
    kc = (m - n) * (N - m)
    # C(n + kc, n) * first, one factor (kc + j) / j at a time; past 2^64 a
    # float reads kc + j as kc, so a long kc is not added to n times
    big = kc >> 64 > 0
    base = sum(log10(kc if big else kc + j) - log10(j) for j in range(1, n + 1)) + first_digits
    return base + degree_digits(GrassmannShape(m - n, N - n))


def guard_reference(n: int, N: int, m: int, first_digits: float) -> float:
    """Refuse a reference product past MAX_DIGITS; returns its estimated digits."""
    digits = reference_digits(n, N, m, first_digits)
    check_digits(digits, "the reference product at (n=%s, N=%s, m=%s)", n, N, m)
    return digits


def guard_veronese(v: VeroneseVariety, m: int, terms: bool = False) -> float:
    """The range, the partition count if `terms`, then the product, first factor first."""
    check_veronese_range(v, m)
    if terms:
        check_partition_terms(v.n)
    first = ordinary_gauss_digits(v)
    check_digits(first, "the ordinary Gauss degree at (n=%s, d=%s)", v.n, v.d)
    return guard_reference(v.n, v.N, m, first)


def guard_degree(v: VeroneseVariety, m: int, terms: bool = False, work=None) -> None:
    """The default `Method.guard`: `guard_veronese`, `work`, then a printable degree.

    Every degree guard but Boole's: `work(v, m, digits)`, given the product's
    digits, refuses a method's own work past MAX_WORK.
    """
    digits = guard_veronese(v, m, terms)
    if work is not None:
        work(v, m, digits)
    _check_degree_printable(v, m, digits)


def _check_degree_printable(v: VeroneseVariety, m: int, product_digits: float) -> None:
    """`check_printable` of the degree at (v, m), by its proved lower bound, `_lower_digits`."""
    digits = _lower_digits(v, m, product_digits)
    check_printable(digits, "the degree at (n=%s, d=%s, m=%s)", v.n, v.d, m)


def _lower_digits(v: VeroneseVariety, m: int, product_digits: float) -> float:
    """Digits of `BoundsReport.lower` x the product, less one for the estimate; 0 is -inf."""
    n, N = v.n, v.N
    if N - m < n:
        return -inf
    ratio = sum(log10(N - m - j) - log10(N - n - j) for j in range(n))
    return product_digits + ratio - 1


def _guard_partition_sum(v: VeroneseVariety, m: int) -> None:
    """`guard_degree` with the partition count: p(60) terms at 57-83 us take < 2 min."""
    guard_degree(v, m, terms=True)


def _guard_m_np1(v: VeroneseVariety, m: int) -> None:
    """`guard_degree` with the m = n+1 sum's work: n + 1 steps x digits of its largest term.

    Term k, (n+1)^k C(N-1, k) C(n+1, n-k), is at most (n+1)^n 2^(n+1) C(N-1, n)
    once N - 1 >= 2n: the reference product at m = n+1 with that first factor.
    """
    guard_degree(v, m, work=_m_np1_work)


def _m_np1_work(v: VeroneseVariety, m: int, digits: float) -> None:
    n = v.n
    largest = reference_digits(n, v.N, m, n * log10(n + 1) + (n + 1) * log10(2))
    _refuse_past(0.0, (n + 1) * largest, "the m = n+1 sum at (n=%s, d=%s)", n, v.d)


def _guard_curve_closed(v: VeroneseVariety, m: int) -> None:
    """`guard_degree` with its check's (min(m-1, d-m) d + digits) digits pairs, and its steps."""
    guard_degree(v, m, work=_curve_closed_work)


def _curve_closed_work(v: VeroneseVariety, m: int, digits: float) -> None:
    rows = min(m - 1, v.d - m)
    steps = min(rows * v.d, MAX_WORK * _CHECK_PAIRS)  # keeps d out of floats
    work = (steps + digits) * digits / _CHECK_PAIRS + _sweep_factor_work(v.d - 1, rows)
    _refuse_past(0.0, work, "the curve_closed check at (n=%s, d=%s, m=%s)", v.n, v.d, m)


def _sweep_factor_work(r: int, rows: int) -> float:
    """Digit-terms of the factors of `grassmann_degree_sweep(r)`'s first `rows` steps.

    Step k >= 1 forms perm(kc + s, s), perm(c - 1, s) (c = r - k, s = c - k - 1)
    and their gcd.  Stops past MAX_WORK; `guard_veronese` keeps c < 2 x 10^6.
    """
    work = 0.0
    for k in range(1, rows):
        c = r - k
        cells, steps = k * c, c - k - 1
        num = lgamma(cells + steps + 1) - lgamma(cells + 1)
        den = lgamma(c) - lgamma(k + 1)
        work += ((num + den) / log(10)) ** 2 / _FACTOR_PAIRS
        if work > MAX_WORK:
            break
    return work


def _guard_boole(v: VeroneseVariety, m: int) -> None:
    """Boole's degree, printed whole, is its method's whole cost: `boole_digits` alone."""
    check_printed(boole_digits(v.n, v.d), "Boole's degree at (n=%s, d=%s)", v.n, v.d)


def guard_scan(n_values, d_values) -> None:
    """Cost guard of `conjecture_scan(n_values, d_values)`, or of `table` as a box of one.

    Sums `_sweep_cost` in the scan's order, refused at the first variety past
    either bound.  The first, smallest, raises range errors and names a box
    refused there as its one sweep.  An empty box checks nothing.
    """
    digits = work = 0.0
    box = ((n, d) for n in n_values for d in d_values)
    for done, (n, d) in enumerate(box, start=1):
        more_digits, more_work = _sweep_cost(VeroneseVariety(n, d))
        digits, work = digits + more_digits, work + more_work
        if done == 1:
            _refuse_past(digits, work, "the sweep over m of (n=%s, d=%s)", n, d)
        else:
            _refuse_past(digits, work, "%s sweeps over m, up to (n=%s, d=%s),", done, n, d)


def _sweep_cost(v: VeroneseVariety) -> tuple[float, float]:
    """Estimated digits and work of every m of `v`: rows x its central m's.

    deg G(k, r - k) and C(n + kc, n) rise up to k = r/2, so the central
    reference product, which must pass `guard_veronese`, bounds every row.
    The partition count comes first, before N is formed.
    """
    check_partition_terms(v.n)
    rows = v.N - v.n
    central = guard_veronese(v, v.n + rows // 2)
    row_work = partition_count(v.n) * _SHORT_TERM_WORK + _ROW_LONG_OPS * central
    return rows * central, rows * row_work


def guard_syt(lam: Partition) -> None:
    """Cost guard of `syt`: the shape's cells, then its tableau count printed whole."""
    cells, what = weight(lam), "the tableau count of a shape of %s cells"
    if cells > MAX_SYT_CELLS:
        _too_large(what, (cells,), f"; at most {MAX_SYT_CELLS:,} cells are counted")
    check_printed(syt_count_digits(lam, MAX_DIGITS), what, cells)


def guard_grassmann(shape: GrassmannShape) -> None:
    """Cost guard of `grassmann`: its Pluecker degree printed whole."""
    check_printed(degree_digits(shape), "the Pluecker degree of G(%s, %s)", shape.d, shape.r)
