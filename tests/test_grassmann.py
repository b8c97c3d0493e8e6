"""Grassmannian invariants."""

from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache
from math import comb, inf, isqrt, lgamma, log, log10

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussdeg.grassmann
import gaussdeg.partitions
from gaussdeg.cost import degree_digits
from gaussdeg.degrees import _sweep_cells
from gaussdeg.grassmann import (
    GrassmannShape,
    grassmann_degree,
    grassmann_degree_sweep,
    grassmann_dim,
)
from gaussdeg.partitions import (
    DECIMAL_BITS,
    PRIME_POWER_CELLS,
    _count_by_division,
    _count_by_prime_powers,
    as_count,
    count_digits,
    count_divmod,
    count_fma,
    count_multiply,
    exact_quotient,
    syt_count_bruteforce,
    syt_count_digits,
    syt_count_hook,
)
from gaussdeg.schur import SegreIntegralTable


def test_shape_validation():
    with pytest.raises(ValueError):
        GrassmannShape(3, 2)
    with pytest.raises(ValueError):
        GrassmannShape(-1, 2)
    # past CPython's 4,300-digit str() limit, r is named by its size
    message = "^need 0 <= d <= r, got d=-1, r=an integer of 16,610 bits$"
    with pytest.raises(ValueError, match=message):
        GrassmannShape(-1, 10**5000)
    GrassmannShape(0, 0)


def test_dim_known():
    assert grassmann_dim(GrassmannShape(1, 3)) == 2
    assert grassmann_dim(GrassmannShape(2, 4)) == 4
    assert grassmann_dim(GrassmannShape(0, 7)) == 0
    assert grassmann_dim(GrassmannShape(7, 7)) == 0


def test_degree_known():
    # projective spaces embed linearly
    for r in range(1, 7):
        assert grassmann_degree(GrassmannShape(1, r)) == 1
    assert grassmann_degree(GrassmannShape(2, 4)) == 2
    assert grassmann_degree(GrassmannShape(2, 5)) == 5
    assert grassmann_degree(GrassmannShape(3, 6)) == 42
    # degenerate shapes are points
    assert grassmann_degree(GrassmannShape(0, 5)) == 1
    assert grassmann_degree(GrassmannShape(5, 5)) == 1
    assert grassmann_degree(GrassmannShape(0, 0)) == 1


def test_thin_grassmannians_build_no_sieve(monkeypatch):
    # G(1, r) and G(r-1, r) are a projective space and its dual
    def no_sieve(n):
        raise AssertionError(f"sieve of {n} built")

    monkeypatch.setattr(gaussdeg.partitions, "_primes", no_sieve)
    assert grassmann_degree(GrassmannShape(1, 10**6)) == 1
    assert grassmann_degree(GrassmannShape(10**6 - 1, 10**6)) == 1


@given(r=st.integers(min_value=0, max_value=10), data=st.data())
def test_degree_duality(r, data):
    d = data.draw(st.integers(min_value=0, max_value=r))
    assert grassmann_degree(GrassmannShape(d, r)) == grassmann_degree(
        GrassmannShape(r - d, r)
    )


@given(r=st.integers(min_value=0, max_value=60), data=st.data())
def test_degree_is_the_rectangle_hook_count(r, data):
    # the tableau kernel against the sweep, which steps by short ratios and
    # never counts hooks; the sweep yields only its stepped half, k <= r/2,
    # so a d past it is read at r - d, the same rectangle turned over
    d = data.draw(st.integers(min_value=0, max_value=r))
    assert grassmann_degree(GrassmannShape(d, r)) == [*grassmann_degree_sweep(r), 1][min(d, r - d)]


def test_degree_is_the_bruteforce_count_up_to_weight_12():
    for r in range(14):
        for d in range(r + 1):
            if d * (r - d) <= 12:
                expected = syt_count_bruteforce((r - d,) * d)
                assert grassmann_degree(GrassmannShape(d, r)) == expected


def test_degree_on_both_sides_of_the_prime_power_switch():
    # the kernel divides below PRIME_POWER_CELLS cells and multiplies prime
    # powers from there on; each rectangle there is counted by both branches
    for k in range(1, 41):
        for c in {-(-PRIME_POWER_CELLS // k) - 1, -(-PRIME_POWER_CELLS // k)}:
            rectangle = (c,) * k
            expected = _count_by_division(rectangle)
            assert _count_by_prime_powers(rectangle) == expected
            assert grassmann_degree(GrassmannShape(k, k + c)) == expected
            assert grassmann_degree(GrassmannShape(c, k + c)) == expected


def test_degree_digits_is_the_estimate_of_the_rectangle():
    # one run (b, a) read by the walk every shape's estimate reads
    for r in range(60):
        for d in range(r + 1):
            shape = GrassmannShape(d, r)
            rows, cols = sorted((d, r - d))
            digits = degree_digits(shape)
            assert digits == syt_count_digits((cols,) * rows), (d, r)
            assert abs(digits - log10(grassmann_degree(shape))) < 1e-12, (d, r)
    # one row is degree 1 however long; two rows past the float range are inf
    assert degree_digits(GrassmannShape(1, 10**4000)) == 0
    assert degree_digits(GrassmannShape(2, 10**4000)) == inf


def _ladder_rectangles() -> list[tuple[int, int]]:
    """(rows, columns) of the smallest, central and largest-a rectangles of the ladder.

    The ladder's varieties (n, d) put deg G(m - n, N - n) in every degree,
    N = C(n + d, d) - 1, for n <= m < N; k = m - n rows of N - m columns.
    """
    rectangles = []
    for n, d in ((1, 200), (2, 20), (3, 10), (4, 5), (6, 3)):
        r = comb(n + d, d) - 1 - n
        rectangles += [(1, r - 1), (2, r - 2), (r // 2, r - r // 2), (r - 2, 2)]
    return rectangles


# both sides just below, at and just above the 16 cells up to which a block
# is summed along a side
CUT_RECTANGLES = [(15, 15), (16, 16), (16, 17), (17, 16), (17, 17), (17, 18), (16, 40), (17, 40)]
RECTANGLES = _ladder_rectangles() + CUT_RECTANGLES


@pytest.mark.parametrize("rows, cols", RECTANGLES)
def test_degree_digits_matches_the_exact_degree(rows, cols):
    shape = GrassmannShape(rows, rows + cols)
    exact = log10(grassmann_degree(shape))
    assert degree_digits(shape) == pytest.approx(exact, rel=1e-9, abs=1e-12)


def _row_walk_digits(rows: int, cols: int) -> float:
    """log10 of the rectangle's tableau count, hook row by hook row, as it was priced.

    Row i from the bottom holds the hooks 1 + i + j, j < cols, and adds
    lgamma(1 + i + cols) - lgamma(1 + i) to the log-hooks.
    """
    log_hooks, log_f = 0.0, 0.0
    for i in range(rows):
        log_hooks += lgamma(1 + i + cols) - lgamma(1 + i)
        log_f = lgamma((i + 1) * cols + 1) - log_hooks
    return log_f / log(10)


@pytest.mark.parametrize("rows, cols", RECTANGLES)
def test_the_row_walk_agrees_with_the_closed_form(rows, cols):
    # the reference the per-block closed form replaces, on each rectangle
    walked = _row_walk_digits(rows, cols)
    assert degree_digits(GrassmannShape(rows, rows + cols)) == pytest.approx(walked, rel=1e-12)
    assert syt_count_digits((cols,) * rows) == pytest.approx(walked, rel=1e-12)


def test_degree_large_square():
    # 3,600 cells, past the switch: the prime powers against one division
    assert grassmann_degree(GrassmannShape(60, 120)) == _count_by_division((60,) * 60)


@settings(max_examples=6, deadline=None)
@given(r=st.integers(min_value=0, max_value=300))
@example(r=2 * isqrt(PRIME_POWER_CELLS - 1))  # every rectangle in the product form
@example(r=300)  # most rectangles in the prime-power form
def test_sweep_is_the_single_cell_degree(r):
    # the sweep yields only the counts it steps, k = 0..min(r-1, r/2), each
    # held to the single cell
    swept = list(grassmann_degree_sweep(r))
    stepped = range(min(r, r // 2 + 1))
    # a swept Decimal is compared with the count in base 10: Decimal == int
    # would convert the int by CPython's quadratic route (2.5 s at r = 300,
    # CPython 3.11 on a shared 2-core x86-64)
    assert swept == [
        _in_base_of(swept[k], grassmann_degree(GrassmannShape(k, r))) for k in stepped
    ]


def _in_base_of(like, count: int):
    """`count` as an int, or, if `like` is a Decimal, as the equal Decimal."""
    return count if type(like) is int else _decimal_of(count)


@cache
def _two_to(bits: int) -> Decimal:
    with localcontext(gaussdeg.partitions.EXACT):
        return Decimal(2) ** bits


def _decimal_of(count: int) -> Decimal:
    """Decimal(count), exactly, without CPython's quadratic conversion.

    The bits above and below a power-of-two split are converted alone and
    rejoined by one multiplication by a power of two under `EXACT`.
    """
    bits = count.bit_length()
    if bits <= 4096:
        return Decimal(count)
    half = 1 << (bits - 1).bit_length() - 1
    with localcontext(gaussdeg.partitions.EXACT):
        return _decimal_of(count >> half) * _two_to(half) + _decimal_of(count & (1 << half) - 1)


@pytest.mark.parametrize(
    "count",
    [0, 1, -5, 2**4096, 2**5000 - 1, -(3**20_000), 7**60_000 + 12_345],
    ids=["0", "1", "-5", "2^4096", "2^5000-1", "-3^20000", "7^60000+12345"],
)
def test_the_split_conversion_is_decimal_of_the_int(count):
    assert _decimal_of(count) == Decimal(count)


@given(r=st.integers(min_value=1, max_value=60))
def test_sweep_is_every_cell_and_its_own_mirror(r):
    # `degrees._sweep_cells`, the sweep's one mirror, over a table of n = 1
    # in P^(r+1): every deg G(k, r), k = 0..r-1, a palindrome past k = 0
    plan = SegreIntegralTable(n=1, N=r + 1, entries={(1,): 1}).plan
    swept = [count for _, count, _ in _sweep_cells(plan)]
    assert swept == [grassmann_degree(GrassmannShape(k, r)) for k in range(r)]
    assert swept[1:] == swept[1:][::-1]


def test_sweep_steps_only_its_first_half(monkeypatch):
    steps = []
    factor = gaussdeg.grassmann._sweep_factor

    def counted(k, c):
        steps.append((k, c))
        return factor(k, c)

    monkeypatch.setattr(gaussdeg.grassmann, "_sweep_factor", counted)
    assert list(grassmann_degree_sweep(7)) == [1, 1, 42, 462]
    assert steps == [(0, 7), (1, 6), (2, 5)]


def test_sweep_is_the_rectangle_hook_count_up_to_r_40():
    # no rectangle at r = 0; k = 0 at r = 1; k = 0, 1 at r = 2
    assert [list(grassmann_degree_sweep(r)) for r in range(3)] == [[], [1], [1, 1]]
    for r in range(41):
        assert list(grassmann_degree_sweep(r)) == [
            syt_count_hook((r - k,) * k) for k in range(min(r, r // 2 + 1))
        ]


# 3^100 + 17, 48 digits, past the default context's 28: 263 modulo 1009
COUNT = 3**100 + 17


@pytest.mark.parametrize(
    "count, kinds",
    [(COUNT, (int, int)), (Decimal(COUNT), (Decimal, int)), (Fraction(COUNT), (int, Fraction))],
    ids=["int", "Decimal", "Fraction"],
)
def test_count_arithmetic_keeps_the_counts_kind(count, kinds):
    # a caller's 5-digit context that rounds without trapping: a function
    # computing in it would round the 48 digits and set the caller's flags.
    # Anything but a Decimal takes its own operators: a Fraction, as a
    # patched alternate sum feeds `exact_quotient`, goes through `divmod`.
    kind, factor = type(count), 10**6 + 3
    with localcontext(Context(prec=5)) as caller:
        quotient, rest = count_divmod(count, 1009)
        product = count_multiply(count, factor)
        fused = count_fma(count, factor, 12_345)
        message = "^the count over 1009 did not come out integral$"
        with pytest.raises(ArithmeticError, match=message):
            exact_quotient(count, 1009, "the count over %s", 1009)
        assert exact_quotient(count_multiply(count, 1009), 1009, "the product") == COUNT
        assert getcontext() is caller and caller.prec == 5
        assert not any(caller.flags.values())
    assert (type(quotient), type(rest), type(product), type(fused)) == (*kinds, kind, kind)
    assert (quotient, rest) == divmod(COUNT, 1009) and rest == 263
    assert product == COUNT * factor
    assert fused == COUNT * factor + 12_345


@pytest.mark.parametrize("kind", [int, Decimal])
def test_count_digits_is_never_short_and_at_most_one_over(kind):
    # sized with no text made: a Decimal exactly, an int never short and at
    # most one over, across powers of ten and of two
    for k in (1, 2, 47, 48, 602, 603, 700):
        for value, digits in ((10**k - 1, k), (10**k, k + 1), (2**k, len(str(2**k)))):
            assert 0 <= count_digits(kind(value)) - digits <= (kind is int)


def test_a_count_turns_decimal_past_decimal_bits():
    at, past = 2**DECIMAL_BITS - 1, 2**DECIMAL_BITS
    assert at.bit_length() == DECIMAL_BITS and as_count(at) is at
    assert type(as_count(past)) is Decimal and as_count(past) == past
    # anything else comes back as it is
    for other in (Decimal(past), Decimal(7), Fraction(past)):
        assert as_count(other) is other


def test_the_sweep_switches_base_at_its_first_count_past_decimal_bits():
    # r = 52, the central rows of (3, 5), N = 55: small_mixed's one sweep
    # that crosses the switch
    swept = list(grassmann_degree_sweep(52))
    first = next(k for k, count in enumerate(swept) if type(count) is not int)
    assert all(count.bit_length() <= DECIMAL_BITS for count in swept[:first])
    assert int(swept[first]).bit_length() > DECIMAL_BITS
    assert {type(count) for count in swept[first:]} == {Decimal}
