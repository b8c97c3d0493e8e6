"""Partition enumeration and tableau counting, checked against brute force."""

import os
import re
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, islice
from math import comb, factorial, isqrt, log10
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussdeg.partitions
from gaussdeg.partitions import (
    MAX_PARTITION_N,
    KEPT,
    MAX_PARTITIONS,
    PRIME_POWER_CELLS,
    Partition,
    _INTEGER_BYTES,
    _PRIME_BYTES,
    _bottom_runs,
    _count_by_division,
    _count_by_prime_powers,
    _hook_blocks,
    _hook_mults,
    _primes,
    _young_layers,
    add_rectangle,
    canonical,
    check_partition_terms,
    enumerate_partitions,
    exact_quotient,
    message,
    pad,
    partition_count,
    partition_counts,
    syt_count_bruteforce,
    syt_count,
    syt_count_digits,
    syt_count_hook,
    weight,
)

# p(0)..p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def _transpose(shape):
    return tuple(sum(1 for part in shape if part > i) for i in range(max(shape, default=0)))


@st.composite
def partitions(draw, max_weight=10):
    total = draw(st.integers(min_value=0, max_value=max_weight))
    return draw(st.sampled_from(enumerate_partitions(total, max(total, 1))))


def test_canonical_strips_zeros_and_validates():
    assert canonical((3, 1, 0, 0)) == (3, 1)
    assert canonical(()) == ()
    assert canonical((0, 0)) == ()
    assert canonical([4, 2, 2, 0]) == (4, 2, 2)
    assert canonical(iter([3, 1, 1, 0, 0])) == (3, 1, 1)
    with pytest.raises(ValueError, match=r"^negative part in \(2, -1\)$"):
        canonical([2, -1])
    with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(1, 2\)$"):
        canonical((1, 2))
    # a negative last part is reported before any increase
    with pytest.raises(ValueError, match=r"^negative part in \(1, 2, -1\)$"):
        canonical((1, 2, -1))
    with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(-1, 2\)$"):
        canonical((-1, 2))


@pytest.mark.parametrize("parts", [[2.5, 1], ["3", "1"], [Decimal(2), 1]])
def test_a_part_that_is_not_an_integer_is_refused(parts):
    # int() would read [2.5, 1] as (2, 1) and ["3", "1"] as (3, 1)
    with pytest.raises(TypeError):
        syt_count_hook(parts)


def test_a_part_with_index_is_kept():
    class Two:
        def __index__(self):
            return 2

    assert canonical([Two(), 1]) == (2, 1)


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert pad((), 2) == (0, 0)
    with pytest.raises(ValueError):
        pad((1, 1, 1), 2)


def test_enumerate_known_listings():
    assert enumerate_partitions(0, 5) == [()]
    assert enumerate_partitions(0, 0) == [()]
    assert enumerate_partitions(2, 0) == []
    assert enumerate_partitions(3, 2) == [(3,), (2, 1)]
    assert enumerate_partitions(2, 4) == [(2,), (1, 1)]
    assert enumerate_partitions(4, 4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_counts():
    for total, expected in enumerate(PARTITION_COUNTS):
        assert len(enumerate_partitions(total, max(total, 1))) == expected


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_partitions(-1, 3)
    with pytest.raises(ValueError):
        enumerate_partitions(3, -1)


@given(
    total=st.integers(min_value=0, max_value=12),
    max_parts=st.integers(min_value=0, max_value=12),
)
def test_enumerate_is_valid_and_reverse_lex(total, max_parts):
    out = enumerate_partitions(total, max_parts)
    assert len(set(out)) == len(out)
    for lam in out:
        assert lam == canonical(lam)
        assert weight(lam) == total
        assert len(lam) <= max_parts
    assert out == sorted(out, reverse=True)


def test_partition_count_matches_enumeration():
    assert [partition_count(n) for n in range(11)] == PARTITION_COUNTS
    for n in range(26):
        assert partition_count(n) == len(enumerate_partitions(n, n))
    assert partition_count(100) == 190_569_292


def test_partition_counts_never_decrease():
    counts = list(islice(partition_counts(), 101))
    assert counts[:11] == PARTITION_COUNTS
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # the command line's cost guard refuses Veronese sums from n = 61 on
    assert counts[60] <= 10**6 < counts[61]
    with pytest.raises(ValueError):
        partition_count(-1)


def test_exact_quotient():
    assert exact_quotient(factorial(6), factorial(4), "30") == 30
    assert exact_quotient(-12, 4, "-3") == -3
    assert exact_quotient(0, 7, "0") == 0
    message = "^tableau count for \\(2, 1\\) did not come out integral$"
    with pytest.raises(ArithmeticError, match=message):
        exact_quotient(7, 2, "tableau count for (2, 1)")
    with pytest.raises(ArithmeticError):
        exact_quotient(-7, 2, "a negative quotient")
    # any number but a Decimal goes through divmod: a non-integral Fraction raises
    assert exact_quotient(Fraction(12), 4, "3") == 3
    with pytest.raises(ArithmeticError):
        exact_quotient(Fraction(1, 2), 1, "a half")
    # arguments are formatted only on failure, an int past 13,000 bits as its size
    message = "^count of \\(1,\\) plus the 2-wide rectangle of height an integer of 14,001 bits "
    with pytest.raises(ArithmeticError, match=message):
        exact_quotient(7, 2, "count of %s plus the %s-wide rectangle of height %s", (1,), 2, 2**14_000)


def test_prime_powers_refuse_a_count_that_is_not_integral(monkeypatch):
    # |lam| hooks of 4 more than the shape has take the exponent of 2 below
    # zero; the prime-power branch then names its shape as the division does
    shape = (40,) * 40
    assert weight(shape) >= PRIME_POWER_CELLS

    def skewed(lam):
        mults = _hook_mults(lam)
        mults[4] += weight(lam)
        return mults

    monkeypatch.setattr(gaussdeg.partitions, "_hook_mults", skewed)
    message = f"^tableau count for {re.escape(str(shape))} did not come out integral$"
    with pytest.raises(ArithmeticError, match=message):
        syt_count(shape)


def test_message_names_an_integer_past_13000_bits_by_its_size():
    assert message("no arguments") == "no arguments"
    assert message("%s of %s", (2, 1), -(2**12_999)) == f"(2, 1) of {-(2**12_999)}"
    assert message("n = %s", 2**13_000) == "n = an integer of 13,001 bits"
    assert message("%s/%s", 1, 10**5000) == "1/an integer of 16,610 bits"


def test_message_names_an_integer_by_its_size_under_a_lowered_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert message("n = %s", 10**700) == "n = an integer of 2,326 bits"
    finally:
        sys.set_int_max_str_digits(limit)


def test_any_other_decimal_is_echoed():
    # a Decimal is echoed as its text, an integral one too: no long Decimal
    # reaches a message, as a row with no degree names its S, an int
    assert message("%s %s %s", Decimal("1.5"), Decimal("NaN"), Decimal("-5.00")) == "1.5 NaN -5.00"


def test_check_partition_terms_stops_at_the_first_count_past_the_bound():
    check_partition_terms(60)
    check_partition_terms(0)
    check_partition_terms(-2)
    message = "^too large: n = 61 has over 1,000,000 partitions, one term each$"
    with pytest.raises(ValueError, match=message):
        check_partition_terms(61)
    start = time.process_time()
    with pytest.raises(ValueError, match="n = 1000000000 has over"):
        check_partition_terms(10**9)
    # past sys.maxsize, where an islice over the counts cannot stop
    with pytest.raises(ValueError, match="^too large: n = 100000000000000000000 has over"):
        check_partition_terms(10**20)
    # past CPython's 4,300-digit str() limit, n is named by its size
    with pytest.raises(ValueError, match="^too large: n = an integer of 16,610 bits has over"):
        check_partition_terms(10**5000)
    assert time.process_time() - start < 1


def test_check_partition_terms_compares_with_one_constant(monkeypatch):
    # 60 is the largest n of at most 10^6 partitions, found once at import
    assert MAX_PARTITION_N == 60
    assert partition_count(60) <= MAX_PARTITIONS < partition_count(61)

    def recount():
        raise AssertionError("the counts are walked again")

    monkeypatch.setattr(gaussdeg.partitions, "partition_counts", recount)
    check_partition_terms(60)
    start = time.process_time()
    for n in (61, 10**100):
        with pytest.raises(ValueError, match="^too large: n = [0-9]+ has over 1,000,000 partitions"):
            check_partition_terms(n)
    assert time.process_time() - start < 0.1


def test_add_rectangle():
    assert add_rectangle((2,), 2, 1) == (3, 1)
    assert add_rectangle((1, 1), 2, 1) == (2, 2)
    assert add_rectangle((), 3, 0) == ()
    assert add_rectangle((), 2, 3) == (3, 3)
    with pytest.raises(ValueError):
        add_rectangle((1, 1, 1), 2, 5)
    # width 0 adds nothing and strips the padding again
    assert add_rectangle((2, 1), 4, 0) == (2, 1)
    assert add_rectangle([3, 1, 0], 3, 0) == (3, 1)
    assert add_rectangle((), 0, 7) == ()
    assert add_rectangle((2, 0), 3, 2) == (4, 2, 2)
    with pytest.raises(ValueError, match=r"^\(1, 1, 1\) has more than 2 nonzero parts$"):
        add_rectangle((1, 1, 1), 2, 0)
    with pytest.raises(ValueError, match=r"^\(2, 1\) has more than 0 nonzero parts$"):
        add_rectangle((2, 1), 0, 3)
    with pytest.raises(ValueError, match="^rectangle sides must be non-negative$"):
        add_rectangle((1,), 1, -1)
    with pytest.raises(ValueError, match="^parts not weakly decreasing"):
        add_rectangle((1, 2), 2, 1)


def test_syt_hook_known_values():
    assert syt_count_hook(()) == 1
    assert syt_count_hook((5,)) == 1
    assert syt_count_hook((1, 1, 1)) == 1
    assert syt_count_hook((2, 1)) == 2
    assert syt_count_hook((2, 2)) == 2
    assert syt_count_hook((3, 1)) == 3
    assert syt_count_hook((2, 2, 1)) == 5
    assert syt_count_hook((4, 4)) == 14
    assert syt_count_hook((5, 4, 1)) == 288
    assert syt_count_hook((4, 3, 2, 1)) == 768


def test_syt_bruteforce_known_values():
    assert syt_count_bruteforce(()) == 1
    assert syt_count_bruteforce((3, 1)) == 3
    assert syt_count_bruteforce((2, 2, 1)) == 5


def test_syt_bruteforce_cap():
    with pytest.raises(ValueError):
        syt_count_bruteforce((7, 6), cap=12)
    assert syt_count_bruteforce((13,), cap=13) == 1
    with pytest.raises(ValueError):
        syt_count_bruteforce((1,), cap=0)


@settings(max_examples=80, deadline=None)
@given(lam=partitions(max_weight=10))
def test_hook_equals_bruteforce(lam):
    assert syt_count_hook(lam) == syt_count_bruteforce(lam)


def test_bruteforce_equals_hook_on_every_shape_up_to_weight_16():
    # 915 shapes, 643 of them past the default cap; placing tableaux one by
    # one would walk the 46,206,736 standard tableaux of weight 16 alone
    for total in range(17):
        for lam in enumerate_partitions(total, max(total, 1)):
            assert syt_count_bruteforce(lam, cap=16) == syt_count_hook(lam), lam


def test_the_walk_counts_every_shape_up_to_weight_12():
    # one walk inside the 12 x 12 square reaches every shape of weight <= 12
    square = (12,) * 12
    for k, paths in zip(range(13), _young_layers(square)):
        shapes = enumerate_partitions(k, max(k, 1))
        assert sorted(paths) == sorted(shapes)
        for lam in shapes:
            assert paths[lam] == syt_count_bruteforce(lam) == syt_count_hook(lam), lam


def test_the_walk_stays_inside_its_bound():
    layers = list(_young_layers((2, 1)))
    assert layers == [{(): 1}, {(1,): 1}, {(2,): 1, (1, 1): 1}, {(2, 1): 2}]
    assert list(_young_layers(())) == [{(): 1}]


def test_syt_hook_reads_shapes_in_any_form():
    assert syt_count_hook([3, 1, 0]) == syt_count_hook((3, 1, 0, 0)) == syt_count_hook((3, 1)) == 3


def test_syt_hook_rejects_an_invalid_shape_on_every_call():
    # the shape is checked before the store is read
    for _ in range(3):
        with pytest.raises(ValueError, match="weakly decreasing"):
            syt_count_hook((1, 2))


def _kept_counts() -> list[Partition]:
    """The shapes whose tableau counts `KEPT` holds, least recently used first."""
    return [key[1] for key in KEPT._entries if key[0] == "count"]


def test_syt_hook_cache_is_bounded(monkeypatch):
    # the counts share the store's one byte budget: each is charged its bits
    # / 8, plus _INTEGER_BYTES, plus 8 bytes a part, and under 2,000 bytes
    # the 75 shapes of 12 cells past one row or column keep only the last
    # counted, a count read again becoming the most recently used
    budget = 2_000
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    shapes = [lam for lam in enumerate_partitions(12, 12) if len(lam) > 1 and lam[0] > 1]
    assert [syt_count(lam) for lam in shapes] == list(map(syt_count_bruteforce, shapes))
    kept = _kept_counts()
    assert 0 < len(kept) < len(shapes) and kept == shapes[len(shapes) - len(kept) :]
    for lam in kept:
        count, charge = KEPT._entries["count", lam]
        assert count == _count_by_division(lam)
        assert charge == count.bit_length() // 8 + _INTEGER_BYTES + 8 * len(lam)
    assert KEPT.total == sum(charge for _, charge in KEPT._entries.values()) <= budget
    syt_count(kept[0])
    assert _kept_counts() == kept[1:] + kept[:1]


def test_one_switch_picks_kernel_and_cache(monkeypatch):
    # 799 cells are divided and kept, 800 are formed as prime powers and
    # never kept; one row or one column counts 1 before the store is read
    formed = []

    def recorded(lam):
        formed.append(lam)
        return _count_by_prime_powers(lam)

    monkeypatch.setattr(gaussdeg.partitions, "_count_by_prime_powers", recorded)
    assert syt_count((400, 399)) == comb(799, 399) * 2 // 401
    assert formed == [] and _kept_counts() == [(400, 399)]
    assert syt_count((400, 400)) == comb(800, 400) // 401
    assert formed == [(400, 400)] and _kept_counts() == [(400, 399)]
    start = time.process_time()
    assert syt_count((10**6,)) == syt_count((1,) * 5000) == 1
    assert time.process_time() - start < 0.1
    assert formed == [(400, 400)] and _kept_counts() == [(400, 399)]


@given(lam=partitions(), extra=st.integers(min_value=0, max_value=5))
def test_hook_padding_invariance(lam, extra):
    assert syt_count_hook(lam + (0,) * extra) == syt_count_hook(lam)


@given(lam=partitions())
def test_conjugate_involution_and_count_symmetry(lam):
    assert _transpose(_transpose(lam)) == lam
    assert syt_count_hook(_transpose(lam)) == syt_count_hook(lam)


def test_kernel_branches_agree_on_every_shape_up_to_weight_20():
    # the hooks multiplied block by block against Legendre's exponents over
    # the hook multiplicities, on all 2,713 shapes of weight 1..20 and their
    # transposes; the empty shape is counted at once
    assert syt_count(()) == 1
    for total in range(1, 21):
        for lam in enumerate_partitions(total, total):
            for shape in (lam, _transpose(lam)):
                assert _count_by_division(shape) == _count_by_prime_powers(shape), shape


def _pair_mults(shape):
    """Hook multiplicities of `shape` row by row and pair by pair, mults[0] = 0."""
    ells = [part + len(shape) - 1 - i for i, part in enumerate(shape)]
    mults = [0] * (ells[0] + 1)
    for ell in ells:
        for h in range(1, ell + 1):
            mults[h] += 1
    for top, low in combinations(ells, 2):
        mults[top - low] -= 1
    return mults


# past PRIME_POWER_CELLS: two shapes of many rows, rectangles, shapes plus
# a rectangle and a staircase
BIG_SHAPES = [
    (1_001,) + (1,) * 1_500,
    (5, 4, 4, 3) + (1,) * 800,
    (30,) * 30,
    (41,) * 20,
    (212,) * 70,
    add_rectangle((3, 2, 1), 10, 90),
    add_rectangle((5, 3, 3, 1), 12, 70),
    add_rectangle((4, 4, 2, 2, 1), 40, 25),
    tuple(range(45, 0, -1)),
]


def test_run_built_hook_mults_equal_the_row_pairs():
    # the trapezoids of the blocks against every row and row pair
    for total in range(1, 21):
        for lam in enumerate_partitions(total, total):
            for shape in (lam, _transpose(lam)):
                assert _hook_mults(shape) == _pair_mults(shape), shape
    for shape in BIG_SHAPES:
        assert weight(shape) >= PRIME_POWER_CELLS
        assert _hook_mults(shape) == _pair_mults(shape), shape


def test_hook_blocks_are_read_one_run_at_a_time():
    # three runs, bottom first: (1, 2), (2, 1) and (4, 2); the walk grows one
    # column list, so each run's columns are copied as they are read
    shape = (4, 4, 2, 1, 1)
    walk = [(rows, corner, list(columns)) for rows, corner, columns in _hook_blocks(_bottom_runs(shape))]
    assert walk == [(2, 2, [(1, 1)]), (1, 5, [(1, 1), (4, 1)]), (2, 8, [(1, 1), (4, 1), (7, 2)])]
    heights = _transpose(shape)
    hooks = [part - j + heights[j] - i - 1 for i, part in enumerate(shape) for j in range(part)]
    assert _hook_mults(shape) == [hooks.count(h) for h in range(max(hooks) + 1)]
    assert _count_by_division(shape) == syt_count_bruteforce(shape) == 4_455


def test_prime_powers_take_blocks_of_large_primes():
    # the primes above the largest hook l_1 have exponent k = |lam| // p;
    # each shape here has blocks of k >= 2, and one division agrees
    for shape in BIG_SHAPES[2:]:
        top = shape[0] + len(shape) - 1
        assert weight(shape) // (top + 1) >= 2, shape
        assert _count_by_prime_powers(shape) == _count_by_division(shape), shape


@st.composite
def rectangles_plus(draw):
    """A rectangle, or a small shape plus a rectangle, of 800..6,000 cells."""
    lam = draw(st.one_of(st.just(()), partitions(max_weight=12)))
    height = draw(st.integers(min_value=max(len(lam), 1), max_value=300))
    low, high = -(-(800 - weight(lam)) // height), (6_000 - weight(lam)) // height
    return add_rectangle(lam, height, draw(st.integers(min_value=low, max_value=high)))


@settings(max_examples=60, deadline=None)
@given(shape=rectangles_plus())
@example(shape=(401,) + (1,) * 499)  # a hook: no prime above l_1 = |lam|
@example(shape=(75,) * 80)  # 38 blocks of primes above l_1 = 154
@example(shape=add_rectangle((4, 2, 1), 60, 99))  # 36 blocks above l_1 = 162
def test_prime_powers_are_the_division_on_rectangles_plus(shape):
    assert 800 <= weight(shape) <= 6_000
    assert _count_by_prime_powers(shape) == _count_by_division(shape), shape


# below PRIME_POWER_CELLS: shapes plus rectangles of 10..40 rows, squares,
# many rows of two parts, and a staircase of 38 distinct parts
DIVIDED_SHAPES = [
    *(add_rectangle(lam, rows, width) for lam, rows, width in (
        ((3, 2, 1), 10, 40),
        ((4, 1, 1), 16, 30),
        ((5, 3, 3, 1), 24, 20),
        ((2, 2, 1, 1), 32, 12),
        ((3, 1), 40, 9),
        ((6, 4, 2), 40, 5),
    )),
    *((side,) * side for side in range(2, 29)),
    (4,) * 199 + (3,),
    (2,) * 200 + (1,) * 398,
    tuple(range(38, 0, -1)),
]


def test_division_by_blocks_equals_the_prime_powers():
    for shape in DIVIDED_SHAPES:
        assert weight(shape) < PRIME_POWER_CELLS, shape
        assert _count_by_division(shape) == _count_by_prime_powers(shape), shape


def _fresh_sieve(n):
    """The primes up to n by a sieve of every number, sharing no code with `_primes`."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * max(n - 1, 0)
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if is_prime[p]]


def _kept_within_cap(cap):
    bound, primes = KEPT.get(("primes",)) or (1, [])
    return bound <= cap and (not primes or primes[-1] <= bound)


def test_primes_equal_a_fresh_sieve_however_they_are_asked(monkeypatch):
    # below, at and past each power of two the kept list grows to, and
    # around the cap past which each call sieves and keeps nothing: under a
    # budget that holds the primes up to 2^17 and no more, that is 2^17
    cap = 2**17
    expected = _fresh_sieve(cap + 1)
    budget = _PRIME_BYTES * bisect_right(expected, cap)
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    sizes = {0, 1, 2, 3, 4, cap - 1, cap, cap + 1}
    sizes |= {2**k + step for k in range(2, 17) for step in (-1, 0, 1)}
    upto = {n: expected[: bisect_right(expected, n)] for n in sizes}
    for order in (sorted(sizes), sorted(sizes, reverse=True)):
        KEPT.clear()
        for n in order:
            assert _primes(n) == upto[n], n
            assert _kept_within_cap(cap), n
    KEPT.clear()
    assert _primes(cap + 1) == upto[cap + 1]
    assert KEPT.get(("primes",)) is None
    # a caller's list is its own: changing it leaves the kept list as it was
    _primes(1_000).clear()
    assert _primes(1_000) == _fresh_sieve(1_000)


def test_primes_grown_and_cleared_from_threads_stay_whole():
    # one reader never pairs a bound with a shorter list, whatever another
    # thread grows or clears between its steps, and a caller's list is its own
    expected = _fresh_sieve(2**14)
    errors = []

    def ask(seed):
        try:
            for i in range(300):
                n = (seed * 7919 + i * 104_729) % 2**14
                if i % 50 == seed:
                    KEPT.clear()
                asked = _primes(n)
                if asked != expected[: bisect_right(expected, n)]:
                    errors.append(n)
                asked.append(-1)  # the caller's to change
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert _kept_within_cap(2**14)


# rectangles of 800..6,000 cells, of 2 to 77 rows
PRIME_POWER_RECTANGLES = [
    (400,) * 2, (267,) * 3, (100,) * 8, (41,) * 20, (29,) * 29, (52,) * 33,
    (77,) * 40, (1_000,) * 3, (64,) * 64, (120,) * 50, (77,) * 77,
]


def test_prime_powers_from_the_kept_list_are_the_division():
    # counted largest first the list is sieved once, smallest first it
    # grows a power of two at a time
    assert all(800 <= weight(shape) <= 6_000 for shape in PRIME_POWER_RECTANGLES)
    for order in (True, False):
        KEPT.clear()
        for shape in sorted(PRIME_POWER_RECTANGLES, key=weight, reverse=order):
            assert _count_by_prime_powers(shape) == _count_by_division(shape), shape


def test_import_sieves_nothing():
    code = "import gaussdeg.cli, gaussdeg.partitions as p; print(p.KEPT.get(('primes',)))"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "None\n", "")


def test_many_rows_of_few_parts_count_by_runs():
    # (2, 1^20000) has 200 million row pairs but two runs; it counts 20001.
    # Below the switch (2, 1^797) counts 798 and the hook (399, 1^400)
    # C(798, 400): two runs, so three blocks of hooks each, where the row
    # pairs number 318,003 and 80,200
    start = time.process_time()
    assert syt_count_hook((2,) + (1,) * 20_000) == 20_001
    assert syt_count((2,) + (1,) * 797) == 798
    assert syt_count((399,) + (1,) * 400) == comb(798, 400)
    assert time.process_time() - start < 1


def test_syt_count_digits_estimates_the_count():
    for total in range(1, 17):
        for lam in enumerate_partitions(total, total):
            assert abs(syt_count_digits(lam) - log10(syt_count_hook(lam))) < 1e-12, lam
    for shape in BIG_SHAPES + [(200_000, 200_000), (2, 1) + (1,) * 20_000]:
        assert abs(syt_count_digits(shape) - log10(syt_count_hook(shape))) < 1e-8, shape
    # a hook (a, 1) counts a: the log-hooks of its long row cancel
    # lgamma(a + 2) to within 0.01 digits below 2^40 cells
    for a in (10**9, 10**12, 2**40 - 2):
        assert abs(syt_count_digits((a, 1)) - log10(a)) < 0.01, a
    # one row or one column is 1; the shape of a 6-million-digit count is
    # estimated without a list as long as its rows
    assert syt_count_digits((10**9,)) == syt_count_digits((1,) * 10**6) == 0
    assert 6_020_588 < syt_count_digits((10**7, 10**7)) < 6_020_590
    assert syt_count_digits((10**9, 10**9, 1)) > 6e8
    assert syt_count_digits((10**200, 1)) == float("inf")
    # from 2^40 cells on it would cancel only to its rounding ((10^16, 1)
    # read 0), so such a shape estimates as inf, never below its digits
    for a in (2**40 - 1, 10**14, 10**16):
        assert syt_count_digits((a, 1)) >= log10(a), a


def test_syt_count_digits_stops_past_its_limit():
    # the rows walked bottom up form a shape inside the staircase, with
    # no more tableaux: a partial sum past the limit is a lower bound
    staircase = tuple(range(60, 0, -1))
    digits = syt_count_digits(staircase)
    partial = syt_count_digits(staircase, limit=100)
    assert 100 < partial < digits
    assert syt_count_digits(staircase, limit=digits + 1) == digits


def test_big_shapes_match_closed_forms_without_hooks():
    # (k, k) counts the Catalan number C(2k, k)/(k+1); |lam|! over the rows'
    # factorials takes seconds here, the prime powers well under one
    k = 200_000
    start = time.process_time()
    catalan = syt_count_hook((k, k))
    assert time.process_time() - start < 1
    assert catalan == comb(2 * k, k) // (k + 1)
    # (a, b) counts the ballot number C(a+b, b) - C(a+b, b-1)
    a, b = 60_000, 20_000
    assert syt_count_hook((a, b)) == comb(a + b, b) - comb(a + b, b - 1)
    # the hook (a, 1^b) counts C(a+b-1, b): the first row holds 1 and any
    # a-1 of the other a+b-1 values
    for a, b in ((100_000, 2_000), (1_001, 1_500)):
        assert syt_count_hook((a,) + (1,) * b) == comb(a + b - 1, b)


def test_rsk_square_sum():
    # sum of f(lam)^2 over partitions of k counts permutations of k letters
    for k in range(11):
        total = sum(
            syt_count_hook(lam) ** 2 for lam in enumerate_partitions(k, max(k, 1))
        )
        assert total == factorial(k)
