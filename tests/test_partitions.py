"""Partition enumeration and tableau counting, checked against brute force."""

import time
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdeg.partitions import (
    HOOK_CACHE_SIZE,
    _syt_count_hook,
    add_rectangle,
    canonical,
    check_partition_terms,
    enumerate_partitions,
    pad,
    partition_count,
    partition_counts,
    syt_count_bruteforce,
    syt_count_hook,
    weight,
)

# p(0)..p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


@st.composite
def partitions(draw, max_weight=10):
    total = draw(st.integers(min_value=0, max_value=max_weight))
    return draw(st.sampled_from(enumerate_partitions(total, max(total, 1))))


def test_canonical_strips_zeros_and_validates():
    assert canonical((3, 1, 0, 0)) == (3, 1)
    assert canonical(()) == ()
    assert canonical((0, 0)) == ()
    with pytest.raises(ValueError):
        canonical((1, 2))
    with pytest.raises(ValueError):
        canonical((2, -1))


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
    assert time.process_time() - start < 1


def test_add_rectangle():
    assert add_rectangle((2,), 2, 1) == (3, 1)
    assert add_rectangle((1, 1), 2, 1) == (2, 2)
    assert add_rectangle((), 3, 0) == ()
    assert add_rectangle((), 2, 3) == (3, 3)
    with pytest.raises(ValueError):
        add_rectangle((1, 1, 1), 2, 5)


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


def test_syt_hook_reads_shapes_in_any_form():
    assert syt_count_hook([3, 1, 0]) == syt_count_hook((3, 1, 0, 0)) == syt_count_hook((3, 1)) == 3


def test_syt_hook_rejects_an_invalid_shape_on_every_call():
    # the shape is checked before the cache is consulted
    for _ in range(3):
        with pytest.raises(ValueError, match="weakly decreasing"):
            syt_count_hook((1, 2))


def test_syt_hook_cache_is_bounded():
    maxsize = _syt_count_hook.cache_info().maxsize
    assert maxsize is not None and maxsize == HOOK_CACHE_SIZE


@given(lam=partitions(), extra=st.integers(min_value=0, max_value=5))
def test_hook_padding_invariance(lam, extra):
    assert syt_count_hook(lam + (0,) * extra) == syt_count_hook(lam)


@given(lam=partitions())
def test_conjugate_involution_and_count_symmetry(lam):
    def transpose(shape):
        return tuple(sum(1 for part in shape if part > i) for i in range(max(shape, default=0)))

    assert transpose(transpose(lam)) == lam
    assert syt_count_hook(transpose(lam)) == syt_count_hook(lam)


def test_rsk_square_sum():
    # sum of f(lam)^2 over partitions of k counts permutations of k letters
    for k in range(11):
        total = sum(
            syt_count_hook(lam) ** 2 for lam in enumerate_partitions(k, max(k, 1))
        )
        assert total == factorial(k)
