"""Segre coefficients, Schur values two ways, and integral tables."""

import dataclasses
import json
import os
import random
import resource
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaussdeg.schur
from gaussdeg.partitions import enumerate_partitions
from gaussdeg.schur import (
    KEPT_TABLE_N,
    KEPT_TABLES,
    SegreIntegralTable,
    SegreSequence,
    VeroneseVariety,
    _det_int,
    schur_delta_determinant,
    schur_delta_veronese_closed,
    veronese_integral_table,
    veronese_segre,
    veronese_segre_sequence,
)


def expand_binomial_power(base_linear_coeff: int, exponent: int) -> list[int]:
    """Coefficients of (1 + c*h)^exponent by repeated polynomial multiplication."""
    coeffs = [1]
    for _ in range(exponent):
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a
            nxt[i + 1] += a * base_linear_coeff
        coeffs = nxt
    return coeffs


def test_veronese_variety_derived_fields():
    assert VeroneseVariety(1, 4).N == 4
    assert VeroneseVariety(2, 2).N == 5
    assert VeroneseVariety(2, 3).N == 9
    assert VeroneseVariety(3, 2).N == 9
    assert VeroneseVariety(3, 3).N == 19
    with pytest.raises(ValueError):
        VeroneseVariety(0, 3)
    with pytest.raises(ValueError):
        VeroneseVariety(2, 1)


def test_veronese_segre_known():
    v = VeroneseVariety(2, 2)
    assert veronese_segre(v, 0) == 1
    assert veronese_segre(v, 1) == 3
    assert veronese_segre(v, 2) == 3
    assert veronese_segre(v, 3) == 1
    assert veronese_segre(v, 4) == 0
    assert veronese_segre(v, -1) == 0
    assert veronese_segre(VeroneseVariety(1, 4), 1) == 6


def test_veronese_segre_against_expansion():
    for n in range(1, 5):
        for d in range(2, 6):
            v = VeroneseVariety(n, d)
            expected = expand_binomial_power(d - 1, n + 1)
            got = [veronese_segre(v, i) for i in range(n + 2)]
            assert got == expected


def test_segre_sequence_validation_and_indexing():
    assert SegreSequence((1, 3, 3, 1)).coefficients == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        SegreSequence((2, 3))
    with pytest.raises(ValueError):
        SegreSequence(())


def test_determinant_known():
    s = veronese_segre_sequence(VeroneseVariety(2, 2))
    # [[3, 3], [1, 3]] and [[3, 1], [0, 1]] by hand
    assert schur_delta_determinant(s, (1, 1), 2) == 6
    assert schur_delta_determinant(s, (2,), 2) == 3
    for length in range(1, 5):
        assert schur_delta_determinant(s, (), length) == 1
    # rows reaching past s_3 read zeros there: [[1, 0], [0, 1]], [[1, 0], [3, 1]]
    assert schur_delta_determinant(s, (3,), 2) == 1
    assert schur_delta_determinant(s, (3, 3), 2) == 1
    # a first row starting past s_3 is all zeros
    assert schur_delta_determinant(s, (4,), 1) == 0
    assert schur_delta_determinant(s, (4, 1), 3) == 0
    with pytest.raises(ValueError):
        schur_delta_determinant(s, (1, 1), 1)
    with pytest.raises(ValueError):
        schur_delta_determinant(s, (1,), 0)


def _leibniz(matrix):
    """Determinant as the signed sum over permutations, the definition."""
    total = 0
    for perm in permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(matrix[i][j] for i, j in enumerate(perm))
    return total


def test_det_int_pivot_search():
    # a zero leading entry takes a row swap, which flips the sign
    assert _det_int([[0, 1], [1, 0]]) == -1
    swapped = [[0, 2, 1], [0, 1, 3], [4, 0, 0]]
    assert _det_int(swapped) == _leibniz(swapped) == 20
    # an all-zero column below the pivot row has nothing to swap in
    assert _det_int([[0, 5], [0, 7]]) == 0
    assert _det_int([[1, 2, 3], [0, 0, 4], [0, 0, 5]]) == 0
    assert _det_int([]) == 1


def test_det_int_matches_leibniz_on_sparse_matrices():
    # sizes 1-3 are expanded directly, 4 and 5 eliminated: each size meets
    # the definition on sparse matrices, on full ones, and on full ones
    # whose first pivot is zero
    rng = random.Random(20151)
    sparse = [
        [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(size)] for _ in range(size)]
        for size in (rng.randint(1, 5) for _ in range(2000))
    ]
    dense = [
        [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(size)] for _ in range(size)]
        for size in range(1, 6)
        for _ in range(40)
    ]
    zero_pivot = [[[0, *row[1:]], *rest] for (row, *rest) in dense]
    for matrix in sparse + dense + zero_pivot:
        assert _det_int(matrix) == _leibniz(matrix), matrix


def test_closed_form_known():
    v = VeroneseVariety(2, 2)
    assert schur_delta_veronese_closed(v, (1, 1), 2) == 6
    assert schur_delta_veronese_closed(v, (2,), 2) == 3
    assert schur_delta_veronese_closed(v, (), 1) == 1
    with pytest.raises(ValueError):
        schur_delta_veronese_closed(v, (2, 1), 2)  # weight 3 > n = 2


def test_closed_form_length_invariance():
    for n in range(1, 5):
        v = VeroneseVariety(n, 3)
        for k in range(n + 1):
            for lam in enumerate_partitions(k, max(k, 1)):
                values = {
                    schur_delta_veronese_closed(v, lam, length)
                    for length in range(max(len(lam), 1), n + 2)
                }
                assert len(values) == 1


def test_closed_form_equals_determinant_sweep():
    for n in range(1, 5):
        for d in range(2, 6):
            v = VeroneseVariety(n, d)
            s = veronese_segre_sequence(v)
            for k in range(n + 1):
                for lam in enumerate_partitions(k, max(k, 1)):
                    for length in range(max(len(lam), 1), n + 1):
                        assert schur_delta_determinant(
                            s, lam, length
                        ) == schur_delta_veronese_closed(v, lam, length)


def test_integral_table_known():
    assert veronese_integral_table(VeroneseVariety(1, 4)).entries == {(1,): 6}
    assert veronese_integral_table(VeroneseVariety(2, 2)).entries == {
        (2,): 3,
        (1, 1): 6,
    }
    assert veronese_integral_table(VeroneseVariety(2, 3)).entries == {
        (2,): 12,
        (1, 1): 24,
    }


def test_integral_table_positivity():
    for n in range(1, 5):
        for d in range(2, 5):
            table = veronese_integral_table(VeroneseVariety(n, d))
            assert all(value > 0 for value in table.entries.values())


def test_veronese_tables_are_kept_within_their_bound():
    # every variety of one (n, d) reads one table while it is kept; the
    # process keeps the KEPT_TABLES used most recently, and never a table
    # past n = KEPT_TABLE_N or of a d of 64 bits or more
    kept = gaussdeg.schur._kept_table
    first = VeroneseVariety(2, 3).integral_table
    assert VeroneseVariety(2, 3).integral_table is first
    for d in range(2, KEPT_TABLES + 2):
        VeroneseVariety(1, d).integral_table
        assert kept.cache_info().currsize <= KEPT_TABLES
    assert VeroneseVariety(2, 3).integral_table is not first
    largest = VeroneseVariety(KEPT_TABLE_N, 2).integral_table
    assert VeroneseVariety(KEPT_TABLE_N, 2).integral_table is largest
    for n, d in ((KEPT_TABLE_N + 1, 2), (1, 2**64)):
        assert VeroneseVariety(n, d).integral_table is not VeroneseVariety(n, d).integral_table
    assert kept.cache_info().currsize == KEPT_TABLES


def test_a_kept_table_cannot_be_changed():
    # a table may be shared by every caller in the process, and so may its
    # plan: neither can be written through
    table = VeroneseVariety(2, 3).integral_table
    with pytest.raises(TypeError):
        table.entries[(2,)] = 0
    with pytest.raises(TypeError):
        del table.entries[(2,)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.entries = {(2,): 0, (1, 1): 0}
    plan = table.plan
    with pytest.raises(TypeError):
        plan.terms[0] = plan.terms[1]
    with pytest.raises(TypeError):
        plan.pairs[0] = (0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.plan = None
    assert VeroneseVariety(2, 3).integral_table.entries == {(2,): 12, (1, 1): 24}


def test_table_lookup_pads():
    table = veronese_integral_table(VeroneseVariety(2, 2))
    assert table.lookup((2, 0)) == table.lookup((2,)) == 3
    with pytest.raises(KeyError):
        table.lookup((1,))


def test_a_long_missing_key_is_echoed_cut():
    table = veronese_integral_table(VeroneseVariety(2, 2))
    with pytest.raises(KeyError) as exc:
        table.lookup((1,) * 100_000)
    (text,) = exc.value.args
    assert len(text) <= 300 and text.endswith("... (tuple of length 100,000)")


def test_table_validation():
    with pytest.raises(ValueError, match="^table is missing 1 of the 2 partitions of 2$"):
        SegreIntegralTable(n=2, N=5, entries={(2,): 3})  # (1,1) missing
    with pytest.raises(ValueError):
        SegreIntegralTable(n=2, N=5, entries={(2,): 3, (1, 1): 6, (1,): 1})
    with pytest.raises(ValueError):
        SegreIntegralTable(n=2, N=2, entries={(2,): 3, (1, 1): 6})
    with pytest.raises(ValueError):
        SegreIntegralTable(n=2, N=5, entries={(2,): 3, (1, 1): 6, (2, 0): 3})


def test_table_json_round_trip():
    table = veronese_integral_table(VeroneseVariety(2, 3))
    text = table.to_json()
    doc = json.loads(text)
    assert doc["n"] == 2 and doc["N"] == 9
    assert doc["entries"][0] == {"partition": [2], "integral": "12"}
    again = SegreIntegralTable.from_json(text)
    assert again == table


def test_table_json_refuses_a_huge_claimed_n_before_counting():
    text = json.dumps({"n": 10**6, "N": 10**7, "entries": [{"partition": [1], "integral": "2"}]})
    start = time.process_time()
    with pytest.raises(ValueError, match="^too large: n = 1000000 has over 1,000,000 partitions"):
        SegreIntegralTable.from_json(text)
    assert time.process_time() - start < 1
    # up to n = 60 the count is formed and reported as before
    text = json.dumps({"n": 40, "N": 100, "entries": []})
    with pytest.raises(ValueError, match="^table is missing 37338 of the 37338 partitions of 40$"):
        SegreIntegralTable.from_json(text)
    # a table built in the library is held to the same bound
    with pytest.raises(ValueError, match="^too large: n = 61 has over 1,000,000 partitions"):
        SegreIntegralTable(n=61, N=100, entries={})


def test_a_library_table_refuses_a_huge_n_at_once():
    # a child process with a time limit: p(10^6) unguarded runs for minutes
    code = "from gaussdeg.schur import SegreIntegralTable as T; T(n=10**6, N=10**7, entries={})"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    # CPU of the whole child: interpreter start-up, import and the call
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith(
        "ValueError: too large: n = 1000000 has over 1,000,000 partitions, one term each"
    )


def test_table_json_big_integers():
    table = SegreIntegralTable(
        n=1, N=100, entries={(1,): 10**40 + 7}
    )
    assert SegreIntegralTable.from_json(table.to_json()).lookup((1,)) == 10**40 + 7


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"n": 2, "entries": []}',
        '{"n": 2, "N": 5, "entries": {}}',
        '{"n": "2", "N": 5, "entries": []}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2]}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": 3},'
        ' {"partition": [1, 1], "integral": "6"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": "x"},'
        ' {"partition": [1, 1], "integral": "6"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": " 1_0 "},'
        ' {"partition": [1, 1], "integral": "6"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": "+7"},'
        ' {"partition": [1, 1], "integral": "6"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": "\\u0666"},'
        ' {"partition": [1, 1], "integral": "6"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [1, 2], "integral": "3"},'
        ' {"partition": [1, 1], "integral": "6"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": "3"}]}',
        '{"n": 2, "N": 5, "entries": [{"partition": [2], "integral": "3"},'
        ' {"partition": [2, 0], "integral": "3"},'
        ' {"partition": [1, 1], "integral": "6"}]}',
    ],
)
def test_table_json_schema_violations(text):
    with pytest.raises(ValueError):
        SegreIntegralTable.from_json(text)


# One fault each, as (n, N, (partition, integral) pairs, the message both
# the constructor and `from_json` give)
ONE_FAULT_TABLES = [
    pytest.param("2", 5, [([2], 3), ([1, 1], 6)], "'n' and 'N' must be integers", id="n-str"),
    pytest.param(1.5, 5, [([1], 3)], "'n' and 'N' must be integers", id="n-float"),
    pytest.param(True, 5, [([1], 3)], "'n' and 'N' must be integers", id="n-bool"),
    pytest.param(2, 5.0, [([2], 3), ([1, 1], 6)], "'n' and 'N' must be integers", id="N-float"),
    pytest.param(0, 5, [], "n must be >= 1", id="n-zero"),
    pytest.param(
        2, 5, [([1, 2], 3), ([1, 1], 6)], "parts not weakly decreasing: (1, 2)", id="order"
    ),
    pytest.param(2, 5, [([3, -1], 3), ([1, 1], 6)], "negative part in (3, -1)", id="negative"),
    pytest.param(
        2, 5, [([2], 3), ([1, 1], 6), ([1], 1)], "entry (1,) does not have weight 2", id="weight"
    ),
    pytest.param(
        2, 5, [([2], 3), ([2], 3), ([1, 1], 6)], "duplicate entry for partition (2,)", id="repeat"
    ),
    pytest.param(
        2,
        5,
        [([2, 0], 3), ([2], 3), ([1, 1], 6)],
        "duplicate entry for partition (2,)",
        id="repeat-padded",
    ),
    pytest.param(2, 5, [([2], 3)], "table is missing 1 of the 2 partitions of 2", id="missing"),
]


@pytest.mark.parametrize("n, big_n, pairs, expected", ONE_FAULT_TABLES)
def test_the_constructor_and_from_json_refuse_a_fault_alike(n, big_n, pairs, expected):
    doc = {
        "n": n,
        "N": big_n,
        "entries": [{"partition": parts, "integral": str(value)} for parts, value in pairs],
    }
    tried = [
        lambda: SegreIntegralTable.from_json(json.dumps(doc)),
        lambda: SegreIntegralTable(n=n, N=big_n, entries=pairs),
    ]
    mapping = {tuple(parts): value for parts, value in pairs}
    if len(mapping) == len(pairs):
        tried.append(lambda: SegreIntegralTable(n=n, N=big_n, entries=mapping))
    for make in tried:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == expected


@pytest.mark.parametrize("value", [Fraction(7, 2), 2.0, Decimal(3), "3"])
def test_the_constructor_refuses_an_integral_that_is_not_an_integer(value):
    with pytest.raises(TypeError):
        SegreIntegralTable(n=1, N=4, entries={(1,): value})


def test_the_constructor_keeps_an_integral_with_index():
    class Seven:
        def __index__(self):
            return 7

    table = SegreIntegralTable(n=1, N=4, entries=[((1,), Seven())])
    assert table == SegreIntegralTable(n=1, N=4, entries={(1,): 7})
    assert type(table.entries[(1,)]) is int


def test_the_closed_form_refuses_a_length_below_one():
    with pytest.raises(ValueError, match="^length must be positive$"):
        schur_delta_veronese_closed(VeroneseVariety(2, 2), (), 0)


@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=2, max_value=6),
)
def test_table_round_trip_property(n, d):
    table = veronese_integral_table(VeroneseVariety(n, d))
    assert SegreIntegralTable.from_json(table.to_json()) == table
