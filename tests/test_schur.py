"""Segre coefficients, Schur values two ways, and integral tables."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussdeg.partitions import enumerate_partitions
from gaussdeg.schur import (
    SegreIntegralTable,
    SegreSequence,
    VeroneseVariety,
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
    s = SegreSequence((1, 3, 3, 1))
    assert s.at(0) == 1
    assert s.at(3) == 1
    assert s.at(4) == 0
    assert s.at(-1) == 0
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
    with pytest.raises(ValueError):
        schur_delta_determinant(s, (1, 1), 1)
    with pytest.raises(ValueError):
        schur_delta_determinant(s, (1,), 0)


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


def test_table_lookup_pads():
    table = veronese_integral_table(VeroneseVariety(2, 2))
    assert table.lookup((2, 0)) == table.lookup((2,)) == 3
    with pytest.raises(KeyError):
        table.lookup((1,))


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


@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=2, max_value=6),
)
def test_table_round_trip_property(n, d):
    table = veronese_integral_table(VeroneseVariety(n, d))
    assert SegreIntegralTable.from_json(table.to_json()) == table
