"""Grassmannian invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussdeg.grassmann import GrassmannShape, grassmann_degree, grassmann_dim


def test_shape_validation():
    with pytest.raises(ValueError):
        GrassmannShape(3, 2)
    with pytest.raises(ValueError):
        GrassmannShape(-1, 2)
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


@given(r=st.integers(min_value=0, max_value=10), data=st.data())
def test_degree_duality(r, data):
    d = data.draw(st.integers(min_value=0, max_value=r))
    assert grassmann_degree(GrassmannShape(d, r)) == grassmann_degree(
        GrassmannShape(r - d, r)
    )

