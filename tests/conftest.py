"""Fixtures shared by every test module."""

import pytest

from gaussdeg.schur import cache_clear


@pytest.fixture(autouse=True)
def _empty_caches():
    # the process keeps Veronese tables, small tableau counts and a list of
    # primes across calls; a test that patches a formula behind them must
    # see it reached
    cache_clear()
