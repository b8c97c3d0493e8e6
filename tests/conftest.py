"""Fixtures shared by every test module."""

import pytest

from gaussdeg.schur import cache_clear


@pytest.fixture(autouse=True)
def _empty_caches():
    # the process keeps tables with their plans, sweeps, alternate weights
    # and primes in one store, and small tableau counts in their own cache,
    # across calls; a test that patches a formula behind them, or the
    # store's budget, must see it reached
    cache_clear()
