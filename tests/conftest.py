"""Fixtures shared by every test module."""

import pytest

from gaussdeg.partitions import KEPT


@pytest.fixture(autouse=True)
def _empty_caches():
    # the process keeps tables with their plans, sweeps, alternate weights,
    # primes and small tableau counts in one store across calls; a test that
    # patches a formula behind them, or the store's budget, must see it reached
    KEPT.clear()
