"""Fixtures shared by every test module."""

import pytest

from gaussdeg.schur import cache_clear


@pytest.fixture(autouse=True)
def _empty_caches():
    # the process keeps Veronese tables and small tableau counts across
    # calls; a test that patches a formula behind them must see it reached
    cache_clear()
