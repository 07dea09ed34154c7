"""Each test starts and ends with an empty sup_norm partner store, so a scan
made under one test's monkeypatches is never read by another test."""

import pytest

from padwhit import engine


@pytest.fixture(autouse=True)
def _empty_partner_store():
    engine._partners.cache_clear()
    yield
    engine._partners.cache_clear()
