import pytest

from ghzsep import thresholds


@pytest.fixture
def fresh_lp_bounds():
    """Empty the cache of certified linear-program bounds around a test that
    patches the LP, so the patch is reached and its result is not kept."""
    thresholds._lp_bound.cache_clear()
    yield
    thresholds._lp_bound.cache_clear()
