import pytest

from ghzsep import lpsolve


@pytest.fixture
def fresh_lp_cache():
    """Empty the cache of certified linear-program solutions around a test
    that patches the LP, so the patch is reached and its result is not kept."""
    lpsolve._certified_solve.cache_clear()
    yield
    lpsolve._certified_solve.cache_clear()
