import pytest

from gaudin import bethe_algebra, repr_core


def _clear_shared_caches():
    repr_core.shared_irreducible.cache_clear()
    repr_core.shared_module.cache_clear()
    bethe_algebra.shared_pole_operator.cache_clear()


@pytest.fixture
def fresh_modules():
    """Empty the per-process module and pole-operator caches before and
    after the test, so a test that counts module builds or determinants sees
    the same counts in any test order."""
    _clear_shared_caches()
    yield
    _clear_shared_caches()
