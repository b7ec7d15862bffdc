import pytest

from gaudin import repr_core


def _clear_shared_modules():
    repr_core.shared_irreducible.cache_clear()
    repr_core.shared_module.cache_clear()


@pytest.fixture
def fresh_modules():
    """Empty the per-process module caches before and after the test, so a
    test that counts module builds sees the same counts in any test order."""
    _clear_shared_modules()
    yield
    _clear_shared_modules()
