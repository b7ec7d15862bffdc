import pytest

from gaudin import bethe_algebra, repr_core

# the modules whose `shared_*` caches hold per-process state keyed by shape
SHARED_CACHE_MODULES = (repr_core, bethe_algebra)


def shared_caches():
    """Every `shared_*` lru_cache of SHARED_CACHE_MODULES, found by its
    `cache_clear`."""
    return [fn for module in SHARED_CACHE_MODULES
            for name, fn in sorted(vars(module).items())
            if name.startswith("shared_") and hasattr(fn, "cache_clear")]


def _clear_shared_caches():
    for cache in shared_caches():
        cache.cache_clear()


@pytest.fixture
def fresh_modules():
    """Empty the per-process module, pole-operator and subspace caches
    before and after the test, so a test that counts module builds or
    determinants sees the same counts in any test order."""
    _clear_shared_caches()
    yield
    _clear_shared_caches()
