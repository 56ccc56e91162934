import pytest

from spinsim.pulses import make_profile


@pytest.fixture(autouse=True)
def fresh_profiles():
    """Each test starts with no shared profile, so nothing one test derived (plans, step-matrix pieces,
    perhaps under a patched step program) reaches another."""
    make_profile.cache_clear()
    yield
    make_profile.cache_clear()
