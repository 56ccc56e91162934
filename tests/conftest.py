import pytest

from spinsim.experiments import self_test
from spinsim.pulses import make_profile


@pytest.fixture(autouse=True)
def fresh_profiles():
    """Each test starts with no shared profile, so nothing one test derived (plans, step-matrix pieces,
    perhaps under a patched step program) reaches another."""
    make_profile.cache_clear()
    yield
    make_profile.cache_clear()


@pytest.fixture(scope="session")
def self_test_checks():
    """The ``self_test`` checks, run once per session, by name."""
    return {check.name: check for check in self_test()}
