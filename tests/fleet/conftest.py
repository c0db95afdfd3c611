"""Fleet fixtures: the trusted toolchain a release registry needs."""

import pytest

from repro.fleet.adapters.sim import boot_toolchain, default_fleet_spec


@pytest.fixture
def toolchain():
    """The toolchain's verifier, booted from the canonical fleet
    image."""
    return boot_toolchain(default_fleet_spec(seed=0))
