"""Shared fixtures: expensive artifacts are built once per session."""

import pytest

from repro.kernel.build import build_kernel
from repro.userland.build import build_all_programs


@pytest.fixture(scope="session")
def kernel():
    return build_kernel()


@pytest.fixture(scope="session")
def binaries():
    return build_all_programs()


@pytest.fixture(scope="session")
def profile(kernel, binaries):
    from repro.profiling.sampler import profile_kernel
    from repro.userland.programs import WORKLOADS
    return profile_kernel(kernel, binaries, WORKLOADS)


@pytest.fixture(scope="session")
def harness(kernel, binaries, profile):
    from repro.injection.runner import InjectionHarness
    return InjectionHarness(kernel, binaries, profile)


@pytest.fixture(scope="session")
def traced_harness(kernel, binaries, profile):
    from repro.injection.runner import InjectionHarness
    return InjectionHarness(kernel, binaries, profile, trace=True)


@pytest.fixture(scope="session")
def interpreted_harness(kernel, binaries, profile):
    """The interpreter reference the translating default is checked
    against (the differential oracle)."""
    from repro.injection.runner import InjectionHarness
    return InjectionHarness(kernel, binaries, profile, translate=False)


@pytest.fixture(scope="session")
def retry_harness(kernel, binaries, profile):
    from repro.injection.runner import InjectionHarness
    return InjectionHarness(kernel, binaries, profile, disk_retries=2)


@pytest.fixture
def fresh_harness(kernel, binaries, profile):
    """A factory of harnesses that hold no golden runs yet, so a test
    sees them built; keyword arguments go to ``InjectionHarness``
    (``binaries`` among them)."""
    from repro.injection.runner import InjectionHarness

    def make(**kwargs):
        args = {"kernel": kernel, "binaries": binaries, "profile": profile}
        args.update(kwargs)
        return InjectionHarness(**args)
    return make
