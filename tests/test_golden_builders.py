"""Golden runs built on every worker core before the workers fork.

A campaign with ``jobs`` (or a fabric ``pool``) > 1 builds the golden
runs it lacks in bins: the parent builds one, forked builders the
others and hand them back frozen (``InjectionHarness.build_goldens``).
Whoever built it, each golden run must equal the in-process one field
by field, and the campaign must equal a serial one.  The crash-latency
calibration is made before the fork too, once.  The session harnesses
already hold every golden run, so these tests use fresh ones.
"""

import os

import pytest

from repro.injection import runner
from repro.injection.campaigns import select_targets
from repro.injection.fabric import (
    FabricConfig,
    FabricCoordinator,
    SnapshotStore,
)
from repro.injection.runner import InjectionHarness
from tests.helpers import assert_same_golden

#: A campaign-C slice whose three specs need three guests.
CAMPAIGN = "C"
SEED = 7
STRIDE = 20
MAX_SPECS = 3
GUESTS = ("syscall", "looper", "fstime")


def run_slice(harness, jobs):
    return harness.run_campaign(CAMPAIGN, seed=SEED, byte_stride=STRIDE,
                                max_specs=MAX_SPECS, grade=False,
                                jobs=jobs)


@pytest.fixture(scope="module")
def serial(kernel, binaries, profile):
    """recovery -> (harness, campaign) of a serial in-process build."""
    built = {}

    def get(recovery):
        if recovery not in built:
            harness = InjectionHarness(kernel, binaries, profile,
                                       recovery=recovery)
            built[recovery] = (harness, run_slice(harness, 1))
        return built[recovery]
    return get


@pytest.fixture
def built_here(monkeypatch):
    """The workloads whose golden run this process boots itself."""
    workloads = []
    real = InjectionHarness._run_golden

    def spy(harness, workload):
        workloads.append(workload)
        return real(harness, workload)

    monkeypatch.setattr(InjectionHarness, "_run_golden", spy)
    return workloads


def dicts(campaign):
    return [r.to_dict() for r in campaign.results]


def test_slice_needs_three_guests(serial):
    harness, campaign = serial(False)
    assert sorted({r.workload for r in campaign.results}) \
        == sorted(GUESTS)
    assert campaign.meta["engine"]["goldens_built"] == 3
    assert campaign.meta["engine"]["golden_s"] > 0
    assert harness.boots == 3


@pytest.mark.parametrize("recovery", [False, True],
                         ids=["fail-stop", "recovery"])
def test_parallel_build_is_bit_identical(fresh_harness, serial,
                                         built_here, recovery):
    reference, expected = serial(recovery)
    built_here.clear()
    harness = fresh_harness(recovery=recovery)
    own = harness._golden_bins(GUESTS, 2)[0]
    campaign = run_slice(harness, 2)
    engine = campaign.meta["engine"]
    assert dicts(campaign) == dicts(expected)
    # the parent booted its own bin, and a builder delivered the rest
    assert built_here == own and len(own) < len(GUESTS)
    assert harness.boots == 3
    assert engine["goldens_built"] == 3
    assert engine["golden_s"] > 0
    assert engine["workers_spawned"] == 2
    for workload in GUESTS:
        assert_same_golden(harness.golden(workload),
                           reference.golden(workload))


def test_dead_builder_costs_no_result(fresh_harness, serial, built_here,
                                      monkeypatch):
    def die(harness, workloads, path):
        os._exit(1)

    monkeypatch.setattr(runner, "_golden_builder_main", die)
    reference, expected = serial(False)
    built_here.clear()
    harness = fresh_harness()
    campaign = run_slice(harness, 2)
    assert dicts(campaign) == dicts(expected)
    assert sorted(built_here) == sorted(GUESTS)
    assert harness.boots == 3
    assert campaign.meta["engine"]["goldens_built"] == 3
    assert campaign.meta["engine"]["workers_spawned"] == 2
    for workload in GUESTS:
        assert_same_golden(harness.golden(workload),
                           reference.golden(workload))


def test_failing_golden_raises_in_parent(fresh_harness, binaries):
    # Run as a guest, init exits at once with status 86.
    doomed = fresh_harness()._golden_bins(GUESTS, 2)[1][-1]
    broken = dict(binaries, **{doomed: binaries["init"]})
    with pytest.raises(RuntimeError) as serially:
        fresh_harness(binaries=broken).build_goldens(GUESTS)
    harness = fresh_harness(binaries=broken)
    with pytest.raises(RuntimeError) as in_parallel:
        harness.build_goldens(GUESTS, 2)
    assert str(in_parallel.value) == str(serially.value)
    assert str(serially.value).startswith(
        "golden run of %r failed" % doomed)


def test_cold_store_fabric_builds_on_pool_cores(fresh_harness, serial,
                                                tmp_path):
    _, expected = serial(False)
    store = SnapshotStore(str(tmp_path / "snapshots"))
    for label, built in (("cold", 3), ("warm", 0)):
        harness = fresh_harness(snapshot_store=store)
        campaign = FabricCoordinator(
            harness, FabricConfig(pool=2)).run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE, max_specs=MAX_SPECS,
            shard_count=2, workdir=str(tmp_path / label), grade=False)
        engine = campaign.meta["engine"]
        assert dicts(campaign) == dicts(expected), label
        assert engine["goldens_built"] == built, label
        assert harness.boots == built, label
        assert engine["workers_spawned"] == 2, label
        # the parent saved every entry the builders delivered
        assert store.misses == 3, label
    assert store.hits == 3


def test_serial_traced_and_single_builds_stay_in_process(fresh_harness,
                                                         built_here):
    assert fresh_harness().build_goldens(GUESTS) == 3
    assert fresh_harness(trace=True).build_goldens(GUESTS[:2], 2) == 2
    harness = fresh_harness()
    assert harness.build_goldens(GUESTS[:1], 2) == 1
    assert harness.build_goldens(GUESTS[:1], 2) == 0
    assert built_here == list(GUESTS) + list(GUESTS[:2]) + [GUESTS[0]]


def test_parent_failure_stops_its_builders(fresh_harness, binaries,
                                           monkeypatch):
    bins = fresh_harness()._golden_bins(GUESTS, 2)
    broken = dict(binaries, **{bins[0][0]: binaries["init"]})
    builders = []
    real = runner._GoldenBuilder.discard

    def spy(builder):
        builders.append(builder)
        real(builder)

    monkeypatch.setattr(runner._GoldenBuilder, "discard", spy)
    harness = fresh_harness(binaries=broken)
    with pytest.raises(RuntimeError):
        harness.build_goldens(GUESTS, 2)
    assert len(builders) == 1
    assert builders[0].process.exitcode is not None
    assert not os.path.exists(builders[0].path)
    assert not harness._builders


def test_parallel_campaign_calibrates_once_in_the_parent(
        fresh_harness, harness, kernel, profile, tmp_path, monkeypatch):
    """The workers inherit the crash-latency calibration: on a plan
    that crashes but drives no ``syscall`` spec, the parent boots the
    ``syscall`` golden for it once and no worker calibrates again."""
    functions = [f for f in select_targets(kernel, profile, "A")
                 if harness.workload_priority(f.name)[0] == "looper"]
    plan = dict(functions=functions, seed=7, byte_stride=5,
                max_specs=8, grade=False)
    expected = harness.run_campaign("A", **plan)
    assert {r.workload for r in expected.results} == {"looper"}
    assert any(r.latency is not None for r in expected.results)
    calibrations = str(tmp_path / "calibrations")
    real = InjectionHarness.crash_overhead

    def spy(self):
        if self._crash_overhead is None:
            with open(calibrations, "a") as fh:
                fh.write("%d\n" % os.getpid())
        return real(self)

    monkeypatch.setattr(InjectionHarness, "crash_overhead", spy)
    fresh = fresh_harness()
    campaign = fresh.run_campaign("A", jobs=2, **plan)
    assert dicts(campaign) == dicts(expected)
    assert campaign.meta["engine"]["workers_spawned"] == 2
    assert campaign.meta["engine"]["goldens_built"] == 1
    assert fresh.boots == 2             # looper, then syscall to calibrate
    with open(calibrations) as fh:
        assert fh.read().split() == [str(os.getpid())]
