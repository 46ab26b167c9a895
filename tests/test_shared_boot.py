"""Shared boot: one boot prefix continued as the boot of several images.

The standard workload images differ only in ``/etc/workload``, so their
boots are identical until the kernel first transfers a sector where the
images differ.  A snapshot of that prefix, rebased onto any of the
images, must run exactly like a fresh boot of it, and the profiler
built on it must produce the profile of eight fresh boots.
"""

from collections import Counter

import pytest

from repro.cpu.devices import DiskDevice
from repro.cpu.memory import MemoryBus
from repro.machine.machine import Machine, MachineSnapshot, \
    build_standard_disk, shared_boot
from repro.profiling.sampler import profile_kernel
from repro.userland.programs import WORKLOADS

INTERVAL = 211
SKIP = 260_000
BUDGET = 60_000_000


@pytest.fixture(scope="module")
def disks(binaries):
    return {w: build_standard_disk(binaries, w) for w in WORKLOADS}


@pytest.fixture(scope="module")
def fresh(kernel, disks):
    """workload -> (RunResult, samples) of a sampled boot from reset."""
    out = {}
    for workload, disk in disks.items():
        machine = Machine(kernel, disk)
        out[workload] = machine.run_sampled(
            max_cycles=BUDGET, sample_interval=INTERVAL, skip_cycles=SKIP)
        machine.close()
    return out


@pytest.fixture(scope="module")
def shared(kernel, disks):
    return shared_boot(kernel, list(disks.values()), window=INTERVAL,
                       limit=SKIP)


def reference_profile(kernel, fresh, workloads):
    """(total, kernel, user, {name: (samples, per_workload)})."""
    samples = Counter()
    per_workload = {}
    total = kernel_hits = 0
    for workload in workloads:
        for pc in fresh[workload][1]:
            total += 1
            info = kernel.find_function(pc)
            if info is None:
                continue
            kernel_hits += 1
            samples[info.name] += 1
            per_workload.setdefault(info.name, Counter())[workload] += 1
    return (total, kernel_hits, total - kernel_hits,
            {name: (n, dict(per_workload[name]))
             for name, n in samples.items()})


def observed_profile(profile):
    return (profile.total_samples, profile.kernel_samples,
            profile.user_samples,
            {f.name: (f.samples, dict(f.per_workload))
             for f in profile.functions.values() if f.samples})


class TestSharedBoot:
    def test_prefix_stops_before_sampling_and_divergence(self, shared,
                                                         disks):
        assert shared is not None
        assert 0 < shared.fields["cycles"] < SKIP
        size = DiskDevice.SECTOR_SIZE
        images = list(disks.values())
        for sector in shared.transferred:
            at = sector * size
            assert len({image[at:at + size] for image in images}) == 1

    @pytest.mark.parametrize("translate", [False, True],
                             ids=["interpreted", "translated"])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_rebased_clone_equals_fresh_boot(self, shared, disks, fresh,
                                             workload, translate):
        shared.translate = translate
        try:
            machine = shared.clone(disk=disks[workload])
        finally:
            shared.translate = False
        assert machine.translate == translate
        result = machine.run(max_cycles=BUDGET)
        machine.close()
        expected = fresh[workload][0]
        assert result.status == expected.status == "shutdown"
        assert result.exit_code == expected.exit_code
        assert result.console == expected.console
        assert result.cycles == expected.cycles
        assert result.instret == expected.instret
        assert result.disk_image == expected.disk_image

    def test_image_differing_in_a_transferred_sector_is_refused(
            self, shared, disks):
        sector = max(shared.transferred)
        image = bytearray(disks["syscall"])
        image[sector * DiskDevice.SECTOR_SIZE + 7] ^= 0x01
        with pytest.raises(ValueError, match="sector %d" % sector):
            shared.clone(disk=bytes(image))
        with pytest.raises(ValueError, match="bytes"):
            shared.clone(disk=disks["syscall"] + b"\0" * 512)

    def test_unrecorded_snapshot_cannot_be_rebased(self, kernel, disks):
        machine = Machine(kernel, disks["syscall"])
        snapshot = machine.snapshot()
        machine.close()
        with pytest.raises(ValueError, match="recorded no"):
            snapshot.clone(disk=disks["dhry"])

    def test_record_keeps_content_before_the_first_transfer(self):
        bus = MemoryBus(0x10000)
        image = bytes(range(256)) * 8
        disk = DiskDevice(bus, image)
        disk.transferred = {}
        bus.ram[0x1000:0x1200] = b"\xAA" * 512
        for offset, value in ((0, 1), (4, 1), (8, 0x1000),
                              (12, DiskDevice.CMD_WRITE),
                              (12, DiskDevice.CMD_READ)):
            disk.mmio_write(offset, 4, value)
        assert disk.status == DiskDevice.STATUS_OK
        assert disk.transferred == {1: image[512:1024]}
        assert disk.image[512:1024] == b"\xAA" * 512

    def test_profile_equals_fresh_boots(self, kernel, profile, fresh):
        assert observed_profile(profile) \
            == reference_profile(kernel, fresh, WORKLOADS)

    def test_one_workload_profile_shares_nothing(self, kernel, binaries,
                                                 disks, fresh,
                                                 monkeypatch):
        assert shared_boot(kernel, [disks["syscall"]], window=INTERVAL,
                           limit=SKIP) is None
        calls = Counter()
        boot = Machine.__init__
        clone = MachineSnapshot.clone

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Machine, "__init__", counted("boots", boot))
        monkeypatch.setattr(MachineSnapshot, "clone",
                            counted("clones", clone))
        single = profile_kernel(kernel, binaries, ["syscall"])
        assert calls == {"boots": 1}
        assert observed_profile(single) \
            == reference_profile(kernel, fresh, ["syscall"])
