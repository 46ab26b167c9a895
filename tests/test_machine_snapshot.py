"""Machine snapshot/clone: must be indistinguishable from a fresh boot."""

from repro.cpu.cpu import WatchdogExpired
from repro.machine.machine import Machine, build_standard_disk


def sector_write_cycle(kernel, disk, nth):
    """The cycle count right after the boot's *nth* write of the disk
    controller's SECTOR register (1-based)."""
    machine = Machine(kernel, disk)
    seen = []
    write = machine.disk.mmio_write

    def spy(offset, size, value):
        write(offset, size, value)
        if offset == 0:
            seen.append(machine.cpu.cycles)

    machine.disk.mmio_write = spy
    machine.run_until_console("INIT: starting workload")
    machine.close()
    return seen[nth - 1]


def assert_clone_matches(machine):
    """Run *machine* and a clone of its snapshot to the end; they must
    agree bit for bit."""
    snapshot = machine.snapshot()
    original = machine.run(max_cycles=60_000_000)
    clone_result = snapshot.clone().run(max_cycles=60_000_000)
    assert clone_result.status == original.status == "shutdown"
    assert clone_result.console == original.console
    assert clone_result.cycles == original.cycles
    assert clone_result.instret == original.instret
    assert clone_result.disk_image == original.disk_image


class TestSnapshot:
    def test_clone_is_bit_identical(self, kernel, binaries):
        disk = build_standard_disk(binaries, "syscall")
        machine = Machine(kernel, disk)
        machine.run_until_console("INIT: starting workload")
        assert_clone_matches(machine)

    def test_clone_mid_transfer_is_bit_identical(self, kernel, binaries):
        disk = build_standard_disk(binaries, "syscall")
        machine = Machine(kernel, disk)
        # Between the 4th transfer's SECTOR and CMD writes: a clone
        # must carry the controller's registers to finish it.
        try:
            machine.cpu.run(sector_write_cycle(kernel, disk, 4))
        except WatchdogExpired:
            pass
        assert machine.disk.sector != 0
        assert_clone_matches(machine)

    def test_clones_are_independent(self, kernel, binaries):
        disk = build_standard_disk(binaries, "syscall")
        machine = Machine(kernel, disk)
        machine.run_until_console("INIT: starting workload")
        snapshot = machine.snapshot()
        first = snapshot.clone()
        second = snapshot.clone()
        # mutate the first clone's memory; second must be unaffected
        first.bus.phys_write(0x200000, 4, 0xDEAD)
        assert second.bus.phys_read(0x200000, 4) != 0xDEAD \
            or snapshot.ram[0x200000:0x200004] \
            == second.bus.ram[0x200000:0x200004]
        result = second.run(max_cycles=60_000_000)
        assert result.status == "shutdown"

    def test_clone_supports_injection(self, kernel, binaries):
        disk = build_standard_disk(binaries, "syscall")
        machine = Machine(kernel, disk)
        machine.run_until_console("INIT: starting workload")
        snapshot = machine.snapshot()
        clone = snapshot.clone()
        target = kernel.symbols["do_system_call"]
        hits = []
        clone.arm_breakpoint(target, lambda m: hits.append(m.cpu.cycles))
        clone.run(max_cycles=60_000_000)
        assert len(hits) == 1
