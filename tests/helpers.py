"""Test helpers: run raw machine code, or user programs under the kernel,
and compare golden runs."""

from repro.cpu.cpu import CPU
from repro.cpu.devices import ConsoleDevice, MachineShutdown, \
    ShutdownDevice
from repro.cpu.memory import MemoryBus
from repro.injection.fabric import _RESULT_STATE, _SNAP_STATE
from repro.isa.assembler import assemble
from repro.machine.machine import Machine, build_standard_disk
from repro.userland.build import build_program
from repro.userland.programs import PROGRAMS

FLAT_BASE = 0x1000
FLAT_RAM = 0x100000
CONSOLE_AT = 0x200000
SHUTDOWN_AT = 0x200100


class FlatMachine:
    """A paging-less bare-metal harness for ISA/CPU unit tests."""

    def __init__(self, source, base=FLAT_BASE):
        self.program = assemble(source, base=base)
        self.bus = MemoryBus(FLAT_RAM)
        self.bus.phys_write_bytes(base, self.program.code)
        self.console = ConsoleDevice()
        self.bus.attach_device(CONSOLE_AT, 0x100, self.console)
        self.bus.attach_device(SHUTDOWN_AT, 0x100, ShutdownDevice())
        self.cpu = CPU(self.bus)
        self.cpu.eip = base
        self.cpu.regs[4] = 0x8000  # a stack, below the code

    def run(self, max_cycles=1_000_000):
        """Run to the shutdown port; returns the shutdown code."""
        try:
            self.cpu.run(max_cycles)
        except MachineShutdown as stop:
            return stop.code
        raise AssertionError("program did not shut down cleanly")

    def symbol(self, name):
        return self.program.symbols[name]

    def word_at(self, symbol_or_addr):
        addr = symbol_or_addr
        if isinstance(symbol_or_addr, str):
            addr = self.symbol(symbol_or_addr)
        return self.bus.phys_read(addr, 4)


def run_flat(source, max_cycles=1_000_000):
    """Assemble + run flat code; returns (shutdown_code, FlatMachine)."""
    machine = FlatMachine(source)
    code = machine.run(max_cycles=max_cycles)
    return code, machine


# Template for "compute a value, write it to the shutdown port".
RESULT_HARNESS = """
_start:
    mov esp, 0x8000
%s
    mov ebx, 0x200100
    mov [ebx], eax
    hlt
"""


def run_fragment(body, max_cycles=1_000_000):
    """Run an asm fragment; returns eax (via the shutdown port)."""
    code, _ = run_flat(RESULT_HARNESS % body, max_cycles=max_cycles)
    return code


def run_user_program(kernel, binaries, source, iters=0,
                     max_cycles=60_000_000, name="_test"):
    """Compile MinC *source* and run it as the machine's init process.

    Returns the RunResult.  The program must call ``reboot(code)`` (or
    fall off main, in which case the kernel stays up and the watchdog
    eventually fires — test programs should reboot).
    """
    PROGRAMS[name] = (source, iters)
    try:
        test_binaries = dict(binaries)
        test_binaries["init"] = build_program(name, iters=iters)
    finally:
        del PROGRAMS[name]
    disk = build_standard_disk(test_binaries, None)
    machine = Machine(kernel, disk)
    return machine.run(max_cycles=max_cycles)


USER_PRELUDE = """
int begin() {
    open("/dev/console");
    dup(0);
    dup(0);
    return 0;
}
"""


def decode_parts(snapshot):
    """A snapshot's decode-cache parts, with each decoded instruction
    named by its address, bytes and handler."""
    return [{key: (ins.addr, ins.raw, ins.run, stamps)
             for key, (ins, stamps) in part.items()}
            for part in snapshot.decoded]


def assert_same_golden(ours, theirs):
    """Golden run *ours* equals *theirs* field by field: the result, the
    coverage map and every checkpoint's state, decode-cache parts
    included, with the checkpoints sharing checkpoint 0's RAM."""
    assert ours.console == theirs.console
    assert ours.cycles == theirs.cycles
    assert ours.coverage == theirs.coverage
    assert ours.boot_cycles == theirs.boot_cycles
    for name in _RESULT_STATE:
        assert getattr(ours.result, name) == getattr(theirs.result, name), \
            name
    assert len(ours.checkpoints) == len(theirs.checkpoints)
    for mine, other in zip(ours.checkpoints, theirs.checkpoints):
        for name in _SNAP_STATE:
            if name != "decoded":
                assert getattr(mine, name) == getattr(other, name), name
        assert decode_parts(mine) == decode_parts(other)
        assert mine.ram is ours.snapshot.ram
