"""Finished machines are freed by refcounting, not the cyclic GC.

Every clone, severity reboot, calibration clone and golden boot holds
8 MiB of RAM plus its decode cache or translated blocks.  The harness
closes each one (:meth:`Machine.close`) as soon as it has read the
run, so with the cyclic collector off no machine outlives the call
that built it, under either engine.
"""

import gc
import weakref

import pytest

from repro.injection import severity
from repro.injection.runner import InjectionHarness
from repro.isa.decoder import decode_all
from repro.machine.disk import FsckReport
from repro.machine.machine import Machine, MachineSnapshot, \
    build_standard_disk
from tests.test_injection_run import make_spec


@pytest.fixture
def built(monkeypatch):
    """One entry per machine booted or cloned during the test: weakrefs
    to the machine, its bus (which owns the RAM) and its CPU."""
    refs = []
    boot = Machine.__init__
    clone = MachineSnapshot.clone

    def track(machine):
        refs.append(tuple(weakref.ref(part) for part in
                          (machine, machine.bus, machine.cpu)))

    def tracked_boot(self, *args, **kwargs):
        boot(self, *args, **kwargs)
        track(self)

    def tracked_clone(self):
        machine = clone(self)
        track(machine)
        return machine

    monkeypatch.setattr(Machine, "__init__", tracked_boot)
    monkeypatch.setattr(MachineSnapshot, "clone", tracked_clone)
    return refs


@pytest.fixture
def no_gc():
    gc.disable()
    yield
    gc.enable()


@pytest.fixture(params=(False, True), ids=("interpreted", "translated"))
def fresh_harness(request, kernel, binaries, profile):
    return InjectionHarness(kernel, binaries, profile,
                            translate=request.param)


def alive(refs):
    return [parts for parts in refs
            if any(ref() is not None for ref in parts)]


def free_page_bug_spec(kernel):
    """Reversing free_page's BUG() guard: a dumped crash at once."""
    info = next(f for f in kernel.functions if f.name == "free_page")
    instrs = decode_all(kernel.code[info.start - kernel.base:
                                    info.end - kernel.base],
                        base=info.start)
    guard = next(ins for ins, after in zip(instrs, instrs[1:])
                 if ins.op == "jcc" and after.op == "ud2")
    return make_spec(kernel, "free_page",
                     1 if guard.raw[0] == 0x0F else 0, 0, campaign="C",
                     mnemonic="jcc", instr_addr=guard.addr)


class TestFinishedMachinesAreFreed:
    def test_golden_boot_machine(self, fresh_harness, built, no_gc):
        fresh_harness.golden("syscall")
        assert len(built) == 1
        assert alive(built) == []

    def test_crash_overhead_clone(self, fresh_harness, built, no_gc):
        fresh_harness.golden("syscall")
        del built[:]
        assert fresh_harness.crash_overhead() > 0
        assert len(built) == 1
        assert alive(built) == []

    def test_run_spec_clone_and_severity_reboot(self, kernel, binaries,
                                                fresh_harness, built,
                                                monkeypatch, no_gc):
        # Every fsck reports repairable damage, so grading reboots a
        # boot-only image: the run_spec clone and the reboot machine.
        boot_only = build_standard_disk(binaries, None)
        monkeypatch.setattr(
            severity, "fsck",
            lambda image, golden_files=None, repair=False:
            FsckReport("inconsistent", ["forced"], repaired=boot_only))
        spec = free_page_bug_spec(kernel)
        fresh_harness.assign_workload(spec)
        fresh_harness.crash_overhead()
        del built[:]
        result = fresh_harness.run_spec(spec)
        assert result.outcome == "crash_dumped"
        assert result.severity == "severe"
        assert len(built) == 2
        assert alive(built) == []
