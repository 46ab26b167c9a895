"""Golden checkpoints: an injected run starts just before its trigger.

The golden workload run keeps a checkpoint every ``CHECKPOINT_EVERY``
cycles, and ``run_spec`` clones the last one before the golden first
executed the spec's trigger address instead of the post-boot snapshot.
Until the trigger fires an injected run *is* the golden run, so the
result must not depend on which of the two it was cloned from:

* every fault model, on the fail-stop and the recovery kernel, under
  the translated default and the interpreted oracle, gives the same
  ``to_dict()`` from its checkpoint as from the post-boot snapshot,
  including hangs (whose watchdog budget is anchored at the end of
  boot) and triggers in the first and the last window;
* windowed coverage has exactly the EIPs of one uninterrupted run;
* a page-delta checkpoint restores exactly what a full snapshot taken
  at the same instant holds, and the TLB and decode cache that a clone
  of the post-boot snapshot holds at that instant: a fetch that hits
  the decode cache skips the TLB fill a miss makes, and a stale TLB
  entry decides where a store through a corrupted page table lands.
"""

import copy
import random

import pytest

from repro.cpu.cpu import WatchdogExpired
from repro.injection.campaigns import InjectionSpec, plan_campaign, \
    select_targets
from repro.injection.faultmodels import plan_fault_model_campaign, \
    plan_register_campaign
from repro.injection.outcomes import HANG
from repro.injection.runner import GoldenRun, InjectionHarness
from repro.machine import machine as machine_module
from repro.machine.machine import CHECKPOINT_EVERY
from repro.userland.programs import WORKLOADS

SEED = 2003

#: kernel -> (campaign, byte stride, plan indices of pinned specs): one
#: that hangs, and on the recovery kernel one whose triple fault comes
#: a cycle later when the TLB still holds three code pages that a
#: clone with a cold decode cache refills after its checkpoint.
KERNELS = {
    "failstop": ("A", 20, (445,)),
    "recovery": ("B", 6, (1, 125)),
}


def window_flip(harness, workload, window):
    """An instruction flip at the lowest EIP that *workload*'s golden
    first executes in *window* (negative counts from the end), inside
    a function *workload* drives, so ``run_spec`` uses that golden."""
    golden = harness.golden(workload)
    window %= len(golden.checkpoints)
    for eip in sorted(e for e, w in golden.coverage.items()
                      if w == window):
        info = harness.kernel.find_function(eip)
        if info is not None \
                and harness.workload_priority(info.name)[0] == workload:
            return InjectionSpec(
                campaign="A", function=info.name,
                subsystem=info.subsystem, instr_addr=eip, instr_len=1,
                byte_offset=0, bit=1, mnemonic="window-%d" % window)
    raise AssertionError("no %s trigger first run in window %d"
                         % (workload, window))


def checkpoint_pool(harness, kernel_name):
    """A seeded pool of every fault model on one kernel.

    Pinned campaign sites, four drawn ones, two draws of each pluggable
    model, two register flips, an explicit multi-bit ``instr`` model
    flip, and flips at triggers first run in the first and the last
    window of their golden.
    """
    kernel, profile = harness.kernel, harness.profile
    campaign, stride, pinned = KERNELS[kernel_name]
    rng = random.Random("%s-%d" % (kernel_name, SEED))
    functions = select_targets(kernel, profile, campaign)
    sites = plan_campaign(kernel, campaign, functions, seed=SEED,
                          byte_stride=stride)
    pool = [sites[i] for i in pinned] + rng.sample(sites, 4)
    for kind in ("mem", "reg_trap", "intermittent", "disk"):
        pool += rng.sample(plan_fault_model_campaign(
            kernel, profile, kind, seed=SEED), 2)
    pool += rng.sample(plan_register_campaign(
        kernel, profile, seed=SEED, functions=functions), 2)
    multi = copy.deepcopy(rng.choice(sites))
    multi.fault_model = {"kind": "instr", "v": 1,
                         "bits": [[0, 2], [0, 5]]}
    pool.append(multi)
    pool.append(window_flip(harness, "spawn", 0))
    pool.append(window_flip(harness, "context1", -1))
    return pool


def valid_decodes(machine):
    """The decode-cache entries a fetch would hit, by their bytes."""
    versions = machine.bus.page_versions
    return {key: ins.raw
            for key, (ins, stamps) in machine.cpu._dcache.items()
            if all(versions[page] == stamp for page, stamp in stamps)}


@pytest.fixture(scope="module")
def harnesses(harness, interpreted_harness, kernel, binaries, profile):
    """kernel name -> (translated default, interpreted oracle)."""
    return {
        "failstop": (harness, interpreted_harness),
        "recovery": (
            InjectionHarness(kernel, binaries, profile, recovery=True),
            InjectionHarness(kernel, binaries, profile, recovery=True,
                             translate=False)),
    }


class TestCheckpointBitIdentity:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_checkpoint_clone_matches_boot_clone(self, harnesses,
                                                 kernel_name,
                                                 monkeypatch):
        translated, oracle = harnesses[kernel_name]
        pool = checkpoint_pool(translated, kernel_name)
        windows = set()
        outcomes = []
        for spec in pool:
            from_checkpoint = [
                h.run_spec(copy.deepcopy(spec), grade=False).to_dict()
                for h in (translated, oracle)]
            with monkeypatch.context() as patch:
                patch.setattr(GoldenRun, "checkpoint_for",
                              lambda golden, eip: golden.snapshot)
                from_boot = translated.run_spec(copy.deepcopy(spec),
                                                grade=False).to_dict()
            assert from_checkpoint == [from_boot, from_boot], spec
            outcomes.append(from_boot["outcome"])
            if from_boot["activated"]:
                golden = oracle.golden(from_boot["workload"])
                window = golden.coverage[spec.instr_addr]
                windows.add((window, len(golden.checkpoints)))
        assert HANG in outcomes
        assert any(window == 0 for window, _ in windows)
        assert any(window == last - 1 for window, last in windows)
        assert any(0 < window < last - 1 for window, last in windows)
        kinds = {(s.fault_model or {}).get("kind", "instr") for s in pool}
        assert kinds == {"instr", "mem", "reg", "reg_trap",
                         "intermittent", "disk"}


class TestWindowedGolden:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_coverage_keys_match_one_uninterrupted_run(self, harness,
                                                       workload):
        golden = harness.golden(workload)
        machine = golden.snapshot.clone()
        coverage = set()
        result = machine.run(max_cycles=120_000_000, coverage=coverage)
        machine.close()
        assert result.cycles == golden.cycles
        assert coverage == set(golden.coverage)
        windows = set(golden.coverage.values())
        assert windows <= set(range(len(golden.checkpoints)))
        stamps = [c.fields["cycles"] for c in golden.checkpoints]
        assert stamps[0] == golden.boot_cycles
        assert all(b - a >= CHECKPOINT_EVERY
                   for a, b in zip(stamps, stamps[1:]))
        assert stamps[-1] + CHECKPOINT_EVERY > golden.cycles

    @pytest.mark.parametrize("workload", ("fstime", "context1"))
    def test_checkpoint_holds_a_boot_clones_caches(self,
                                                   interpreted_harness,
                                                   workload):
        golden = interpreted_harness.golden(workload)
        machine = golden.snapshot.clone()
        for checkpoint in golden.checkpoints[1:]:
            try:
                machine.cpu.run(checkpoint.fields["cycles"])
            except WatchdogExpired:
                pass
            assert machine.cpu.cycles == checkpoint.fields["cycles"]
            assert machine.bus.tlb == checkpoint.tlb
            clone = checkpoint.clone()
            assert valid_decodes(clone) == valid_decodes(machine)
            clone.close()
        machine.close()

    @pytest.mark.parametrize("workload", ("fstime", "context1"))
    def test_page_delta_restores_a_full_snapshot(self, harness,
                                                 monkeypatch, workload):
        golden = harness.golden(workload)
        full = []
        checkpoint = machine_module._Checkpointer.__call__

        def also_full(checkpointer, cpu):
            checkpoint(checkpointer, cpu)
            full.append(checkpointer.machine.snapshot())

        monkeypatch.setattr(machine_module._Checkpointer, "__call__",
                            also_full)
        machine = golden.snapshot.clone()
        checkpoints = []
        machine.run(max_cycles=120_000_000, coverage={},
                    checkpoints=checkpoints)
        machine.close()
        assert len(checkpoints) == len(golden.checkpoints) > 2
        if workload == "fstime":
            assert any(c.sectors for c in checkpoints)
        for delta, reference in zip(checkpoints[1:], full):
            assert delta.ram is checkpoints[0].ram
            assert len(delta.pages) < 64
            clone = delta.clone()
            assert clone.bus.ram == reference.ram
            assert clone.disk.image == reference.disk
            clone.close()
            for name in ("fields", "regs", "tlb", "console",
                         "disk_state"):
                assert getattr(delta, name) == getattr(reference, name)
