"""The flight recorder against the real machine.

The load-bearing property: tracing is purely observational.  A traced
run must be architecturally bit-identical to an untraced one — same
console, same cycle counts, same outcome — across golden runs and a
seeded sample of campaign-A fs injections.
"""

import random

import pytest

from repro.injection.campaigns import plan_campaign, select_targets
from repro.injection.outcomes import CRASH_DUMPED, NOT_ACTIVATED
from repro.injection.runner import BOOT_MARKER
from repro.machine.machine import Machine, build_standard_disk
from repro.tracing.ring import CHANNELS, EV_SUBSYS


def fs_sample(harness, n=6, seed=2003):
    """A seeded sample of campaign-A fs injection specs."""
    functions = select_targets(harness.kernel, harness.profile, "A")
    specs = [s for s in plan_campaign(harness.kernel, "A", functions,
                                      seed=seed, byte_stride=40)
             if s.subsystem == "fs"]
    return random.Random(seed).sample(specs, min(n, len(specs)))


def arch_fingerprint(result):
    """Everything except the trace enrichment itself."""
    return {k: v for k, v in result.to_dict().items()
            if not k.startswith("trace_")}


class TestBitIdentity:
    def test_golden_run_is_bit_identical(self, harness, traced_harness):
        plain = harness.golden("syscall")
        traced = traced_harness.golden("syscall")
        assert traced.console == plain.console
        assert traced.exit_code == plain.exit_code
        assert traced.cycles == plain.cycles
        assert traced.boot_cycles == plain.boot_cycles
        assert traced.final_disk == plain.final_disk
        assert traced.result.trace is not None
        assert plain.result.trace is None

    def test_injected_runs_are_bit_identical(self, harness,
                                             traced_harness):
        import copy
        specs = fs_sample(harness)
        assert specs
        for spec in specs:
            plain = harness.run_spec(copy.deepcopy(spec), grade=False)
            traced = traced_harness.run_spec(copy.deepcopy(spec),
                                             grade=False)
            assert arch_fingerprint(traced) == arch_fingerprint(plain)

    def test_translated_golden_run_is_bit_identical(self,
                                                    interpreted_harness,
                                                    harness):
        plain = interpreted_harness.golden("syscall")
        translated = harness.golden("syscall")
        assert translated.console == plain.console
        assert translated.exit_code == plain.exit_code
        assert translated.cycles == plain.cycles
        assert translated.boot_cycles == plain.boot_cycles
        assert translated.final_disk == plain.final_disk

    def test_translated_injected_runs_are_bit_identical(
            self, interpreted_harness, harness):
        import copy
        specs = fs_sample(harness)
        assert specs
        for spec in specs:
            plain = interpreted_harness.run_spec(copy.deepcopy(spec),
                                                 grade=False)
            translated = harness.run_spec(
                copy.deepcopy(spec), grade=False)
            assert translated.to_dict() == plain.to_dict()

    def test_translated_traced_runs_match_traced(self, kernel, binaries,
                                                 profile,
                                                 traced_harness):
        # The strongest stamp contract: with tracing on, every trace_*
        # enrichment field derives from hook firing order and exact
        # cycle stamps, so a translated traced run must reproduce the
        # interpreter's traced result INCLUDING the trace fields.
        import copy
        from repro.injection.runner import InjectionHarness
        interpreted_traced = InjectionHarness(kernel, binaries, profile,
                                              trace=True, translate=False)
        for spec in fs_sample(traced_harness):
            plain = interpreted_traced.run_spec(copy.deepcopy(spec),
                                                grade=False)
            translated = traced_harness.run_spec(
                copy.deepcopy(spec), grade=False)
            assert translated.to_dict() == plain.to_dict()

    def test_traced_crashes_measure_divergence(self, traced_harness):
        import copy
        specs = fs_sample(traced_harness, n=12)
        crashes = 0
        for spec in specs:
            result = traced_harness.run_spec(copy.deepcopy(spec),
                                             grade=False)
            if result.outcome == NOT_ACTIVATED:
                assert result.trace_diverged is None
                continue
            assert result.trace_complete is True
            if result.outcome != CRASH_DUMPED:
                continue
            crashes += 1
            assert result.trace_diverged
            assert result.trace_flip_to_divergence_cycles is not None
            assert result.trace_flip_to_divergence_cycles >= 0
            assert result.trace_divergence_to_trap_cycles is not None
            # divergence cannot precede activation
            assert result.trace_divergence_cycle >= result.activation_tsc
            assert result.trace_subsystems
        # the seeded fs sample is known to contain dumped crashes
        assert crashes >= 1


class TestMachineTraceApi:
    def boot(self, kernel, binaries, workload="syscall"):
        machine = Machine(kernel,
                          build_standard_disk(binaries, workload))
        machine.run_until_console(BOOT_MARKER, max_cycles=10_000_000)
        return machine

    def test_unknown_channel_rejected(self, kernel, binaries):
        machine = self.boot(kernel, binaries)
        with pytest.raises(ValueError):
            machine.enable_trace(channels=("branch", "nonsense"))

    def test_subsys_channel_records_domain_transitions(self, kernel,
                                                       binaries):
        machine = self.boot(kernel, binaries)
        machine.enable_trace(channels=("subsys",))
        result = machine.run(max_cycles=120_000_000)
        assert result.status == "shutdown"
        transitions = result.trace.of_kind(EV_SUBSYS)
        assert transitions
        domains = {ev[5] for ev in transitions}
        assert "user" in domains
        # adjacent transitions actually change domain
        for ev in transitions:
            assert ev[4] != ev[5]

    def test_bounded_ring_reports_drops(self, kernel, binaries):
        machine = self.boot(kernel, binaries)
        machine.enable_trace(capacity=64)
        result = machine.run(max_cycles=120_000_000)
        trace = result.trace
        assert len(trace.events) == 64
        assert trace.dropped_events == trace.total_events - 64
        assert trace.dropped_events > 0

    def test_all_channels_accepted(self, kernel, binaries):
        machine = self.boot(kernel, binaries)
        machine.enable_trace(channels=CHANNELS, capacity=256)
        result = machine.run(max_cycles=120_000_000)
        kinds = {ev[0] for ev in result.trace.events}
        assert kinds  # windowed, but something of the mix is retained

    def test_clone_starts_untraced(self, kernel, binaries):
        machine = self.boot(kernel, binaries)
        machine.enable_trace()
        clone = machine.snapshot().clone()
        assert clone.tracer is None
        result = clone.run(max_cycles=120_000_000)
        assert result.trace is None


class TestOopsTraceSection:
    def test_annotated_crash_has_trace_section(self, kernel, binaries):
        from repro.analysis.oops import annotate_crash

        machine = Machine(kernel,
                          build_standard_disk(binaries, "syscall"))
        machine.run_until_console(BOOT_MARKER, max_cycles=10_000_000)
        machine.enable_trace(capacity=4096)
        info = next(f for f in kernel.functions
                    if f.name == "alloc_page")
        target = info.start + 12

        def flip(m):
            m.flip_bit(target, 2)

        machine.arm_breakpoint(target, flip)
        result = machine.run(max_cycles=120_000_000)
        assert result.crashes
        crash = result.crashes[-1]
        report = annotate_crash(kernel, crash, machine=machine,
                                trace=result.trace, trace_depth=6)
        assert "TRACE:" in report
        trace_lines = [line for line in report.splitlines()
                       if " -> " in line and "[" in line]
        assert 1 <= len(trace_lines) <= 6
        # every recorded branch retired at or before the dump
        for line in trace_lines:
            cycle = int(line.split("]")[0].split("[")[1])
            assert cycle <= crash.tsc

    def test_no_trace_no_section(self, kernel):
        from repro.analysis.oops import annotate_crash

        class FakeCrash:
            vector, error_code, cr2, eip = 14, 0, 0, 0xC0100000
            pid, tsc, recovered = 1, 1234, 0
            regs = {r: 0 for r in ("eax", "ebx", "ecx", "edx", "esi",
                                   "edi", "ebp", "esp")}

        report = annotate_crash(kernel, FakeCrash())
        assert "TRACE:" not in report
