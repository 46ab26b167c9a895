"""Targeted single-injection experiments with known expected outcomes."""

import pytest

from repro.injection.campaigns import InjectionSpec
from repro.injection.outcomes import latency_bucket
from repro.injection.runner import BOOT_MARKER, InjectionHarness
from repro.machine.machine import Machine


def make_spec(kernel, function, byte_offset, bit, campaign="A",
              mnemonic="?", instr_addr=None):
    info = next(f for f in kernel.functions if f.name == function)
    return InjectionSpec(
        campaign=campaign,
        function=function,
        subsystem=info.subsystem,
        instr_addr=(instr_addr if instr_addr is not None else info.start),
        instr_len=1,
        byte_offset=byte_offset,
        bit=bit,
        mnemonic=mnemonic,
    )


def fresh_boot_calibration(kernel, golden):
    """The crash-overhead calibration as it was done by booting: a
    fresh fail-stop machine boots the golden disk, and ud2 is patched
    over ``do_system_call`` at its first post-boot execution."""
    target = kernel.symbols["do_system_call"]
    machine = Machine(kernel, golden.disk_image)
    machine.run_until_console(BOOT_MARKER, max_cycles=10_000_000)
    state = {}

    def callback(m):
        state["tsc"] = m.cpu.cycles
        m.write_byte(target, 0x0F)
        m.write_byte(target + 1, 0x0B)  # ud2

    machine.arm_breakpoint(target, callback)
    result = machine.run(max_cycles=golden.cycles * 2 + 10 ** 6)
    return result.crash.tsc - state["tsc"]


class TestKnownOutcomes:
    def test_uncovered_function_not_activated(self, kernel, harness):
        # crash_dump only runs when something crashes: never in golden.
        spec = make_spec(kernel, "crash_dump", 0, 0)
        result = harness.run_spec(spec)
        assert result.outcome == "not_activated"
        assert not result.activated

    def test_push_ebp_to_ud2_crashes_invalid_opcode(self, kernel,
                                                    harness):
        # Prologue byte 0x55 (push ebp); 0x55 ^ 0x40 = 0x15 -- actually
        # craft the exact ud2 by flipping nothing: instead corrupt the
        # prologue to an undefined opcode: 0x55 ^ (1<<6) = 0x15 is
        # "adc eax, imm32" (defined). Use bit 3: 0x55 ^ 8 = 0x5d (pop
        # ebp) -> stack imbalance. For determinism we pick sys_getpid
        # and flip bit 6: 0x55 -> 0x15 adc: swallows 4 bytes -> chaos.
        spec = make_spec(kernel, "sys_getpid", 0, 6)
        result = harness.run_spec(spec)
        assert result.activated
        assert result.outcome in ("crash_dumped", "crash_unknown",
                                  "hang", "fail_silence_violation",
                                  "not_manifested")

    def test_flip_je_to_jne_over_bug_gives_invalid_opcode(self, kernel,
                                                          harness):
        """The paper's Table 7 example 4: reversed branch lands on ud2.

        free_page() begins with a BUG() guard compiled as a conditional
        branch around ud2; reversing it executes the BUG for a healthy
        page.
        """
        from repro.isa.decoder import decode_all
        info = next(f for f in kernel.functions
                    if f.name == "free_page")
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        target = None
        instrs = decode_all(code, base=info.start)
        for i, ins in enumerate(instrs):
            if ins.op == "jcc" and i + 1 < len(instrs) \
                    and instrs[i + 1].op == "ud2":
                target = ins
                break
        assert target is not None, "no BUG() guard found in free_page"
        byte_offset = 1 if target.raw[0] == 0x0F else 0
        spec = make_spec(kernel, "free_page", byte_offset, 0,
                         campaign="C", mnemonic="jcc",
                         instr_addr=target.addr)
        result = harness.run_spec(spec)
        assert result.activated
        assert result.outcome == "crash_dumped"
        assert result.crash_cause == "invalid_opcode"
        assert result.crash_function == "free_page"
        assert result.crash_subsystem == "mm"
        # reversing the guard traps on the very next instruction
        assert result.latency < 100

    def test_espipe_fail_silence_violation(self, kernel, harness):
        """The paper's §8 FSV example: reverse pipe_read's ESPIPE check.

        The kernel then (falsely) reports -ESPIPE to a correct caller:
        a fail-silence violation, not a crash.
        """
        from repro.isa.decoder import decode_all
        info = next(f for f in kernel.functions
                    if f.name == "pipe_read")
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        first_jcc = next(i for i in decode_all(code, base=info.start)
                         if i.op == "jcc")
        byte_offset = 1 if first_jcc.raw[0] == 0x0F else 0
        spec = make_spec(kernel, "pipe_read", byte_offset, 0,
                         campaign="C", mnemonic="jcc",
                         instr_addr=first_jcc.addr)
        result = harness.run_spec(spec)
        assert result.activated
        assert result.outcome == "fail_silence_violation"
        assert "FAIL" in (result.console_tail or "")

    def test_not_manifested_when_flip_is_harmless(self, kernel, harness):
        """Flipping a bit in a debug-guard branch displacement is
        invisible: the guard is never taken."""
        from repro.isa.decoder import decode_all
        info = next(f for f in kernel.functions if f.name == "sys_read")
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        instrs = decode_all(code, base=info.start)
        # A branch to a cold error block (placed after the ret) is never
        # taken on the common path -- its displacement bytes are dead.
        ret_addr = next(i.addr for i in instrs if i.op == "ret")
        candidates = [i for i in instrs
                      if i.op == "jcc" and i.length == 6
                      and (i.addr + i.length + i.rel) > ret_addr]
        assert candidates
        target = candidates[0]
        spec = make_spec(kernel, "sys_read", 4, 2, campaign="B",
                         mnemonic="jcc", instr_addr=target.addr)
        result = harness.run_spec(spec)
        assert result.activated
        # displacement of a never-taken branch: nothing can happen
        assert result.outcome == "not_manifested"

    def test_crash_record_fields_consistent(self, kernel, harness):
        spec = make_spec(kernel, "free_page", 0, 6)  # push ebp -> adc
        result = harness.run_spec(spec)
        if result.outcome == "crash_dumped":
            assert result.crash_vector is not None
            assert result.crash_cause is not None
            assert result.latency is not None and result.latency >= 0
            assert result.severity in ("normal", "severe", "most_severe")

    def test_results_roundtrip_json(self, tmp_path, kernel, harness):
        from repro.injection.runner import CampaignResults
        spec = make_spec(kernel, "crash_dump", 0, 0)
        results = CampaignResults("A", [harness.run_spec(spec)],
                                  {"note": "test"})
        path = tmp_path / "results.json"
        results.save(str(path))
        loaded = CampaignResults.load(str(path))
        assert loaded.campaign == "A"
        assert loaded.results[0].outcome == "not_activated"
        assert loaded.meta["note"] == "test"


class TestHarnessInfrastructure:
    def test_golden_runs_cached(self, harness):
        first = harness.golden("syscall")
        second = harness.golden("syscall")
        assert first is second
        assert first.boot_cycles > 0
        assert first.workload_cycles > 0

    def test_golden_coverage_is_post_boot(self, kernel, harness):
        golden = harness.golden("syscall")
        # mount_root runs only during boot; must not be in coverage.
        mount = kernel.symbols["mount_root"]
        assert mount not in golden.coverage
        # the syscall dispatcher definitely runs post-boot.
        assert kernel.symbols["do_system_call"] in golden.coverage

    def test_crash_overhead_is_small_constant(self, harness):
        overhead = harness.crash_overhead()
        assert 0 < overhead < 2000
        assert harness.crash_overhead() == overhead

    @pytest.mark.parametrize("recovery,disk_retries",
                             [(False, 0), (False, 2), (True, 0), (True, 2)])
    def test_crash_overhead_matches_fresh_boot_calibration(
            self, kernel, binaries, profile, recovery, disk_retries):
        # The calibration clones the syscall golden snapshot and clears
        # the recovery ladder; it must read the same constant as the
        # fresh fail-stop boot it replaced, for every kernel
        # configuration, and cost no boot.
        calibrating = InjectionHarness(kernel, binaries, profile,
                                       recovery=recovery,
                                       disk_retries=disk_retries)
        golden = calibrating.golden("syscall")
        boots = calibrating.boots
        assert calibrating.crash_overhead() \
            == fresh_boot_calibration(kernel, golden)
        assert calibrating.boots == boots

    def test_latency_bucket_labels(self):
        assert latency_bucket(0) == "0-10"
        assert latency_bucket(9) == "0-10"
        assert latency_bucket(10) == "10-1e2"
        assert latency_bucket(12345) == "1e4-1e5"
        assert latency_bucket(1_000_000) == ">1e5"
        assert latency_bucket(None) is None
