"""Differential harness: translated execution is bit-identical.

The translated fast path is admissible as an experiment engine only if
it is indistinguishable from the interpreter on every observable the
campaigns record.  Three layers of evidence:

* a hypothesis lockstep property drawing random specs from a seeded
  pool (campaign-A fs flips plus every fault model) and comparing the
  full ``InjectionResult.to_dict()`` — registers, memory hash, cycle
  and instret stamps, dump records, outcome;
* a ≥200-spec seeded acceptance slice (campaign A, the intermittent
  fault model, and a recovery-kernel slice) compared wholesale;
* a cycle-budget bisection shrinker that, given a divergence, narrows
  it to the first architecturally divergent instruction — with a
  meta-test that plants a divergence and checks the shrinker finds
  exactly where it was planted.
"""

import copy
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.memory import MemoryBus
from repro.cpu.translate import BlockCache, CodeCache, code_cache
from repro.injection.campaigns import plan_campaign, select_targets
from repro.injection.faultmodels import plan_fault_model_campaign
from repro.isa.assembler import assemble

# ----------------------------------------------------------------------
# spec pool
# ----------------------------------------------------------------------


def spec_pool(harness):
    """A seeded, deterministic pool mixing every fault shape."""
    functions = select_targets(harness.kernel, harness.profile, "A")
    pool = [s for s in plan_campaign(harness.kernel, "A", functions,
                                     seed=2003, byte_stride=40)
            if s.subsystem == "fs"]
    for kind in ("mem", "reg_trap", "intermittent", "disk"):
        pool.extend(plan_fault_model_campaign(
            harness.kernel, harness.profile, kind, seed=2003,
            max_specs=6))
    return pool


class TestLockstepProperty:
    """Random draws from the pool must agree field-for-field."""

    _reference = {}  # index -> interpreter to_dict, shared across draws

    @given(index=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_spec_bit_identical(self, interpreted_harness,
                                       harness, index):
        pool = spec_pool(harness)
        spec = pool[index % len(pool)]
        key = index % len(pool)
        if key not in self._reference:
            self._reference[key] = interpreted_harness.run_spec(
                copy.deepcopy(spec), grade=False).to_dict()
        translated = harness.run_spec(
            copy.deepcopy(spec), grade=False).to_dict()
        assert translated == self._reference[key]


# ----------------------------------------------------------------------
# the ≥200-spec acceptance slice
# ----------------------------------------------------------------------


def _dicts(results):
    return [r.to_dict() for r in results]


class TestSeededSlice:
    def test_campaign_a_slice(self, interpreted_harness, harness):
        interp = interpreted_harness.run_campaign(
            "A", seed=2003, byte_stride=18, max_specs=140, grade=False,
            jobs=2)
        translated = harness.run_campaign(
            "A", seed=2003, byte_stride=18, max_specs=140,
            grade=False, jobs=2)
        assert len(interp) >= 140
        assert _dicts(translated) == _dicts(interp)

    def test_intermittent_fault_model_slice(self, interpreted_harness,
                                            harness):
        interp = interpreted_harness.run_campaign(
            "I", seed=2003, max_specs=40, grade=False, jobs=2)
        translated = harness.run_campaign(
            "I", seed=2003, max_specs=40, grade=False, jobs=2)
        assert len(interp) >= 20
        assert _dicts(translated) == _dicts(interp)

    def test_recovery_kernel_slice(self, kernel, binaries, profile):
        from repro.injection.runner import InjectionHarness
        interp_h = InjectionHarness(kernel, binaries, profile,
                                    recovery=True, translate=False)
        xlate_h = InjectionHarness(kernel, binaries, profile,
                                   recovery=True)
        interp = interp_h.run_campaign("A", seed=2003, byte_stride=40,
                                       max_specs=25, grade=False,
                                       jobs=2)
        translated = xlate_h.run_campaign("A", seed=2003,
                                          byte_stride=40,
                                          max_specs=25, grade=False,
                                          jobs=2)
        assert len(interp) >= 20
        assert _dicts(translated) == _dicts(interp)


class TestPinnedTiers:
    """A few campaign-A specs with every head bound at its first
    dispatch and either compiled there or never compiled, on a code
    cache no other test has warmed."""

    @pytest.mark.parametrize("compile_dispatches", (0, 10 ** 9),
                             ids=("compiled", "threaded"))
    def test_campaign_a_specs(self, interpreted_harness, harness,
                              monkeypatch, compile_dispatches):
        kernel = harness.kernel
        fresh = CodeCache(code_cache(kernel).leaders)
        monkeypatch.setattr(kernel, "_code_cache", fresh)
        monkeypatch.setattr("repro.cpu.translate.HOT_DISPATCHES", 1)
        monkeypatch.setattr("repro.cpu.translate.COMPILE_DISPATCHES",
                            compile_dispatches)
        functions = select_targets(kernel, harness.profile, "A")
        specs = plan_campaign(kernel, "A", functions, seed=2003,
                              byte_stride=40)
        for spec in specs[::len(specs) // 4][:4]:
            translated = harness.run_spec(copy.deepcopy(spec), grade=False)
            reference = interpreted_harness.run_spec(copy.deepcopy(spec),
                                                     grade=False)
            assert translated.to_dict() == reference.to_dict()
        makes = [tpl.make for ways in fresh.templates.values()
                 for tpl in ways if tpl.raw]
        assert makes
        if compile_dispatches:
            assert not any(makes)
        else:
            assert any(makes)


# ----------------------------------------------------------------------
# timer-IRQ boundaries
# ----------------------------------------------------------------------


class TestIrqBoundary:
    def test_sampled_profile_matches_interpreter(self, kernel, binaries):
        # Kernprof-style sampling stops the run every 211 cycles.  The
        # interpreter delivers a timer IRQ and executes the handler's
        # first instruction in one loop iteration, before any budget
        # test, so a window whose budget the delivery crosses must
        # stop both engines at the same instruction.
        from repro.machine.machine import Machine, build_standard_disk
        runs = []
        for translate in (False, True):
            machine = Machine(kernel, build_standard_disk(binaries, "dhry"),
                              translate=translate)
            result, samples = machine.run_sampled(sample_interval=211,
                                                  skip_cycles=260_000)
            runs.append((result.cycles, result.instret, samples))
        assert runs[0][2]
        assert runs[1] == runs[0]


# ----------------------------------------------------------------------
# shrink-to-first-divergent-instruction
# ----------------------------------------------------------------------

BASE = 0x1000

SHRINK_SRC = """
_start:
    mov eax, 0
    mov ecx, 50
loop:
target:
    add eax, 1
    xor edx, eax
    dec ecx
    jne loop
    hlt
"""


def _state(cpu, include_ram=True):
    state = (tuple(cpu.regs), cpu.eip, cpu.instret,
             cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf)
    if include_ram:
        state += (hashlib.sha256(bytes(cpu.bus.ram)).hexdigest(),)
    return state


def _run_to(source, budget, translated, prepare=None,
            include_ram=True):
    """Fresh machine run to an absolute cycle budget; returns state.

    Both engines test ``cycles >= max_cycles`` at their loop heads,
    so a budget cuts both at the identical retirement boundary.
    """
    program = assemble(source, base=BASE)
    bus = MemoryBus(0x100000)
    bus.phys_write_bytes(BASE, program.code)
    cpu = CPU(bus)
    cpu.eip = BASE
    cpu.regs[4] = 0x8000
    cache = BlockCache(bus) if translated else None
    if prepare is not None:
        prepare(cpu, translated)
    try:
        if translated:
            cache.run(cpu, budget)
        else:
            cpu.run(budget)
    except (CpuHalted, WatchdogExpired):
        pass
    return _state(cpu, include_ram)


def first_divergence(source, limit=100_000, prepare=None,
                     include_ram=True):
    """Bisect the cycle budget down to the first divergent instruction.

    Returns ``None`` when interpreter and translator agree at
    ``limit``; otherwise a dict pinpointing the minimal budget at
    which the two engines differ, the address of the instruction that
    retired there, and both end states.  Re-running from scratch at
    every probe is sound because both engines are deterministic.
    ``include_ram=False`` drops the RAM hash from the metric — needed
    when the caller plants a divergence by seeding the two engines
    with different code bytes, which would otherwise register as a
    budget-0 divergence.
    """

    def probe(budget, translated):
        return _run_to(source, budget, translated, prepare,
                       include_ram)

    if probe(limit, False) == probe(limit, True):
        return None
    lo, hi = 0, limit  # invariant: agree at lo, diverge at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid, False) == probe(mid, True):
            lo = mid
        else:
            hi = mid
    agreed = probe(lo, False)
    return {
        "budget": hi,
        "eip": agreed[1],          # the next-to-retire = divergent ins
        "instret": agreed[2],
        "interp": probe(hi, False),
        "translated": probe(hi, True),
    }


class TestShrinker:
    def test_identical_engines_report_no_divergence(self):
        assert first_divergence(SHRINK_SRC) is None

    def test_planted_divergence_is_localized(self):
        # Plant a fault visible only to the translated engine: patch
        # the `add eax, 1` immediate to 2 in ITS ram before execution.
        # The engines then genuinely run different programs and the
        # shrinker must pin the first divergence to that instruction.
        program = assemble(SHRINK_SRC, base=BASE)
        target = program.symbols["target"]

        def prepare(cpu, translated):
            if translated:
                cpu.bus.phys_write(target + 2, 1, 2)

        report = first_divergence(SHRINK_SRC, prepare=prepare,
                                  include_ram=False)
        assert report is not None
        assert report["eip"] == target
        assert report["interp"] != report["translated"]
        # minimal: one cycle earlier the engines still agreed
        assert _run_to(SHRINK_SRC, report["budget"] - 1, False,
                       prepare, include_ram=False) \
            == _run_to(SHRINK_SRC, report["budget"] - 1, True,
                       prepare, include_ram=False)
