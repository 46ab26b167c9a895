"""Block-cache self-invalidation: a stale closure never executes.

The translated fast path (:mod:`repro.cpu.translate`) caches compiled
closures keyed by PC.  Every store path notifies the cache with the
physical byte range written; any translated block whose bytes overlap
must be evicted *and*, when the store came from inside the running
block itself, the closure must side-exit at the next instruction
boundary instead of finishing stale.  These tests drive the cache and
the plain interpreter through identical budget-interleaved flip
protocols and require bit-identical architectural state throughout —
the same contract the injection campaigns rely on.

The protocols flip bytes of *resident* blocks, so every test here pins
the tiering thresholds: a head is bound the first time dispatch meets
it, and compiled there too.  Each class runs once more as its
``...Threaded`` subclass with promotion out of reach, so the same
protocols hold threaded traces to the same contract
(tests/test_translate_tiering.py covers the production thresholds).
"""

import hashlib

import pytest

from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.memory import MemoryBus, PageTableBuilder
from repro.cpu.translate import BlockCache
from repro.isa.assembler import assemble

BASE = 0x1000

LOOP_SRC = """
_start:
    mov eax, 0
    mov ecx, 200
loop:
target:
    add eax, 1
    nop
    dec ecx
    jne loop
    hlt
"""


def build(source=LOOP_SRC, translate=False, ram=0x100000):
    program = assemble(source, base=BASE)
    bus = MemoryBus(ram)
    bus.phys_write_bytes(BASE, program.code)
    cpu = CPU(bus)
    cpu.eip = BASE
    cpu.regs[4] = 0x8000
    cache = BlockCache(bus) if translate else None
    return cpu, program, cache


#: COMPILE_DISPATCHES of the ``...Threaded`` classes: never reached.
NEVER = 10 ** 9


@pytest.fixture
def pinned_tiers(request, monkeypatch):
    """Bind every head at its first dispatch and compile it there,
    unless the test class sets ``compile_dispatches``."""
    monkeypatch.setattr("repro.cpu.translate.HOT_DISPATCHES", 1)
    monkeypatch.setattr("repro.cpu.translate.COMPILE_DISPATCHES",
                        getattr(request.cls, "compile_dispatches", 0))


def fingerprint(cpu):
    return (tuple(cpu.regs), cpu.eip, cpu.cycles, cpu.instret,
            cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf,
            hashlib.sha256(bytes(cpu.bus.ram)).hexdigest())


def drive(cpu, cache, protocol, drain=1_000_000):
    """Run ``protocol`` = [(absolute_budget, [(addr, size, val), ...])].

    Both engines test ``cycles >= max_cycles`` at their loop heads, so
    for any budget they stop at the identical architectural point —
    which makes interleaved flips land on the same instruction
    boundary on either engine.
    """
    step = (lambda b: cache.run(cpu, b)) if cache is not None \
        else cpu.run
    for budget, writes in protocol:
        try:
            step(budget)
        except WatchdogExpired:
            pass
        except CpuHalted:
            return
        for addr, size, value in writes:
            cpu.bus.phys_write(addr, size, value)
    try:
        step(drain)
    except CpuHalted:
        pass


def both_engines(source, protocol):
    """Run the protocol on interpreter and translated cache; return
    (interp_fingerprint, translated_fingerprint, cache)."""
    cpu_i, _, _ = build(source)
    drive(cpu_i, None, protocol)
    cpu_t, _, cache = build(source, translate=True)
    drive(cpu_t, cache, protocol)
    return fingerprint(cpu_i), fingerprint(cpu_t), cache


@pytest.mark.usefixtures("pinned_tiers")
class TestFlipInvalidation:
    def test_flip_inside_block_matches_interpreter(self):
        # Flip the `add eax, 1` immediate to 3 mid-loop: the resident
        # block must be evicted and the retranslation must see the new
        # byte — exactly when the interpreter's decode cache does.
        program = assemble(LOOP_SRC, base=BASE)
        target = program.symbols["target"]
        protocol = [(40, [(target + 2, 1, 3)])]
        fp_i, fp_t, cache = both_engines(LOOP_SRC, protocol)
        assert fp_i == fp_t
        assert cache.stats()["invalidations"] > 0
        # some iterations added 1, the rest 3
        assert fp_i[0][0] > 200

    def test_intermittent_flip_restore(self):
        # The intermittent fault model flips a byte and restores it a
        # few cycles later.  Both the flip and the restore are stores
        # into translated code: each must invalidate, and the restored
        # block must execute the ORIGINAL semantics again.
        program = assemble(LOOP_SRC, base=BASE)
        target = program.symbols["target"]
        protocol = [
            (40, [(target + 2, 1, 5)]),     # flip imm 1 -> 5
            (120, [(target + 2, 1, 1)]),    # restore
        ]
        fp_i, fp_t, cache = both_engines(LOOP_SRC, protocol)
        assert fp_i == fp_t
        assert cache.stats()["invalidations"] >= 2

    def test_counters_reflect_flush(self):
        cpu, program, cache = build(translate=True)
        target = program.symbols["target"]
        try:
            cache.run(cpu, 40)
        except WatchdogExpired:
            pass
        before = cache.stats()
        assert before["resident"] == len(cache.blocks) > 0
        cpu.bus.phys_write(target + 2, 1, 3)
        after = cache.stats()
        assert after["invalidations"] > before["invalidations"]
        assert after["resident"] == len(cache.blocks)
        assert after["resident"] < before["resident"]

    def test_pin_selects_the_tier(self):
        cpu, _, cache = build(translate=True)
        drive(cpu, cache, [])
        stats = cache.stats()
        if getattr(self, "compile_dispatches", 0) == 0:
            assert stats["compiled"] == stats["blocks"] > 0
            assert stats["threaded"] == 0
        else:
            assert stats["threaded"] == stats["blocks"] > 0
            assert stats["compiled"] == 0


class TestFlipInvalidationThreaded(TestFlipInvalidation):
    compile_dispatches = NEVER


@pytest.mark.usefixtures("pinned_tiers")
class TestBoundaryWrites:
    def _resident_block(self):
        cpu, program, cache = build(translate=True)
        try:
            cache.run(cpu, 40)
        except WatchdogExpired:
            pass
        key = (cpu.bus.tlb_gen, BASE, 0)
        block = cache.blocks[key]
        assert block.ranges, "block registered no byte ranges"
        return cpu, cache, key, block

    def test_write_at_first_byte_evicts(self):
        cpu, cache, key, block = self._resident_block()
        _page, lo, _hi = block.ranges[0]
        cpu.bus.phys_write(lo, 1, 0x90)
        assert key not in cache.blocks
        assert cache.stale

    def test_write_at_last_byte_evicts(self):
        cpu, cache, key, block = self._resident_block()
        _page, _lo, hi = block.ranges[-1]
        cpu.bus.phys_write(hi - 1, 1, 0x90)
        assert key not in cache.blocks

    def test_write_one_past_end_is_ignored(self):
        cpu, cache, key, block = self._resident_block()
        _page, _lo, hi = block.ranges[-1]
        invalidations = cache.invalidations
        cpu.bus.phys_write(hi, 1, 0x90)
        assert key in cache.blocks
        assert cache.invalidations == invalidations
        assert not cache.stale

    def test_write_just_before_start_is_ignored(self):
        cpu, cache, key, block = self._resident_block()
        _page, lo, _hi = block.ranges[0]
        invalidations = cache.invalidations
        cpu.bus.phys_write(lo - 1, 1, 0x90)
        assert key in cache.blocks
        assert cache.invalidations == invalidations


class TestBoundaryWritesThreaded(TestBoundaryWrites):
    compile_dispatches = NEVER


@pytest.mark.usefixtures("pinned_tiers")
class TestSelfModifyingStore:
    SMC_SRC = """
_start:
    mov eax, 0
    mov ecx, 6
loop:
    mov dword [patch + 2], %d
patch:
    add eax, 1
    nop
    dec ecx
    jne loop
    hlt
"""

    def _source(self):
        # The store rewrites the add's immediate (patch+2) to 3 while
        # preserving the following three bytes verbatim — a CPL0 store
        # that lands INSIDE the very trace executing it.
        prog = assemble(self.SMC_SRC % 0, base=BASE)
        patch = prog.symbols["patch"]
        code = prog.code
        off = patch - BASE + 2
        tail = code[off + 1:off + 4]
        newdw = int.from_bytes(bytes([3]) + tail, "little")
        return self.SMC_SRC % newdw

    def test_mid_trace_store_side_exits(self):
        # Without the stale side-exit the translated closure would run
        # the OLD `add eax, 1` to block end while the interpreter
        # fetches the new bytes immediately: eax would diverge.
        source = self._source()
        fp_i, fp_t, cache = both_engines(source, [])
        assert fp_i == fp_t
        assert fp_i[0][0] == 18  # every iteration saw the patched +3
        assert cache.stats()["invalidations"] > 0

    def test_smc_under_interleaved_budgets(self):
        # Same program, but chop execution into small budget slices so
        # dispatch re-enters mid-loop; identity must hold at every cut.
        source = self._source()
        protocol = [(b, []) for b in range(5, 60, 7)]
        fp_i, fp_t, _cache = both_engines(source, protocol)
        assert fp_i == fp_t


class TestSelfModifyingStoreThreaded(TestSelfModifyingStore):
    compile_dispatches = NEVER


@pytest.mark.usefixtures("pinned_tiers")
class TestByteStores:
    """Compiled ``mov m8, r8`` / ``mov m8, imm8`` stores on a paged code
    page: one rewrites an immediate of the running trace, the others
    land beside the code.  With ``trace_write`` armed every store takes
    the slow path, whose hook must see what the interpreter's does at
    the same counters; unarmed they take the inline path."""

    SRC = """
_start:
    mov eax, 0
    mov ecx, 40
    mov ebx, data
loop:
    mov edx, ecx
    and edx, 7
    mov byte [patch + 2], dl
patch:
    add eax, 1
    mov byte [ebx], cl
    mov byte [ebx + 1], ch
    mov byte [ebx + 2], 0x5a
    dec ecx
    jne loop
    hlt
data:
    .long 0
"""

    def _run(self, translate, armed):
        cpu, _, cache = build(self.SRC, translate=translate)
        tables = PageTableBuilder(cpu.bus, 0x80000)
        tables.map_range(0, 0, 0x10000)
        tables.activate()
        writes = []
        if armed:
            cpu.trace_write = lambda ea, size, value: writes.append(
                (ea, size, value, cpu.cycles, cpu.instret, cpu.eip))
        drive(cpu, cache, [(b, []) for b in range(5, 200, 13)])
        return fingerprint(cpu), writes, cache

    @pytest.mark.parametrize("armed", (True, False),
                             ids=("trace_write", "inline"))
    def test_byte_stores_match_interpreter(self, armed):
        fp_i, writes_i, _ = self._run(False, armed)
        fp_t, writes_t, cache = self._run(True, armed)
        assert fp_t == fp_i
        assert writes_t == writes_i
        assert len(writes_i) == (160 if armed else 0)
        assert fp_i[0][0] == sum(n & 7 for n in range(1, 41))
        assert cache.compiled > 0 and cache.invalidations > 0
        for ways in cache.code.templates.values():
            for tpl in ways:
                assert not any(ins.op == "mov" and ins.size == 1
                               for ins, _run in tpl.generics)
