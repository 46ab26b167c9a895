"""Decode-cache coherence: the property campaigns depend on.

An injected bit flip MUST invalidate any stale decode of the corrupted
bytes, and user-space remaps (exec) must never serve instructions from
the previous program.
"""

from repro.cpu.cpu import CPU
from repro.cpu.memory import MemoryBus, PageTableBuilder
from repro.isa.assembler import assemble


def flat_cpu(source, base=0x1000, ram=0x100000):
    program = assemble(source, base=base)
    bus = MemoryBus(ram)
    bus.phys_write_bytes(base, program.code)
    cpu = CPU(bus)
    cpu.eip = base
    cpu.regs[4] = 0x8000
    return cpu, program


class TestFlipInvalidation:
    def test_flip_after_first_execution_changes_behaviour(self):
        # Loop executes `add eax, 1` repeatedly; mid-run we flip the
        # immediate byte to 3. The cached decode must be dropped.
        source = """
_start:
    mov eax, 0
    mov ecx, 10
loop:
target:
    add eax, 1
    dec ecx
    jne loop
    hlt
"""
        cpu, program = flat_cpu(source)
        target = program.symbols["target"]
        from repro.cpu.cpu import CpuHalted, WatchdogExpired
        # run a few loop iterations (budget is in cycles)
        try:
            cpu.run(14)
        except (CpuHalted, WatchdogExpired):
            pass
        assert 0 < cpu.regs[0] < 10  # mid-loop
        # patch the immediate of `add eax, 1` (byte 2 of 83 c0 01)
        cpu.bus.phys_write(target + 2, 1, 3)
        try:
            cpu.run(10_000)
        except CpuHalted:
            pass
        # some iterations added 1, later ones added 3: total > 10
        assert cpu.regs[0] > 10

    def test_executed_store_invalidates_memoized_decode(self):
        # The program patches an instruction it has ALREADY executed
        # (and therefore memoized): the CPU's own store path must bump
        # the page generation so the next fetch re-decodes.  An
        # external phys_write doing so (the test above) is necessary
        # but not sufficient — injected faults arrive through hooks,
        # kernel self-modification arrives through executed stores.
        source = """
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
        # The stored dword must rewrite only the immediate (patch+2)
        # and reproduce the following three bytes verbatim.
        prog = assemble(source % 0, base=0x1000)
        off = prog.symbols["patch"] - 0x1000 + 2
        tail = prog.code[off + 1:off + 4]
        newdw = int.from_bytes(bytes([3]) + tail, "little")

        cpu, _ = flat_cpu(source % newdw)
        from repro.cpu.cpu import CpuHalted
        try:
            cpu.run(1_000_000)
        except CpuHalted:
            pass
        # every iteration executed the patched `add eax, 3`
        assert cpu.regs[0] == 18

    def test_straddling_write_invalidates_second_page(self):
        # A write beginning on page 1 and ending on page 2 must bump
        # BOTH page generations: the patched instruction lives wholly
        # on page 2, so if only the first page were bumped its memo
        # entry would stay "valid" and serve the stale decode.
        source = """
loop:
target:
    add eax, 1
    dec ecx
    jne loop
    hlt
"""
        cpu, program = flat_cpu(source, base=0x2000)
        assert program.symbols["target"] == 0x2000
        cpu.regs[0] = 0
        cpu.regs[1] = 10
        from repro.cpu.cpu import CpuHalted, WatchdogExpired
        try:
            cpu.run(6)
        except (CpuHalted, WatchdogExpired):
            pass
        assert 0 < cpu.regs[0] < 10  # mid-loop, decode memoized
        # bytes 0x1FFF..0x2002: keep 0x1FFF..0x2001, imm 1 -> 3
        head = bytes(cpu.bus.ram[0x1FFF:0x2002])
        value = int.from_bytes(head + bytes([3]), "little")
        cpu.bus.phys_write(0x1FFF, 4, value)
        try:
            cpu.run(10_000)
        except CpuHalted:
            pass
        assert cpu.regs[0] > 10, \
            "second-page decode served stale after straddling write"

    def test_same_bytes_same_cache_when_untouched(self):
        source = """
_start:
    mov ecx, 100
loop:
    nop
    dec ecx
    jne loop
    hlt
"""
        cpu, _ = flat_cpu(source)
        from repro.cpu.cpu import CpuHalted
        try:
            cpu.run(100_000)
        except CpuHalted:
            pass
        # loop decoded once; cache has few entries
        assert len(cpu._dcache) < 20


class TestUserRemapCoherence:
    def test_tlb_generation_invalidates_user_decodes(self):
        # Map vaddr 0x10000 -> phys A (code: mov eax,1; hlt), run;
        # then remap to phys B (mov eax,2; hlt) with a TLB flush, and
        # re-run: the CPU must execute the NEW bytes.
        prog1 = assemble("mov eax, 1\nhlt", base=0x10000)
        prog2 = assemble("mov eax, 2\nhlt", base=0x10000)
        bus = MemoryBus(0x100000)
        bus.phys_write_bytes(0x20000, prog1.code)
        bus.phys_write_bytes(0x30000, prog2.code)
        builder = PageTableBuilder(bus, 0x8000)
        builder.map_range(0xC0000000, 0, 0x100000)
        builder.map_page(0x10000, 0x20000, user=True)
        builder.activate()

        from repro.cpu.cpu import CpuHalted
        cpu = CPU(bus)
        cpu.eip = 0x10000
        cpu.regs[4] = 0xC0008000  # unused
        try:
            cpu.run(100)
        except CpuHalted:
            pass
        assert cpu.regs[0] == 1

        # Remap (writes the PTE) + architectural flush.
        pde = bus.phys_read(builder.pgdir + (0x10000 >> 22) * 4, 4)
        table = pde & ~0xFFF
        pte_addr = table + ((0x10000 >> 12) & 0x3FF) * 4
        bus.phys_write(pte_addr, 4, 0x30000 | 0x7)
        bus.flush_tlb()

        cpu.eip = 0x10000
        try:
            cpu.run(cpu.cycles + 100)
        except CpuHalted:
            pass
        assert cpu.regs[0] == 2, \
            "stale decode served after remap + TLB flush"


class TestSharedDecodeMemo:
    """Translating machines of one kernel share decoded instructions
    (``CPU.decode_memo``); a machine whose bytes differ must never
    reuse another machine's decode."""

    SOURCE = """
_start:
    mov eax, 0
    mov ecx, 10
loop:
target:
    add eax, 1
plain:
    dec ecx
    jne loop
    hlt
"""

    def _run(self, memo, flip=None):
        from repro.cpu.cpu import CpuHalted
        cpu, program = flat_cpu(self.SOURCE)
        cpu.decode_memo = memo
        if flip is not None:
            cpu.bus.phys_write(program.symbols["target"] + 2, 1, flip)
        try:
            cpu.run(10_000)
        except CpuHalted:
            pass
        return cpu, program

    def test_clone_with_flipped_bytes_decodes_afresh(self):
        memo = {}
        first, program = self._run(memo)
        assert first.regs[0] == 10
        plain = memo[(program.symbols["plain"], False)]
        added = memo[(program.symbols["target"], False)]
        flipped, _ = self._run(memo, flip=3)
        assert flipped.regs[0] == 30           # the flip took effect
        reference, _ = self._run(None, flip=3)
        assert flipped.regs == reference.regs
        assert flipped.cycles == reference.cycles
        # Unchanged bytes reuse the first machine's decode; the flipped
        # instruction was decoded again and replaced it.
        assert memo[(program.symbols["plain"], False)] is plain
        assert memo[(program.symbols["target"], False)] is not added
