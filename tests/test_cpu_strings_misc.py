"""String instructions, stack ops, debug registers, misc instructions."""

import hashlib

import pytest

from repro.cpu import cpu as cpu_module
from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.memory import MemoryBus, PageTableBuilder
from repro.cpu.translate import BlockCache
from repro.cpu.traps import TripleFault
from repro.isa.assembler import assemble
from tests.helpers import FlatMachine, run_fragment

PAGED_BASE = 0x1000
PAGED_TABLES = 0x80000


def run_paged(source, maps, cpl=0, prefill=True, trace=None,
              translate=False):
    """Run *source* at 0x1000 with paging on; returns the final state.

    *maps* are ``(vaddr, phys, user, writable)`` pages on top of an
    identity map of 0x0-0x10000 (code and stack, user and writable).
    *prefill* loads every page's TLB entry first, so the string ops'
    page-at-a-time paths are not declined for a TLB miss.  The
    program ends at ``hlt``, or at a triple fault (no IDT) for a trap.
    """
    program = assemble(source, base=PAGED_BASE)
    bus = MemoryBus(0x100000)
    bus.phys_write_bytes(PAGED_BASE, program.code)
    for phys in range(0x10000, 0x40000, 4):
        bus.ram[phys] = (phys >> 2) & 0xFF
    builder = PageTableBuilder(bus, PAGED_TABLES)
    builder.map_range(0, 0, 0x10000, user=True)
    for vaddr, phys, user, writable in maps:
        builder.map_page(vaddr, phys, user=user, writable=writable)
    builder.activate()
    if prefill:
        for vaddr, _phys, _user, _writable in maps:
            bus.translate(vaddr, False, False)
    cpu = CPU(bus)
    cpu.eip = PAGED_BASE
    cpu.regs[4] = 0x8000
    cpu.cpl = cpl
    cpu.trace_write = trace
    cache = BlockCache(bus) if translate else None
    try:
        if cache is not None:
            cache.run(cpu, 1_000_000)
        else:
            cpu.run(1_000_000)
        stop = None
    except (CpuHalted, TripleFault, WatchdogExpired) as exc:
        stop = str(exc)
    return {"stop": stop, "regs": tuple(cpu.regs), "eip": cpu.eip,
            "cycles": cpu.cycles, "instret": cpu.instret, "cr2": cpu.cr2,
            "ram": hashlib.sha256(bytes(bus.ram)).hexdigest(),
            "versions": tuple(bus.page_versions),
            "cache": cache.stats() if cache is not None else None}


@pytest.fixture
def element_reference(monkeypatch):
    """Runs a program twice: page at a time, then element by element.

    The reference run monkeypatches the page-at-a-time helpers to
    decline, which leaves exactly the per-element loop.  Returns
    ``(state, reference, served)``, *served* counting the elements the
    page-at-a-time helpers handled in the first run.
    """
    def both(*args, **kwargs):
        served = []
        real_movs = cpu_module._bulk_movs
        real_stos = cpu_module._bulk_stos

        def spy(real):
            def helper(*helper_args):
                done = real(*helper_args)
                served.append(done)
                return done
            return helper

        with monkeypatch.context() as patch:
            patch.setattr(cpu_module, "_bulk_movs", spy(real_movs))
            patch.setattr(cpu_module, "_bulk_stos", spy(real_stos))
            state = run_paged(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(cpu_module, "_bulk_movs", lambda *a: 0)
            patch.setattr(cpu_module, "_bulk_stos", lambda *a: 0)
            reference = run_paged(*args, **kwargs)
        return state, reference, sum(served)
    return both


# data pages: 0x20000-0x22fff user and writable, 0x30000 supervisor
# only, 0x31000 read-only.
DATA_MAPS = ((0x20000, 0x20000, True, True),
             (0x21000, 0x21000, True, True),
             (0x22000, 0x22000, True, True),
             (0x30000, 0x30000, False, True),
             (0x31000, 0x31000, True, False))


class TestStringOps:
    def test_rep_movsd_copies(self):
        body = """
    mov esi, src
    mov edi, dst
    mov ecx, 4
    cld
    rep movsd
    mov eax, [dst+12]
    jmp done
.align 4
.global src
    .long 10, 20, 30, 40
.global dst
    .long 0, 0, 0, 0
done:
        """
        assert run_fragment(body) == 40

    def test_rep_stosb_fills(self):
        body = """
    mov edi, buf
    mov eax, 0x41
    mov ecx, 8
    cld
    rep stosb
    movzx eax, byte [buf+7]
    jmp done
.align 4
.global buf
    .space 16
done:
        """
        assert run_fragment(body) == 0x41

    def test_movs_direction_flag(self):
        body = """
    mov esi, src+4
    mov edi, dst+4
    mov ecx, 2
    std
    rep movsd
    cld
    mov eax, [dst]
    jmp done
.align 4
.global src
    .long 7, 9
.global dst
    .long 0, 0
done:
        """
        assert run_fragment(body) == 7

    def test_repne_scasb_finds_byte(self):
        body = """
    mov edi, text
    mov eax, 'X'
    mov ecx, 16
    cld
    repne scasb
    mov eax, 16
    sub eax, ecx
    jmp done
.global text
    .asciz "abcXdef"
done:
        """
        # X at index 3; scasb stops after matching -> 16-ecx = 4
        assert run_fragment(body) == 4

    def test_rep_with_zero_count_is_nop(self):
        body = """
    mov edi, 0x99000000      ; would fault if executed
    xor ecx, ecx
    rep stosd
    mov eax, 123
        """
        assert run_fragment(body) == 123

    def test_cmpsb_sets_flags(self):
        body = """
    mov esi, a
    mov edi, b
    cmpsb
    setb al
    movzx eax, al
    jmp done
.global a
    .byte 1
.global b
    .byte 2
done:
        """
        assert run_fragment(body) == 1

    # -- page-at-a-time rep movs/stos == the per-element loop ----------

    def test_rep_stos_across_pages_and_chunks(self, element_reference):
        # 10000 bytes span three pages and two 8192-iteration slices.
        source = """
    mov edi, 0x20010
    mov eax, 0x5A
    mov ecx, 10000
    cld
    rep stosb
    hlt
"""
        state, reference, served = element_reference(source, DATA_MAPS)
        assert state == reference
        assert served == 10000
        assert state["regs"][1] == 0 and state["regs"][7] == 0x22720

    def test_element_straddling_a_page_takes_the_loop(
            self, element_reference):
        source = """
    mov esi, 0x2000e
    mov edi, 0x20ffe
    mov ecx, 600
    cld
    rep movsd
    hlt
"""
        state, reference, served = element_reference(
            source, DATA_MAPS, prefill=False)
        assert state == reference
        assert 0 < served < 600

    def test_fault_mid_run_is_exact(self, element_reference):
        # 0x31000 is read-only: the 65th store faults.
        source = """
    mov edi, 0x30f00
    mov eax, 0x11223344
    mov ecx, 200
    cld
    rep stosd
    hlt
"""
        state, reference, served = element_reference(source, DATA_MAPS)
        assert state == reference
        assert served == 64
        assert state["regs"][1] == 136 and state["regs"][7] == 0x31000
        assert state["cr2"] == 0x31000 and "page fault" in state["stop"]

    def test_overlapping_forward_copy(self, element_reference):
        # dst inside (src, src+n): the element loop replicates the
        # first dword; dst below src is a plain memmove.
        for src, dst in ((0x20100, 0x20104), (0x20104, 0x20100)):
            source = """
    mov esi, %#x
    mov edi, %#x
    mov ecx, 300
    cld
    rep movsd
    mov eax, [0x20300]
    hlt
""" % (src, dst)
            state, reference, _ = element_reference(source, DATA_MAPS)
            assert state == reference

    def test_direction_flag_never_takes_the_bulk_path(
            self, element_reference):
        source = """
    mov esi, 0x21ffc
    mov edi, 0x22ffc
    mov ecx, 1500
    std
    rep movsd
    mov edi, 0x21ffc
    mov ecx, 1500
    rep stosd
    cld
    hlt
"""
        state, reference, served = element_reference(source, DATA_MAPS)
        assert state == reference
        assert served == 0
        assert state["regs"][7] == 0x2088c

    def test_user_mode_on_a_supervisor_page(self, element_reference):
        for body in ("mov esi, 0x30000\n    mov edi, 0x20000\n"
                     "    rep movsd",
                     "mov edi, 0x30000\n    rep stosd"):
            source = """
    mov ecx, 16
    %s
    hlt
""" % body
            state, reference, served = element_reference(
                source, DATA_MAPS, cpl=3)
            assert state == reference
            assert served == 0
            assert state["regs"][1] == 16 and state["cr2"] == 0x30000

    def test_store_over_a_resident_block_evicts_it(
            self, element_reference, monkeypatch):
        monkeypatch.setattr("repro.cpu.translate.HOT_DISPATCHES", 1)
        source = """
_start:
    mov ecx, 4
warm:
    call target
    dec ecx
    jne warm
    mov edi, target
    mov ecx, 1024
    xor eax, eax
    cld
    rep stosd
    hlt
.align 4096
target:
    add ebx, 1
    ret
"""
        state, reference, served = element_reference(
            source, DATA_MAPS, translate=True)
        assert state == reference
        assert served == 1024
        assert state["cache"]["invalidations"] >= 1

    def test_armed_trace_write_sees_every_element(
            self, element_reference):
        source = """
    mov esi, 0x20000
    mov edi, 0x21000
    mov ecx, 40
    cld
    rep movsd
    mov ecx, 40
    rep stosb
    hlt
"""
        seen = ([], [])
        for writes in seen:
            run_paged(source, DATA_MAPS,
                      trace=lambda *w, out=writes: out.append(w))
        state, reference, served = element_reference(
            source, DATA_MAPS, trace=lambda *w: None)
        assert state == reference
        assert served == 0
        assert len(seen[0]) == 80 and seen[0] == seen[1]


class TestStackOps:
    def test_pusha_popa_roundtrip(self):
        body = """
    mov eax, 1
    mov ecx, 2
    mov edx, 3
    mov ebx, 4
    pusha
    mov eax, 0
    mov ebx, 0
    popa
    shl eax, 4
    or eax, ebx
        """
        assert run_fragment(body) == 0x14

    def test_enter_leave(self):
        body = """
    mov ebp, 0x1234
    enter 16, 0
    mov eax, esp
    mov ecx, ebp
    sub ecx, eax        ; frame size
    leave
    mov eax, ecx
        """
        assert run_fragment(body) == 16

    def test_pushf_popf_preserves_flags(self):
        body = """
    stc
    pushf
    clc
    popf
    setb al
    movzx eax, al
        """
        assert run_fragment(body) == 1

    def test_push_pop_memory_operand(self):
        body = """
    push dword [value]
    pop dword [copy]
    mov eax, [copy]
    jmp done
.align 4
.global value
    .long 777
.global copy
    .long 0
done:
        """
        assert run_fragment(body) == 777


class TestDebugRegisters:
    def test_breakpoint_fires_once(self):
        source = """
_start:
    mov esp, 0x8000
    mov ecx, 3
loop:
    nop
target:
    nop
    dec ecx
    jne loop
    mov ebx, 0x200100
    mov [ebx], 42
    hlt
"""
        machine = FlatMachine(source)
        hits = []

        def hook(cpu, index):
            hits.append(cpu.cycles)
            cpu.write_dr(7, 0)  # one-shot disarm

        machine.cpu.write_dr(0, machine.symbol("target"))
        machine.cpu.write_dr(7, 1)
        machine.cpu.on_breakpoint = hook
        assert machine.run() == 42
        assert len(hits) == 1

    def test_mov_dr_from_guest_code(self):
        body = """
    mov eax, 0x1234
    mov dr0, eax
    mov eax, dr0
        """
        assert run_fragment(body) == 0x1234

    def test_dr7_gates_breakpoints(self):
        machine = FlatMachine("_start:\nnop\nmov ebx, 0x200100\n"
                              "mov [ebx], 5\nhlt\n")
        machine.cpu.write_dr(0, 0x1000)
        # enable bit NOT set -> no hook call
        machine.cpu.on_breakpoint = lambda *a: (_ for _ in ()).throw(
            AssertionError("must not fire"))
        assert machine.run() == 5


class TestMiscInstructions:
    def test_xlat(self):
        body = """
    mov ebx, table
    mov eax, 2
    xlat
    movzx eax, al
    jmp done
.global table
    .byte 10, 20, 30, 40
done:
        """
        assert run_fragment(body) == 30

    def test_rdtsc_monotonic(self):
        body = """
    rdtsc
    mov ecx, eax
    nop
    nop
    rdtsc
    sub eax, ecx
        """
        assert run_fragment(body) > 0

    def test_cpuid_vendor(self):
        body = """
    xor eax, eax
    cpuid
    mov eax, ebx
        """
        assert run_fragment(body) == 0x756E6547  # "Genu"

    def test_int3_without_idt_triple_faults(self):
        from repro.cpu.traps import TripleFault
        program = assemble("_start:\nint3\n", base=0x1000)
        bus = MemoryBus(0x10000)
        bus.phys_write_bytes(0x1000, program.code)
        cpu = CPU(bus)
        cpu.eip = 0x1000
        with pytest.raises(TripleFault):
            cpu.run(1000)

    def test_decode_cache_sees_self_modification(self):
        # Overwrite an upcoming instruction; the new bytes must execute.
        body = """
    mov eax, 0
    movb [patch], 0x42          ; inc edx -> inc eax? (0x42 = inc edx)
patch:
    nop
    nop
        """
        # 0x42 is "inc edx"; verify edx got incremented via a second run
        source = """
_start:
    mov esp, 0x8000
    xor edx, edx
    movb [patch], 0x42
patch:
    nop
    mov eax, edx
    mov ebx, 0x200100
    mov [ebx], eax
    hlt
"""
        machine = FlatMachine(source)
        assert machine.run() == 1

    def test_segment_register_load_validates(self):
        from repro.cpu.traps import TripleFault
        source = "_start:\nmov eax, 0x1234\nmov ds, eax\n"
        program = assemble(source, base=0x1000)
        bus = MemoryBus(0x10000)
        bus.phys_write_bytes(0x1000, program.code)
        cpu = CPU(bus)
        cpu.eip = 0x1000
        with pytest.raises(TripleFault):  # GPF with no IDT
            cpu.run(1000)

    def test_valid_segment_load_accepted(self):
        body = """
    mov eax, 0x2B
    mov ds, eax
    mov eax, ds
        """
        assert run_fragment(body) == 0x2B
