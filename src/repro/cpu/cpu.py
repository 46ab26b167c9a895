"""The IA-32-subset interpreter.

Executes machine code out of simulated physical memory through the MMU,
with privilege levels, IDT-based trap delivery (including double/triple
fault escalation), debug-register breakpoints (the injection trigger), a
timer interrupt, and a cycle counter (the paper's crash-latency clock).

Performance notes: campaigns execute tens of millions of instructions, so
the decoder output is cached per *physical* address and validated against
per-page write-generation counters — an injected bit flip bumps the page
version and naturally invalidates stale decodes.
"""

import struct

from repro.isa.conditions import cc_holds
from repro.isa.decoder import DecodeError, decode
from repro.cpu.traps import (
    Trap,
    TripleFault,
    VEC_BOUNDS,
    VEC_DIVIDE,
    VEC_DOUBLE_FAULT,
    VEC_GPF,
    VEC_INT3,
    VEC_INVALID_OP,
    VEC_INVALID_TSS,
    VEC_OVERFLOW,
    VEC_PAGE_FAULT,
    VEC_TIMER_IRQ,
)

M32 = 0xFFFFFFFF

# Flat-model segment selectors (Linux-style GDT layout).
KERNEL_CS = 0x10
KERNEL_DS = 0x18
USER_CS = 0x23
USER_DS = 0x2B
TSS_SEL = 0x30

_VALID_DATA_SEL = frozenset([0, KERNEL_DS, USER_DS])
_VALID_STACK_SEL = frozenset([KERNEL_DS, USER_DS])

# Vectors that push an error code.
_ERROR_CODE_VECTORS = frozenset([8, 10, 11, 12, 13, 14, 17])
# Contributory exceptions: a second one during delivery => double fault.
_CONTRIBUTORY = frozenset([0, 10, 11, 12, 13, 14])

# MSR numbers understood by wrmsr/rdmsr (kernel <-> CPU plumbing).
MSR_ESP0 = 0x175       # kernel stack pointer used on CPL3 -> CPL0 traps
MSR_IDT_BASE = 0x176   # software-loaded IDT base (lidt stand-in)

_PARITY = tuple(1 if bin(i).count("1") % 2 == 0 else 0 for i in range(256))

#: pre-bound little-endian dword codecs for the batched stack fast
#: paths (trap frames are 3-6 words; iret pops 2-3).
_PACK_WORDS = {n: struct.Struct("<%dI" % n).pack for n in (2, 3, 4, 5, 6)}
_UNPACK_WORDS = {n: struct.Struct("<%dI" % n).unpack_from
                 for n in (2, 3, 4, 5, 6)}

_REP_CHUNK = 8192  # max string-op iterations per execution slice


class WatchdogExpired(Exception):
    """The host watchdog fired: the run exceeded its cycle budget."""


class CpuHalted(Exception):
    """``hlt`` executed with interrupts disabled — the CPU is wedged."""


class CPU:
    """One simulated processor attached to a :class:`MemoryBus`."""

    def __init__(self, bus):
        self.bus = bus
        self.regs = [0] * 8
        self.eip = 0
        self.next_eip = 0
        # Arithmetic flags kept unpacked for speed.
        self.cf = 0
        self.pf = 1
        self.zf = 0
        self.sf = 0
        self.of = 0
        self.if_flag = 0
        self.df = 0
        self.cpl = 0
        self.segs = [KERNEL_DS, KERNEL_CS, KERNEL_DS, KERNEL_DS, 0, 0]
        self.cr0 = 0x80000001
        self.cr2 = 0
        self.cr4 = 0
        self.dr = [0] * 8
        self.bp_addrs = {}
        self.on_breakpoint = None
        self.esp0 = 0
        self.idt_base = 0
        self.cycles = 0
        self.timer_interval = 0
        self.timer_next = 0
        self.pending_irq = False
        self.fault_depth = 0
        self._dcache = {}
        self.instret = 0
        # Flight-recorder observation hooks (repro.tracing).  All None
        # when untraced; they observe, never mutate, so arming them
        # cannot perturb the run.
        self.trace_branch = None     # (src_eip, dst_eip)
        self.trace_trap = None       # (vector, error_code, return_eip)
        self.trace_write = None      # (vaddr, size, value), CPL0 only
        # Fault-injection hooks (repro.injection.faultmodels).  Unlike
        # the trace hooks these MAY mutate state: on_trap_entry fires
        # at the top of trap delivery (register faults delivered at
        # trap/syscall entry), and on_alarm fires once the cycle
        # counter passes alarm_cycle (intermittent flip-then-restore
        # scheduling).  Both are disarmed by the consumer.
        self.on_trap_entry = None    # (cpu, vector, error_code, eip)
        self.alarm_cycle = None      # cycle stamp, or None
        self.on_alarm = None         # (cpu)
        # Optional translated-execution engine
        # (repro.cpu.translate.BlockCache); when armed, run() dispatches
        # pre-compiled basic blocks instead of interpreting, with
        # bit-identical architectural and counter state.
        self.translator = None
        # Optional ``(eip, user) -> Instr`` memo shared by every machine
        # translating one kernel (repro.cpu.translate.CodeCache.decoded):
        # a decode-cache miss first reuses an instruction whose raw
        # bytes still match memory.  The interpreter never sets it.
        self.decode_memo = None

    # ------------------------------------------------------------------
    # memory access helpers (cycle-accounted, privilege-aware)
    # ------------------------------------------------------------------

    def mem_read(self, vaddr, size):
        """Read memory (fast path inlined; falls back to the bus)."""
        self.cycles += 1
        vaddr &= M32
        bus = self.bus
        offset = vaddr & 0xFFF
        if bus.paging_enabled and offset + size <= 4096:
            entry = bus.tlb.get(vaddr >> 12)
            if entry is not None:
                pfn, flags = entry
                if not (self.cpl == 3 and not flags & 4):
                    phys = (pfn << 12) | offset
                    if phys + size <= bus.ram_size:
                        return int.from_bytes(
                            bus.ram[phys:phys + size], "little")
        return bus.read(vaddr, size, self.cpl == 3)

    def mem_write(self, vaddr, size, value):
        """Write memory (fast path inlined; falls back to the bus)."""
        if self.trace_write is not None and self.cpl == 0:
            self.trace_write(vaddr, size, value)
        self.cycles += 1
        vaddr &= M32
        bus = self.bus
        offset = vaddr & 0xFFF
        if bus.paging_enabled and offset + size <= 4096:
            entry = bus.tlb.get(vaddr >> 12)
            if entry is not None:
                pfn, flags = entry
                if flags & 2 and not (self.cpl == 3 and not flags & 4):
                    phys = (pfn << 12) | offset
                    if phys + size <= bus.ram_size:
                        bus.ram[phys:phys + size] = \
                            (value & ((1 << (8 * size)) - 1)).to_bytes(
                                size, "little")
                        bus.page_versions[phys >> 12] += 1
                        watch = bus.code_watch
                        if watch is not None \
                                and phys >> 12 in watch.page_ranges:
                            watch.note_write(phys, size)
                        return
        self.bus.write(vaddr, size, value & ((1 << (8 * size)) - 1),
                       self.cpl == 3)

    def push32(self, value):
        esp = (self.regs[4] - 4) & M32
        self.mem_write(esp, 4, value)
        self.regs[4] = esp

    def pop32(self):
        esp = self.regs[4]
        value = self.mem_read(esp, 4)
        self.regs[4] = (esp + 4) & M32
        return value

    # ------------------------------------------------------------------
    # flags
    # ------------------------------------------------------------------

    def eflags(self):
        value = 2
        value |= self.cf
        value |= self.pf << 2
        value |= self.zf << 6
        value |= self.sf << 7
        value |= self.if_flag << 9
        value |= self.df << 10
        value |= self.of << 11
        return value

    def set_eflags(self, value, allow_if=True):
        self.cf = value & 1
        self.pf = (value >> 2) & 1
        self.zf = (value >> 6) & 1
        self.sf = (value >> 7) & 1
        self.df = (value >> 10) & 1
        self.of = (value >> 11) & 1
        if allow_if:
            self.if_flag = (value >> 9) & 1

    # ------------------------------------------------------------------
    # debug registers (injection trigger)
    # ------------------------------------------------------------------

    def write_dr(self, index, value):
        self.dr[index] = value & M32
        self._recompute_breakpoints()

    def _recompute_breakpoints(self):
        active = {}
        dr7 = self.dr[7]
        for i in range(4):
            if dr7 & (1 << (2 * i)):
                active[self.dr[i]] = i
        self.bp_addrs = active

    # ------------------------------------------------------------------
    # trap delivery
    # ------------------------------------------------------------------

    def deliver_trap(self, vector, error_code, return_eip, cr2=None):
        """Deliver an exception/interrupt through the in-memory IDT.

        A fault *during* delivery follows (approximated) IA-32 rules:
        contributory+contributory or #PF pairs escalate to double fault;
        a benign first exception lets the second be delivered normally;
        a fault delivering the double fault resets the machine (triple
        fault).
        """
        if cr2 is not None:
            self.cr2 = cr2 & M32
        if self.on_trap_entry is not None:
            # Fault injection at trap entry happens before the frame is
            # pushed, so a corrupted register lands in the saved
            # context exactly as a hardware fault during delivery would.
            self.on_trap_entry(self, vector, error_code, return_eip)
        if self.trace_trap is not None:
            self.trace_trap(vector, error_code, return_eip)
        if self.fault_depth >= 3:
            raise TripleFault(vector)
        self.fault_depth += 1
        try:
            self._push_trap_frame(vector, error_code, return_eip)
        except Trap as second:
            if vector == VEC_DOUBLE_FAULT:
                raise TripleFault(vector)
            first_serious = vector in _CONTRIBUTORY \
                or vector == VEC_PAGE_FAULT
            second_serious = second.vector in _CONTRIBUTORY \
                or second.vector == VEC_PAGE_FAULT
            if first_serious and second_serious:
                self.deliver_trap(VEC_DOUBLE_FAULT, 0, return_eip)
            else:
                self.deliver_trap(second.vector, second.error_code,
                                  return_eip, cr2=second.cr2)
        finally:
            self.fault_depth -= 1

    def _push_trap_frame(self, vector, error_code, return_eip):
        if self.idt_base == 0:
            raise TripleFault(vector, "no IDT installed")
        was_user = self.cpl == 3
        entry = self.idt_base + vector * 8
        handler = self.bus.read(entry, 4, False)
        flags = self.bus.read(entry + 4, 4, False)
        self.cycles += 2
        if not flags & 1:  # gate not present
            if vector in _CONTRIBUTORY or vector == VEC_DOUBLE_FAULT:
                raise TripleFault(vector, "gate not present")
            raise Trap(VEC_GPF, error_code=vector * 8 + 2)
        old_esp = self.regs[4]
        old_ss = self.segs[2]
        if was_user:
            self.cpl = 0
            self.regs[4] = self.esp0
            self.segs[2] = KERNEL_DS
        words = []
        if was_user:
            words.append(old_ss)
            words.append(old_esp)
        words.append(self.eflags())
        words.append(USER_CS if was_user else KERNEL_CS)
        words.append(return_eip & M32)
        if error_code is not None and vector in _ERROR_CODE_VECTORS:
            words.append(error_code & M32)
        # Frame fast path: when the whole frame lands on one writable,
        # TLB-resident page with no trace_write hook armed, store it in
        # one slice with the identical per-push cycle/version/watch
        # accounting; otherwise (or on any miss) fall back to the
        # per-push loop, which handles faults mid-frame.
        n = len(words)
        esp = self.regs[4]
        bus = self.bus
        done = False
        if self.trace_write is None and bus.paging_enabled \
                and esp >= 4 * n:
            base = esp - 4 * n
            if (base & 0xFFF) + 4 * n <= 4096:
                entry = bus.tlb.get(base >> 12)
                if entry is not None and entry[1] & 2 \
                        and not (self.cpl == 3 and not entry[1] & 4):
                    phys = (entry[0] << 12) | (base & 0xFFF)
                    if phys + 4 * n <= bus.ram_size:
                        bus.ram[phys:phys + 4 * n] = \
                            _PACK_WORDS[n](*words[::-1])
                        bus.page_versions[phys >> 12] += n
                        watch = bus.code_watch
                        if watch is not None \
                                and phys >> 12 in watch.page_ranges:
                            watch.note_write(phys, 4 * n)
                        self.cycles += n
                        self.regs[4] = base
                        done = True
        if not done:
            try:
                for word in words:
                    self.push32(word)
            except Trap:
                # Undo partial privilege switch before escalating.
                if was_user:
                    self.cpl = 3
                    self.regs[4] = old_esp
                    self.segs[2] = old_ss
                raise
        self.if_flag = 0  # interrupt gate semantics (as Linux uses)
        self.eip = handler & M32
        self.cycles += 8

    # ------------------------------------------------------------------
    # fetch/decode with physical-address caching
    # ------------------------------------------------------------------

    def _fetch(self, eip):
        user = self.cpl == 3
        bus = self.bus
        # Kernel text sits in the static linear map, so its decode cache
        # can be keyed by the virtual address alone.  User text gets
        # remapped (exec, COW, address-space reuse); keying those entries
        # by the TLB generation makes the decode cache exactly as stale
        # as a real instruction TLB could ever be.
        key = eip if eip >= 0xC0000000 else (bus.tlb_gen, eip)
        cached = self._dcache.get(key)
        versions = bus.page_versions
        if cached is not None:
            ins, stamps = cached
            valid = True
            for page, stamp in stamps:
                if versions[page] != stamp:
                    valid = False
                    break
            if valid:
                return ins
        phys = bus.translate(eip, False, user)
        memo = self.decode_memo
        ins = memo.get((eip, user)) if memo is not None else None
        if ins is None or bus.code_bytes(eip, ins.length, user) != ins.raw:
            read = self._fetch_byte
            try:
                ins = decode(read, eip)
            except DecodeError as exc:
                raise Trap(VEC_INVALID_OP) from exc
            ins.run = _HANDLERS[ins.op]
            if memo is not None:
                memo[(eip, user)] = ins
        # Fetches from beyond RAM (floating bus) or MMIO space have no
        # version counter; pin them to the sentinel last slot, which
        # never changes.
        sentinel = len(versions) - 1
        first_page = min(phys >> 12, sentinel)
        last_phys = bus.translate((eip + ins.length - 1) & M32, False, user)
        last_page = min(last_phys >> 12, sentinel)
        if last_page == first_page:
            stamps = ((first_page, versions[first_page]),)
        else:
            stamps = ((first_page, versions[first_page]),
                      (last_page, versions[last_page]))
        if len(self._dcache) > 200000:
            self._dcache.clear()
        self._dcache[key] = (ins, stamps)
        return ins

    def _fetch_byte(self, vaddr):
        return self.bus.read(vaddr & M32, 1, self.cpl == 3)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles, coverage=None):
        """Run until shutdown/halt/triple-fault or the cycle budget ends.

        Args:
            max_cycles: watchdog budget; exceeding it raises
                :class:`WatchdogExpired` (the harness records a *hang*).
            coverage: optional ``set`` collecting every executed
                instruction address (used for golden-run activation
                analysis).

        Raises:
            MachineShutdown: the kernel powered the machine off.
            WatchdogExpired, CpuHalted, TripleFault.
        """
        if self.translator is not None and coverage is None:
            # Translated fast path (repro.cpu.translate); coverage runs
            # stay interpreted — they need the per-instruction hook.
            return self.translator.run(self, max_cycles)
        while True:
            if self.cycles >= max_cycles:
                raise WatchdogExpired("cycle budget %d exhausted"
                                      % max_cycles)
            if self.timer_interval and self.cycles >= self.timer_next:
                self.pending_irq = True
                self.timer_next = self.cycles + self.timer_interval
            if self.alarm_cycle is not None \
                    and self.cycles >= self.alarm_cycle:
                hook = self.on_alarm
                self.alarm_cycle = None
                self.on_alarm = None
                if hook is not None:
                    hook(self)
            if self.pending_irq and self.if_flag:
                self.pending_irq = False
                self.deliver_trap(VEC_TIMER_IRQ, None, self.eip)
            eip = self.eip
            if self.bp_addrs and eip in self.bp_addrs:
                hook = self.on_breakpoint
                if hook is not None:
                    hook(self, self.bp_addrs[eip])
            if coverage is not None:
                coverage.add(eip)
            try:
                ins = self._fetch(eip)
                fallthrough = (eip + ins.length) & M32
                self.next_eip = fallthrough
                ins.run(self, ins)
                new_eip = self.next_eip
                self.eip = new_eip
                self.cycles += 1
                self.instret += 1
                # A retired taken control transfer; rep-string resumes
                # (next_eip == eip) are iteration plumbing, not
                # branches, and are excluded.
                if self.trace_branch is not None \
                        and new_eip != fallthrough and new_eip != eip:
                    self.trace_branch(eip, new_eip)
            except Trap as trap:
                self.cycles += 10
                return_eip = (trap.return_eip
                              if trap.return_eip is not None else eip)
                self.deliver_trap(trap.vector, trap.error_code, return_eip,
                                  cr2=trap.cr2)

    def step(self):
        """Execute exactly one instruction (testing convenience)."""
        limit = self.cycles + 1
        try:
            self.run(limit)
        except WatchdogExpired:
            pass


# ----------------------------------------------------------------------
# operand access
# ----------------------------------------------------------------------


def _ea(cpu, mem):
    addr = mem.disp
    if mem.base is not None:
        addr += cpu.regs[mem.base]
    if mem.index is not None:
        addr += cpu.regs[mem.index] * mem.scale
    return addr & M32


def _read_op(cpu, op, size):
    kind = op[0]
    if kind == "r":
        return cpu.regs[op[1]]
    if kind == "i":
        return op[1] & M32
    if kind == "r8":
        idx = op[1]
        value = cpu.regs[idx & 3]
        return (value >> 8) & 0xFF if idx >= 4 else value & 0xFF
    if kind == "m":
        return cpu.mem_read(_ea(cpu, op[1]), size)
    if kind == "cl":
        return cpu.regs[1] & 0xFF
    if kind == "sr":
        return cpu.segs[op[1]]
    raise AssertionError("bad operand %r" % (op,))


def _write_op(cpu, op, size, value):
    kind = op[0]
    if kind == "r":
        cpu.regs[op[1]] = value & M32
        return
    if kind == "r8":
        idx = op[1]
        reg = idx & 3
        if idx >= 4:
            cpu.regs[reg] = (cpu.regs[reg] & 0xFFFF00FF) \
                | ((value & 0xFF) << 8)
        else:
            cpu.regs[reg] = (cpu.regs[reg] & 0xFFFFFF00) | (value & 0xFF)
        return
    if kind == "m":
        cpu.mem_write(_ea(cpu, op[1]), size, value)
        return
    raise Trap(VEC_GPF)  # write to an immediate/unwritable operand


def _mask(size):
    return (1 << (8 * size)) - 1


def _msb_shift(size):
    return 8 * size - 1


# ----------------------------------------------------------------------
# flag computation
# ----------------------------------------------------------------------


def _flags_logic(cpu, res, size):
    cpu.cf = 0
    cpu.of = 0
    cpu.zf = 1 if res == 0 else 0
    cpu.sf = (res >> _msb_shift(size)) & 1
    cpu.pf = _PARITY[res & 0xFF]


def _flags_add(cpu, a, b, res, size, carry_in=0):
    mask = _mask(size)
    cpu.cf = 1 if a + b + carry_in > mask else 0
    cpu.zf = 1 if res == 0 else 0
    shift = _msb_shift(size)
    cpu.sf = (res >> shift) & 1
    cpu.of = ((~(a ^ b) & (a ^ res)) >> shift) & 1
    cpu.pf = _PARITY[res & 0xFF]


def _flags_sub(cpu, a, b, res, size, borrow_in=0):
    cpu.cf = 1 if a < b + borrow_in else 0
    cpu.zf = 1 if res == 0 else 0
    shift = _msb_shift(size)
    cpu.sf = (res >> shift) & 1
    cpu.of = (((a ^ b) & (a ^ res)) >> shift) & 1
    cpu.pf = _PARITY[res & 0xFF]


def _signed(value, size):
    bits = 8 * size
    return value - (1 << bits) if value >> (bits - 1) else value


# ----------------------------------------------------------------------
# instruction handlers
# ----------------------------------------------------------------------


def _h_mov(cpu, ins):
    _write_op(cpu, ins.dst, ins.size, _read_op(cpu, ins.src, ins.size))


def _h_lea(cpu, ins):
    cpu.regs[ins.dst[1]] = _ea(cpu, ins.src[1])


def _h_add(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size) & _mask(size)
    res = (a + b) & _mask(size)
    _flags_add(cpu, a, b, res, size)
    _write_op(cpu, ins.dst, size, res)


def _h_adc(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size) & _mask(size)
    carry = cpu.cf
    res = (a + b + carry) & _mask(size)
    _flags_add(cpu, a, b, res, size, carry_in=carry)
    _write_op(cpu, ins.dst, size, res)


def _h_sub(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size) & _mask(size)
    res = (a - b) & _mask(size)
    _flags_sub(cpu, a, b, res, size)
    _write_op(cpu, ins.dst, size, res)


def _h_sbb(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size) & _mask(size)
    borrow = cpu.cf
    res = (a - b - borrow) & _mask(size)
    _flags_sub(cpu, a, b, res, size, borrow_in=borrow)
    _write_op(cpu, ins.dst, size, res)


def _h_cmp(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size) & _mask(size)
    res = (a - b) & _mask(size)
    _flags_sub(cpu, a, b, res, size)


def _h_and(cpu, ins):
    size = ins.size
    res = _read_op(cpu, ins.dst, size) & _read_op(cpu, ins.src, size)
    res &= _mask(size)
    _flags_logic(cpu, res, size)
    _write_op(cpu, ins.dst, size, res)


def _h_or(cpu, ins):
    size = ins.size
    res = (_read_op(cpu, ins.dst, size) | _read_op(cpu, ins.src, size)) \
        & _mask(size)
    _flags_logic(cpu, res, size)
    _write_op(cpu, ins.dst, size, res)


def _h_xor(cpu, ins):
    size = ins.size
    res = (_read_op(cpu, ins.dst, size) ^ _read_op(cpu, ins.src, size)) \
        & _mask(size)
    _flags_logic(cpu, res, size)
    _write_op(cpu, ins.dst, size, res)


def _h_test(cpu, ins):
    size = ins.size
    res = (_read_op(cpu, ins.dst, size) & _read_op(cpu, ins.src, size)) \
        & _mask(size)
    _flags_logic(cpu, res, size)


def _h_inc(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    res = (a + 1) & _mask(size)
    carry = cpu.cf
    _flags_add(cpu, a, 1, res, size)
    cpu.cf = carry  # inc preserves CF
    _write_op(cpu, ins.dst, size, res)


def _h_dec(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    res = (a - 1) & _mask(size)
    carry = cpu.cf
    _flags_sub(cpu, a, 1, res, size)
    cpu.cf = carry
    _write_op(cpu, ins.dst, size, res)


def _h_neg(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    res = (-a) & _mask(size)
    _flags_sub(cpu, 0, a, res, size)
    cpu.cf = 1 if a != 0 else 0
    _write_op(cpu, ins.dst, size, res)


def _h_not(cpu, ins):
    size = ins.size
    res = (~_read_op(cpu, ins.dst, size)) & _mask(size)
    _write_op(cpu, ins.dst, size, res)


def _h_xchg(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size)
    _write_op(cpu, ins.dst, size, b)
    _write_op(cpu, ins.src, size, a)


def _h_push(cpu, ins):
    cpu.push32(_read_op(cpu, ins.dst, 4))


def _h_pop(cpu, ins):
    value = cpu.pop32()
    _write_op(cpu, ins.dst, 4, value)


def _h_pusha(cpu, ins):
    regs = cpu.regs
    original_esp = regs[4]
    for i in (0, 1, 2, 3):
        cpu.push32(regs[i])
    cpu.push32(original_esp)
    for i in (5, 6, 7):
        cpu.push32(regs[i])


def _h_popa(cpu, ins):
    regs = cpu.regs
    for i in (7, 6, 5):
        regs[i] = cpu.pop32()
    cpu.pop32()  # skip saved esp
    for i in (3, 2, 1, 0):
        regs[i] = cpu.pop32()


def _h_push_sr(cpu, ins):
    cpu.push32(cpu.segs[ins.dst[1]])


def _h_pop_sr(cpu, ins):
    value = cpu.pop32() & 0xFFFF
    _load_seg(cpu, ins.dst[1], value)


def _load_seg(cpu, seg_index, selector):
    if seg_index == 2:  # SS
        if selector not in _VALID_STACK_SEL:
            raise Trap(VEC_GPF, error_code=selector)
    else:
        if selector not in _VALID_DATA_SEL:
            raise Trap(VEC_GPF, error_code=selector)
    cpu.segs[seg_index] = selector


def _h_mov_to_sr(cpu, ins):
    _load_seg(cpu, ins.dst[1], _read_op(cpu, ins.src, 4) & 0xFFFF)


def _h_mov_from_sr(cpu, ins):
    _write_op(cpu, ins.dst, 4, cpu.segs[ins.src[1]])


def _h_jcc(cpu, ins):
    if cc_holds(ins.cc, cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf):
        cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32
        cpu.cycles += 1


def _h_jmp(cpu, ins):
    cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32


def _h_call(cpu, ins):
    cpu.push32(cpu.next_eip)
    cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32
    cpu.cycles += 1


def _h_call_ind(cpu, ins):
    target = _read_op(cpu, ins.dst, 4)
    cpu.push32(cpu.next_eip)
    cpu.next_eip = target
    cpu.cycles += 1


def _h_jmp_ind(cpu, ins):
    cpu.next_eip = _read_op(cpu, ins.dst, 4)


def _far_transfer(cpu, selector, offset, is_call):
    selector &= 0xFFFF
    if selector == TSS_SEL:
        raise Trap(VEC_INVALID_TSS, error_code=selector)
    if selector == KERNEL_CS and cpu.cpl == 0:
        if is_call:
            cpu.push32(KERNEL_CS)
            cpu.push32(cpu.next_eip)
        cpu.next_eip = offset & M32
        return
    if selector == USER_CS and cpu.cpl == 3:
        if is_call:
            cpu.push32(USER_CS)
            cpu.push32(cpu.next_eip)
        cpu.next_eip = offset & M32
        return
    raise Trap(VEC_GPF, error_code=selector)


def _h_callf(cpu, ins):
    _far_transfer(cpu, ins.src[1], ins.dst[1], True)


def _h_jmpf(cpu, ins):
    _far_transfer(cpu, ins.src[1], ins.dst[1], False)


def _h_callf_ind(cpu, ins):
    ea = _ea(cpu, ins.dst[1])
    offset = cpu.mem_read(ea, 4)
    selector = cpu.mem_read((ea + 4) & M32, 2)
    _far_transfer(cpu, selector, offset, True)


def _h_jmpf_ind(cpu, ins):
    ea = _ea(cpu, ins.dst[1])
    offset = cpu.mem_read(ea, 4)
    selector = cpu.mem_read((ea + 4) & M32, 2)
    _far_transfer(cpu, selector, offset, False)


def _h_ret(cpu, ins):
    cpu.next_eip = cpu.pop32()
    if ins.src is not None:
        cpu.regs[4] = (cpu.regs[4] + (ins.src[1] & 0xFFFF)) & M32
    cpu.cycles += 1


def _h_lret(cpu, ins):
    offset = cpu.pop32()
    selector = cpu.pop32() & 0xFFFF
    if selector == TSS_SEL:
        raise Trap(VEC_INVALID_TSS, error_code=selector)
    if not ((selector == KERNEL_CS and cpu.cpl == 0)
            or (selector == USER_CS and cpu.cpl == 3)):
        raise Trap(VEC_GPF, error_code=selector)
    if ins.src is not None:
        cpu.regs[4] = (cpu.regs[4] + (ins.src[1] & 0xFFFF)) & M32
    cpu.next_eip = offset


def _pops_fast(cpu, n):
    """Pop ``n`` dwords in one slice when they sit on one resident page.

    Cycle, ESP, and permission accounting are identical to ``n``
    ``pop32`` calls; returns ``None`` (state untouched) whenever the
    per-pop path could behave differently — page split, TLB miss, user
    bit, beyond-RAM — so callers fall back to exact ``pop32``s.
    """
    esp = cpu.regs[4]
    bus = cpu.bus
    if not bus.paging_enabled or (esp & 0xFFF) + 4 * n > 4096:
        return None
    entry = bus.tlb.get(esp >> 12)
    if entry is None or (cpu.cpl == 3 and not entry[1] & 4):
        return None
    phys = (entry[0] << 12) | (esp & 0xFFF)
    if phys + 4 * n > bus.ram_size:
        return None
    values = _UNPACK_WORDS[n](bus.ram, phys)
    cpu.cycles += n
    cpu.regs[4] = (esp + 4 * n) & M32
    return values


def _h_iret(cpu, ins):
    popped = _pops_fast(cpu, 3)
    if popped is None:
        new_eip = cpu.pop32()
        cs_sel = cpu.pop32() & 0xFFFF
        new_eflags = cpu.pop32()
    else:
        new_eip = popped[0]
        cs_sel = popped[1] & 0xFFFF
        new_eflags = popped[2]
    if cs_sel == USER_CS:
        popped = _pops_fast(cpu, 2)
        if popped is None:
            new_esp = cpu.pop32()
            new_ss = cpu.pop32() & 0xFFFF
        else:
            new_esp = popped[0]
            new_ss = popped[1] & 0xFFFF
        if new_ss not in _VALID_STACK_SEL:
            raise Trap(VEC_GPF, error_code=new_ss)
        cpu.set_eflags(new_eflags)
        cpu.cpl = 3
        cpu.regs[4] = new_esp
        cpu.segs[2] = new_ss
        cpu.segs[1] = USER_CS
    elif cs_sel == KERNEL_CS:
        if cpu.cpl != 0:
            raise Trap(VEC_GPF, error_code=cs_sel)
        cpu.set_eflags(new_eflags)
        cpu.segs[1] = KERNEL_CS
    elif cs_sel == TSS_SEL:
        raise Trap(VEC_INVALID_TSS, error_code=cs_sel)
    else:
        raise Trap(VEC_GPF, error_code=cs_sel)
    cpu.next_eip = new_eip
    cpu.cycles += 4


def _h_int(cpu, ins):
    vector = ins.dst[1] & 0xFF
    if cpu.cpl == 3:
        entry = cpu.idt_base + vector * 8
        flags = cpu.bus.read(entry + 4, 4, False)
        if not flags & 2:  # gate DPL < 3: user may not invoke
            raise Trap(VEC_GPF, error_code=vector * 8 + 2)
    raise Trap(vector, return_eip=cpu.next_eip)


def _h_int3(cpu, ins):
    raise Trap(VEC_INT3, return_eip=cpu.next_eip)


def _h_into(cpu, ins):
    if cpu.of:
        raise Trap(VEC_OVERFLOW, return_eip=cpu.next_eip)


def _h_bound(cpu, ins):
    index = _signed(cpu.regs[ins.dst[1]], 4)
    ea = _ea(cpu, ins.src[1])
    lower = _signed(cpu.mem_read(ea, 4), 4)
    upper = _signed(cpu.mem_read((ea + 4) & M32, 4), 4)
    if index < lower or index > upper:
        raise Trap(VEC_BOUNDS)


def _h_ud2(cpu, ins):
    raise Trap(VEC_INVALID_OP)


def _h_nop(cpu, ins):
    pass


def _h_hlt(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    if cpu.if_flag and cpu.timer_interval:
        # Idle until the next timer tick.
        if cpu.cycles < cpu.timer_next:
            cpu.cycles = cpu.timer_next
        return
    raise CpuHalted("hlt with interrupts disabled at eip=%#x" % ins.addr)


def _h_cli(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    cpu.if_flag = 0


def _h_sti(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    cpu.if_flag = 1


def _h_clc(cpu, ins):
    cpu.cf = 0


def _h_stc(cpu, ins):
    cpu.cf = 1


def _h_cmc(cpu, ins):
    cpu.cf ^= 1


def _h_cld(cpu, ins):
    cpu.df = 0


def _h_std(cpu, ins):
    cpu.df = 1


def _h_pushf(cpu, ins):
    cpu.push32(cpu.eflags())


def _h_popf(cpu, ins):
    cpu.set_eflags(cpu.pop32(), allow_if=cpu.cpl == 0)


def _h_sahf(cpu, ins):
    value = (cpu.regs[0] >> 8) & 0xFF
    cpu.cf = value & 1
    cpu.pf = (value >> 2) & 1
    cpu.zf = (value >> 6) & 1
    cpu.sf = (value >> 7) & 1


def _h_lahf(cpu, ins):
    value = 2 | cpu.cf | (cpu.pf << 2) | (cpu.zf << 6) | (cpu.sf << 7)
    cpu.regs[0] = (cpu.regs[0] & 0xFFFF00FF) | (value << 8)


def _h_movzx(cpu, ins):
    value = _read_op(cpu, ins.src, ins.size) & _mask(ins.size)
    cpu.regs[ins.dst[1]] = value


def _h_movsx(cpu, ins):
    value = _read_op(cpu, ins.src, ins.size) & _mask(ins.size)
    cpu.regs[ins.dst[1]] = _signed(value, ins.size) & M32


def _h_setcc(cpu, ins):
    value = 1 if cc_holds(ins.cc, cpu.cf, cpu.zf, cpu.sf, cpu.of,
                          cpu.pf) else 0
    _write_op(cpu, ins.dst, 1, value)


def _h_cmovcc(cpu, ins):
    value = _read_op(cpu, ins.src, 4)
    if cc_holds(ins.cc, cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf):
        cpu.regs[ins.dst[1]] = value


def _h_cwde(cpu, ins):
    cpu.regs[0] = _signed(cpu.regs[0] & 0xFFFF, 2) & M32


def _h_cdq(cpu, ins):
    cpu.regs[2] = M32 if cpu.regs[0] >> 31 else 0


def _h_mul(cpu, ins):
    size = ins.size
    src = _read_op(cpu, ins.dst, size)
    if size == 1:
        result = (cpu.regs[0] & 0xFF) * src
        cpu.regs[0] = (cpu.regs[0] & 0xFFFF0000) | (result & 0xFFFF)
        overflow = result >> 8 != 0
    else:
        result = cpu.regs[0] * src
        cpu.regs[0] = result & M32
        cpu.regs[2] = (result >> 32) & M32
        overflow = result >> 32 != 0
    cpu.cf = cpu.of = 1 if overflow else 0


def _h_imul1(cpu, ins):
    size = ins.size
    src = _signed(_read_op(cpu, ins.dst, size), size)
    if size == 1:
        result = _signed(cpu.regs[0] & 0xFF, 1) * src
        cpu.regs[0] = (cpu.regs[0] & 0xFFFF0000) | (result & 0xFFFF)
        overflow = not -128 <= result <= 127
    else:
        result = _signed(cpu.regs[0], 4) * src
        cpu.regs[0] = result & M32
        cpu.regs[2] = (result >> 32) & M32
        overflow = not -(1 << 31) <= result < (1 << 31)
    cpu.cf = cpu.of = 1 if overflow else 0


def _h_imul2(cpu, ins):
    a = _signed(cpu.regs[ins.dst[1]], 4)
    b = _signed(_read_op(cpu, ins.src, 4), 4)
    result = a * b
    cpu.regs[ins.dst[1]] = result & M32
    cpu.cf = cpu.of = 0 if -(1 << 31) <= result < (1 << 31) else 1


def _h_imul3(cpu, ins):
    a = _signed(_read_op(cpu, ins.src, 4), 4)
    b = _signed(ins.imm2[1] & M32, 4)
    result = a * b
    cpu.regs[ins.dst[1]] = result & M32
    cpu.cf = cpu.of = 0 if -(1 << 31) <= result < (1 << 31) else 1


def _h_div(cpu, ins):
    size = ins.size
    divisor = _read_op(cpu, ins.dst, size)
    if divisor == 0:
        raise Trap(VEC_DIVIDE)
    if size == 1:
        dividend = cpu.regs[0] & 0xFFFF
        quotient = dividend // divisor
        if quotient > 0xFF:
            raise Trap(VEC_DIVIDE)
        remainder = dividend % divisor
        cpu.regs[0] = (cpu.regs[0] & 0xFFFF0000) | (remainder << 8) \
            | quotient
    else:
        dividend = (cpu.regs[2] << 32) | cpu.regs[0]
        quotient = dividend // divisor
        if quotient > M32:
            raise Trap(VEC_DIVIDE)
        cpu.regs[0] = quotient
        cpu.regs[2] = dividend % divisor


def _h_idiv(cpu, ins):
    size = ins.size
    divisor = _signed(_read_op(cpu, ins.dst, size), size)
    if divisor == 0:
        raise Trap(VEC_DIVIDE)
    if size == 1:
        dividend = _signed(cpu.regs[0] & 0xFFFF, 2)
        quotient = int(dividend / divisor)
        if not -128 <= quotient <= 127:
            raise Trap(VEC_DIVIDE)
        remainder = dividend - quotient * divisor
        cpu.regs[0] = (cpu.regs[0] & 0xFFFF0000) \
            | ((remainder & 0xFF) << 8) | (quotient & 0xFF)
    else:
        dividend = _signed(((cpu.regs[2] << 32) | cpu.regs[0]) & (2**64 - 1),
                           8)
        quotient = int(dividend / divisor)
        if not -(1 << 31) <= quotient < (1 << 31):
            raise Trap(VEC_DIVIDE)
        remainder = dividend - quotient * divisor
        cpu.regs[0] = quotient & M32
        cpu.regs[2] = remainder & M32


def _shift_count(cpu, ins):
    return _read_op(cpu, ins.src, 1) & 31


def _h_shl(cpu, ins):
    size = ins.size
    count = _shift_count(cpu, ins)
    if count == 0:
        return
    bits = 8 * size
    a = _read_op(cpu, ins.dst, size)
    res = (a << count) & _mask(size)
    cpu.cf = (a >> (bits - count)) & 1 if count <= bits else 0
    cpu.zf = 1 if res == 0 else 0
    cpu.sf = (res >> (bits - 1)) & 1
    cpu.pf = _PARITY[res & 0xFF]
    cpu.of = ((res >> (bits - 1)) & 1) ^ cpu.cf
    _write_op(cpu, ins.dst, size, res)


def _h_shr(cpu, ins):
    size = ins.size
    count = _shift_count(cpu, ins)
    if count == 0:
        return
    bits = 8 * size
    a = _read_op(cpu, ins.dst, size)
    res = a >> count
    cpu.cf = (a >> (count - 1)) & 1
    cpu.zf = 1 if res == 0 else 0
    cpu.sf = (res >> (bits - 1)) & 1
    cpu.pf = _PARITY[res & 0xFF]
    cpu.of = (a >> (bits - 1)) & 1
    _write_op(cpu, ins.dst, size, res)


def _h_sar(cpu, ins):
    size = ins.size
    count = _shift_count(cpu, ins)
    if count == 0:
        return
    a = _signed(_read_op(cpu, ins.dst, size), size)
    res = (a >> count) & _mask(size)
    cpu.cf = (a >> (count - 1)) & 1
    cpu.zf = 1 if res == 0 else 0
    cpu.sf = (res >> _msb_shift(size)) & 1
    cpu.pf = _PARITY[res & 0xFF]
    cpu.of = 0
    _write_op(cpu, ins.dst, size, res)


def _h_rol(cpu, ins):
    size = ins.size
    bits = 8 * size
    count = _shift_count(cpu, ins) % bits
    a = _read_op(cpu, ins.dst, size)
    if count:
        res = ((a << count) | (a >> (bits - count))) & _mask(size)
        cpu.cf = res & 1
        _write_op(cpu, ins.dst, size, res)


def _h_ror(cpu, ins):
    size = ins.size
    bits = 8 * size
    count = _shift_count(cpu, ins) % bits
    a = _read_op(cpu, ins.dst, size)
    if count:
        res = ((a >> count) | (a << (bits - count))) & _mask(size)
        cpu.cf = (res >> (bits - 1)) & 1
        _write_op(cpu, ins.dst, size, res)


def _h_rcl(cpu, ins):
    size = ins.size
    bits = 8 * size + 1
    count = _shift_count(cpu, ins) % bits
    if count == 0:
        return
    a = (_read_op(cpu, ins.dst, size) << 1) | cpu.cf
    res = ((a << count) | (a >> (bits - count))) & ((1 << bits) - 1)
    cpu.cf = res & 1
    _write_op(cpu, ins.dst, size, (res >> 1) & _mask(size))


def _h_rcr(cpu, ins):
    size = ins.size
    bits = 8 * size + 1
    count = _shift_count(cpu, ins) % bits
    if count == 0:
        return
    a = (_read_op(cpu, ins.dst, size) << 1) | cpu.cf
    res = ((a >> count) | (a << (bits - count))) & ((1 << bits) - 1)
    cpu.cf = res & 1
    _write_op(cpu, ins.dst, size, (res >> 1) & _mask(size))


def _h_shld(cpu, ins):
    count = (_read_op(cpu, ins.imm2, 1) if ins.imm2[0] == "i"
             else cpu.regs[1]) & 31
    if count == 0:
        return
    a = _read_op(cpu, ins.dst, 4)
    b = _read_op(cpu, ins.src, 4)
    res = ((a << count) | (b >> (32 - count))) & M32
    cpu.cf = (a >> (32 - count)) & 1
    cpu.zf = 1 if res == 0 else 0
    cpu.sf = res >> 31
    cpu.pf = _PARITY[res & 0xFF]
    _write_op(cpu, ins.dst, 4, res)


def _h_shrd(cpu, ins):
    count = (_read_op(cpu, ins.imm2, 1) if ins.imm2[0] == "i"
             else cpu.regs[1]) & 31
    if count == 0:
        return
    a = _read_op(cpu, ins.dst, 4)
    b = _read_op(cpu, ins.src, 4)
    res = ((a >> count) | (b << (32 - count))) & M32
    cpu.cf = (a >> (count - 1)) & 1
    cpu.zf = 1 if res == 0 else 0
    cpu.sf = res >> 31
    cpu.pf = _PARITY[res & 0xFF]
    _write_op(cpu, ins.dst, 4, res)


def _bt_common(cpu, ins):
    bit = _read_op(cpu, ins.src, 4)
    if ins.dst[0] == "m" and ins.src[0] == "r":
        offset = _signed(bit, 4) >> 5
        ea = (_ea(cpu, ins.dst[1]) + 4 * offset) & M32
        value = cpu.mem_read(ea, 4)
        return ea, value, bit & 31
    value = _read_op(cpu, ins.dst, 4)
    return None, value, bit & 31


def _bt_finish(cpu, ins, ea, value):
    if ea is None:
        _write_op(cpu, ins.dst, 4, value)
    else:
        cpu.mem_write(ea, 4, value)


def _h_bt(cpu, ins):
    _, value, bit = _bt_common(cpu, ins)
    cpu.cf = (value >> bit) & 1


def _h_bts(cpu, ins):
    ea, value, bit = _bt_common(cpu, ins)
    cpu.cf = (value >> bit) & 1
    _bt_finish(cpu, ins, ea, value | (1 << bit))


def _h_btr(cpu, ins):
    ea, value, bit = _bt_common(cpu, ins)
    cpu.cf = (value >> bit) & 1
    _bt_finish(cpu, ins, ea, value & ~(1 << bit))


def _h_btc(cpu, ins):
    ea, value, bit = _bt_common(cpu, ins)
    cpu.cf = (value >> bit) & 1
    _bt_finish(cpu, ins, ea, value ^ (1 << bit))


def _h_bsf(cpu, ins):
    value = _read_op(cpu, ins.src, 4)
    if value == 0:
        cpu.zf = 1
        return
    cpu.zf = 0
    cpu.regs[ins.dst[1]] = (value & -value).bit_length() - 1


def _h_bsr(cpu, ins):
    value = _read_op(cpu, ins.src, 4)
    if value == 0:
        cpu.zf = 1
        return
    cpu.zf = 0
    cpu.regs[ins.dst[1]] = value.bit_length() - 1


def _h_bswap(cpu, ins):
    value = cpu.regs[ins.dst[1]]
    cpu.regs[ins.dst[1]] = int.from_bytes(
        value.to_bytes(4, "little"), "big")


def _h_cmpxchg(cpu, ins):
    size = ins.size
    dest = _read_op(cpu, ins.dst, size)
    acc = cpu.regs[0] & _mask(size)
    res = (acc - dest) & _mask(size)
    _flags_sub(cpu, acc, dest, res, size)
    if acc == dest:
        _write_op(cpu, ins.dst, size, _read_op(cpu, ins.src, size))
    else:
        if size == 1:
            cpu.regs[0] = (cpu.regs[0] & ~0xFF) | dest
        else:
            cpu.regs[0] = dest


def _h_xadd(cpu, ins):
    size = ins.size
    a = _read_op(cpu, ins.dst, size)
    b = _read_op(cpu, ins.src, size)
    res = (a + b) & _mask(size)
    _flags_add(cpu, a, b, res, size)
    _write_op(cpu, ins.src, size, a)
    _write_op(cpu, ins.dst, size, res)


def _h_loop(cpu, ins):
    cpu.regs[1] = (cpu.regs[1] - 1) & M32
    if cpu.regs[1]:
        cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32


def _h_loope(cpu, ins):
    cpu.regs[1] = (cpu.regs[1] - 1) & M32
    if cpu.regs[1] and cpu.zf:
        cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32


def _h_loopne(cpu, ins):
    cpu.regs[1] = (cpu.regs[1] - 1) & M32
    if cpu.regs[1] and not cpu.zf:
        cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32


def _h_jcxz(cpu, ins):
    if cpu.regs[1] == 0:
        cpu.next_eip = (ins.addr + ins.length + ins.rel) & M32


def _h_leave(cpu, ins):
    cpu.regs[4] = cpu.regs[5]
    cpu.regs[5] = cpu.pop32()


def _h_enter(cpu, ins):
    cpu.push32(cpu.regs[5])
    cpu.regs[5] = cpu.regs[4]
    cpu.regs[4] = (cpu.regs[4] - (ins.dst[1] & 0xFFFF)) & M32


def _h_les(cpu, ins):
    ea = _ea(cpu, ins.src[1])
    offset = cpu.mem_read(ea, 4)
    selector = cpu.mem_read((ea + 4) & M32, 2)
    _load_seg(cpu, 0, selector)
    cpu.regs[ins.dst[1]] = offset


def _h_lds(cpu, ins):
    ea = _ea(cpu, ins.src[1])
    offset = cpu.mem_read(ea, 4)
    selector = cpu.mem_read((ea + 4) & M32, 2)
    _load_seg(cpu, 3, selector)
    cpu.regs[ins.dst[1]] = offset


# -- string operations --------------------------------------------------


def _h_movs(cpu, ins):
    size = ins.size
    step = -size if cpu.df else size
    if ins.rep is None:
        value = cpu.mem_read(cpu.regs[6], size)
        cpu.mem_write(cpu.regs[7], size, value)
        cpu.regs[6] = (cpu.regs[6] + step) & M32
        cpu.regs[7] = (cpu.regs[7] + step) & M32
        return
    iterations = 0
    while cpu.regs[1] and iterations < _REP_CHUNK:
        value = cpu.mem_read(cpu.regs[6], size)
        cpu.mem_write(cpu.regs[7], size, value)
        cpu.regs[6] = (cpu.regs[6] + step) & M32
        cpu.regs[7] = (cpu.regs[7] + step) & M32
        cpu.regs[1] = (cpu.regs[1] - 1) & M32
        iterations += 1
    if cpu.regs[1]:
        cpu.next_eip = ins.addr  # resume the rep after host events


def _h_stos(cpu, ins):
    size = ins.size
    step = -size if cpu.df else size
    value = cpu.regs[0] & _mask(size)
    if ins.rep is None:
        cpu.mem_write(cpu.regs[7], size, value)
        cpu.regs[7] = (cpu.regs[7] + step) & M32
        return
    iterations = 0
    while cpu.regs[1] and iterations < _REP_CHUNK:
        cpu.mem_write(cpu.regs[7], size, value)
        cpu.regs[7] = (cpu.regs[7] + step) & M32
        cpu.regs[1] = (cpu.regs[1] - 1) & M32
        iterations += 1
    if cpu.regs[1]:
        cpu.next_eip = ins.addr


def _h_lods(cpu, ins):
    size = ins.size
    step = -size if cpu.df else size
    count = 1
    if ins.rep is not None:
        count = cpu.regs[1]
        cpu.regs[1] = 0
    value = cpu.regs[0] & _mask(size)
    for _ in range(min(count, _REP_CHUNK)):
        value = cpu.mem_read(cpu.regs[6], size)
        cpu.regs[6] = (cpu.regs[6] + step) & M32
    if size == 1:
        cpu.regs[0] = (cpu.regs[0] & ~0xFF) | value
    else:
        cpu.regs[0] = value


def _h_cmps(cpu, ins):
    size = ins.size
    step = -size if cpu.df else size

    def one():
        a = cpu.mem_read(cpu.regs[6], size)
        b = cpu.mem_read(cpu.regs[7], size)
        res = (a - b) & _mask(size)
        _flags_sub(cpu, a, b, res, size)
        cpu.regs[6] = (cpu.regs[6] + step) & M32
        cpu.regs[7] = (cpu.regs[7] + step) & M32

    if ins.rep is None:
        one()
        return
    want_zf = 1 if ins.rep == "rep" else 0
    iterations = 0
    while cpu.regs[1] and iterations < _REP_CHUNK:
        one()
        cpu.regs[1] = (cpu.regs[1] - 1) & M32
        iterations += 1
        if cpu.zf != want_zf:
            return
    if cpu.regs[1]:
        cpu.next_eip = ins.addr


def _h_scas(cpu, ins):
    size = ins.size
    step = -size if cpu.df else size
    acc = cpu.regs[0] & _mask(size)

    def one():
        b = cpu.mem_read(cpu.regs[7], size)
        res = (acc - b) & _mask(size)
        _flags_sub(cpu, acc, b, res, size)
        cpu.regs[7] = (cpu.regs[7] + step) & M32

    if ins.rep is None:
        one()
        return
    want_zf = 1 if ins.rep == "rep" else 0
    iterations = 0
    while cpu.regs[1] and iterations < _REP_CHUNK:
        one()
        cpu.regs[1] = (cpu.regs[1] - 1) & M32
        iterations += 1
        if cpu.zf != want_zf:
            return
    if cpu.regs[1]:
        cpu.next_eip = ins.addr


# -- I/O and system instructions -----------------------------------------


def _h_in(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    if ins.size == 1:
        cpu.regs[0] = (cpu.regs[0] & ~0xFF) | 0xFF
    else:
        cpu.regs[0] = M32


def _h_out(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)


def _h_ins(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    step = -ins.size if cpu.df else ins.size
    cpu.mem_write(cpu.regs[7], ins.size, 0)
    cpu.regs[7] = (cpu.regs[7] + step) & M32


def _h_outs(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    step = -ins.size if cpu.df else ins.size
    cpu.mem_read(cpu.regs[6], ins.size)
    cpu.regs[6] = (cpu.regs[6] + step) & M32


def _h_mov_to_cr(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    value = cpu.regs[ins.dst[1]]
    cr = ins.src[1]
    if cr == 0:
        cpu.cr0 = value
        cpu.bus.paging_enabled = bool(value & 0x80000000)
        cpu.bus.flush_tlb()
    elif cr == 2:
        cpu.cr2 = value
    elif cr == 3:
        cpu.bus.set_cr3(value)
    elif cr == 4:
        cpu.cr4 = value
    else:
        raise Trap(VEC_INVALID_OP)


def _h_mov_from_cr(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    cr = ins.src[1]
    if cr == 0:
        value = cpu.cr0
    elif cr == 2:
        value = cpu.cr2
    elif cr == 3:
        value = cpu.bus.cr3
    elif cr == 4:
        value = cpu.cr4
    else:
        raise Trap(VEC_INVALID_OP)
    cpu.regs[ins.dst[1]] = value & M32


def _h_mov_to_dr(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    cpu.write_dr(ins.src[1], cpu.regs[ins.dst[1]])


def _h_mov_from_dr(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    cpu.regs[ins.dst[1]] = cpu.dr[ins.src[1]]


def _h_wrmsr(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    msr = cpu.regs[1]
    if msr == MSR_ESP0:
        cpu.esp0 = cpu.regs[0]
    elif msr == MSR_IDT_BASE:
        cpu.idt_base = cpu.regs[0]
    else:
        raise Trap(VEC_GPF, error_code=0)


def _h_rdmsr(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    msr = cpu.regs[1]
    if msr == MSR_ESP0:
        cpu.regs[0] = cpu.esp0
    elif msr == MSR_IDT_BASE:
        cpu.regs[0] = cpu.idt_base
    else:
        raise Trap(VEC_GPF, error_code=0)
    cpu.regs[2] = 0


def _h_rdtsc(cpu, ins):
    cpu.regs[0] = cpu.cycles & M32
    cpu.regs[2] = (cpu.cycles >> 32) & M32


def _h_rdpmc(cpu, ins):
    cpu.regs[0] = cpu.cycles & M32
    cpu.regs[2] = (cpu.cycles >> 32) & M32


def _h_cpuid(cpu, ins):
    leaf = cpu.regs[0]
    if leaf == 0:
        cpu.regs[0] = 1
        cpu.regs[3] = 0x756E6547  # "Genu"
        cpu.regs[2] = 0x6C65746E  # "ntel"
        cpu.regs[1] = 0x49656E69  # "ineI"
    else:
        cpu.regs[0] = 0x00000F12  # family 15 (P4), model 1
        cpu.regs[3] = 0
        cpu.regs[1] = 0
        cpu.regs[2] = 0x00000001
    # clobbers all four: done above


def _h_sysgrp(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)
    op2, reg = ins.imm2
    if op2 == 0x01 and reg == 7 and ins.dst[0] == "m":  # invlpg
        cpu.bus.invlpg(_ea(cpu, ins.dst[1]))
    # Other system-group members (sgdt/lldt/ltr/smsw...) are accepted
    # as no-ops at CPL0: the simulated platform has fixed descriptors.


def _h_xlatb(cpu, ins):
    addr = (cpu.regs[3] + (cpu.regs[0] & 0xFF)) & M32
    value = cpu.mem_read(addr, 1)
    cpu.regs[0] = (cpu.regs[0] & ~0xFF) | value


def _h_aam(cpu, ins):
    base = _read_op(cpu, ins.src, 1)
    if base == 0:
        raise Trap(VEC_DIVIDE)
    al = cpu.regs[0] & 0xFF
    ah = al // base
    al = al % base
    cpu.regs[0] = (cpu.regs[0] & 0xFFFF0000) | (ah << 8) | al
    _flags_logic(cpu, al, 1)


def _h_aad(cpu, ins):
    base = _read_op(cpu, ins.src, 1)
    al = ((cpu.regs[0] & 0xFF) + ((cpu.regs[0] >> 8) & 0xFF) * base) & 0xFF
    cpu.regs[0] = (cpu.regs[0] & 0xFFFF0000) | al
    _flags_logic(cpu, al, 1)


def _h_daa(cpu, ins):
    al = cpu.regs[0] & 0xFF
    if (al & 0xF) > 9:
        al = (al + 6) & 0xFF
    if al > 0x9F or cpu.cf:
        al = (al + 0x60) & 0xFF
        cpu.cf = 1
    carry = cpu.cf
    cpu.regs[0] = (cpu.regs[0] & ~0xFF) | al
    _flags_logic(cpu, al, 1)
    cpu.cf = carry


def _h_das(cpu, ins):
    al = cpu.regs[0] & 0xFF
    if (al & 0xF) > 9:
        al = (al - 6) & 0xFF
    carry = 1 if al > 0x9F or cpu.cf else 0
    if carry:
        al = (al - 0x60) & 0xFF
    cpu.regs[0] = (cpu.regs[0] & ~0xFF) | al
    _flags_logic(cpu, al, 1)
    cpu.cf = carry


def _h_aaa(cpu, ins):
    al = cpu.regs[0] & 0xFF
    if (al & 0xF) > 9:
        cpu.regs[0] = (cpu.regs[0] + 0x106) & M32
        cpu.cf = 1
    else:
        cpu.cf = 0
    cpu.regs[0] &= 0xFFFFFF0F


def _h_aas(cpu, ins):
    al = cpu.regs[0] & 0xFF
    if (al & 0xF) > 9:
        cpu.regs[0] = (cpu.regs[0] - 6) & M32
        cpu.cf = 1
    else:
        cpu.cf = 0


def _h_wait(cpu, ins):
    pass


def _h_clts(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)


def _h_invd(cpu, ins):
    if cpu.cpl == 3:
        raise Trap(VEC_GPF, error_code=0)


_HANDLERS = {
    "mov": _h_mov,
    "lea": _h_lea,
    "add": _h_add,
    "adc": _h_adc,
    "sub": _h_sub,
    "sbb": _h_sbb,
    "cmp": _h_cmp,
    "and": _h_and,
    "or": _h_or,
    "xor": _h_xor,
    "test": _h_test,
    "inc": _h_inc,
    "dec": _h_dec,
    "neg": _h_neg,
    "not": _h_not,
    "xchg": _h_xchg,
    "push": _h_push,
    "pop": _h_pop,
    "pusha": _h_pusha,
    "popa": _h_popa,
    "push_sr": _h_push_sr,
    "pop_sr": _h_pop_sr,
    "mov_to_sr": _h_mov_to_sr,
    "mov_from_sr": _h_mov_from_sr,
    "jcc": _h_jcc,
    "jmp": _h_jmp,
    "call": _h_call,
    "call_ind": _h_call_ind,
    "jmp_ind": _h_jmp_ind,
    "callf": _h_callf,
    "jmpf": _h_jmpf,
    "callf_ind": _h_callf_ind,
    "jmpf_ind": _h_jmpf_ind,
    "ret": _h_ret,
    "lret": _h_lret,
    "iret": _h_iret,
    "int": _h_int,
    "int3": _h_int3,
    "into": _h_into,
    "bound": _h_bound,
    "ud2": _h_ud2,
    "nop": _h_nop,
    "hlt": _h_hlt,
    "cli": _h_cli,
    "sti": _h_sti,
    "clc": _h_clc,
    "stc": _h_stc,
    "cmc": _h_cmc,
    "cld": _h_cld,
    "std": _h_std,
    "pushf": _h_pushf,
    "popf": _h_popf,
    "sahf": _h_sahf,
    "lahf": _h_lahf,
    "movzx": _h_movzx,
    "movsx": _h_movsx,
    "setcc": _h_setcc,
    "cmovcc": _h_cmovcc,
    "cwde": _h_cwde,
    "cdq": _h_cdq,
    "mul": _h_mul,
    "imul1": _h_imul1,
    "imul2": _h_imul2,
    "imul3": _h_imul3,
    "div": _h_div,
    "idiv": _h_idiv,
    "shl": _h_shl,
    "shr": _h_shr,
    "sar": _h_sar,
    "rol": _h_rol,
    "ror": _h_ror,
    "rcl": _h_rcl,
    "rcr": _h_rcr,
    "shld": _h_shld,
    "shrd": _h_shrd,
    "bt": _h_bt,
    "bts": _h_bts,
    "btr": _h_btr,
    "btc": _h_btc,
    "bsf": _h_bsf,
    "bsr": _h_bsr,
    "bswap": _h_bswap,
    "cmpxchg": _h_cmpxchg,
    "xadd": _h_xadd,
    "loop": _h_loop,
    "loope": _h_loope,
    "loopne": _h_loopne,
    "jcxz": _h_jcxz,
    "leave": _h_leave,
    "enter": _h_enter,
    "les": _h_les,
    "lds": _h_lds,
    "movs": _h_movs,
    "stos": _h_stos,
    "lods": _h_lods,
    "cmps": _h_cmps,
    "scas": _h_scas,
    "in": _h_in,
    "out": _h_out,
    "ins": _h_ins,
    "outs": _h_outs,
    "mov_to_cr": _h_mov_to_cr,
    "mov_from_cr": _h_mov_from_cr,
    "mov_to_dr": _h_mov_to_dr,
    "mov_from_dr": _h_mov_from_dr,
    "wrmsr": _h_wrmsr,
    "rdmsr": _h_rdmsr,
    "rdtsc": _h_rdtsc,
    "rdpmc": _h_rdpmc,
    "cpuid": _h_cpuid,
    "sysgrp": _h_sysgrp,
    "xlat": _h_xlatb,
    "aam": _h_aam,
    "aad": _h_aad,
    "daa": _h_daa,
    "das": _h_das,
    "aaa": _h_aaa,
    "aas": _h_aas,
    "wait": _h_wait,
    "clts": _h_clts,
    "invd": _h_invd,
}
