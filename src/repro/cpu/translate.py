"""Translated-execution fast path: a tiered, self-invalidating block cache.

The interpreter in :mod:`repro.cpu.cpu` re-decodes, re-dispatches, and
re-checks host events (watchdog, timer, alarm, pending IRQ, DR0
breakpoints) for every retired instruction.  Campaigns execute tens of
millions of instructions, so that per-instruction overhead is the
binding cost of every experiment (see BENCH_jit.json / ROADMAP.md).

This module pre-decodes *traces* — straight-line instruction runs
seeded at the statically recovered CFG's block leaders
(:mod:`repro.staticanalysis.cfg`) plus on-demand discovery, extended
through direct ``jmp``/``call`` targets and ``jcc`` fallthroughs
(taken sides become committed side exits) — and compiles the hot ones
into one specialized Python function each (``exec``-generated source).
Decode happens once; execution happens many times with no fetch, no
decode-cache validation, no per-instruction event checks, and no
per-instruction call dispatch.

Translation is *tiered*: compiling a trace costs milliseconds, far
more than interpreting it a few dozen times, and most of the code a
campaign touches runs only a handful of times per process.  Three
tiers serve a trace head:

1. *interpreted* — until dispatch has met the head
   :data:`HOT_DISPATCHES` times, each instruction is single-stepped;
2. *threaded* — then its trace is discovered and bound as its decoded
   instructions and their handlers, run one after another by
   ``_step_one``'s body minus the fetch (:func:`_threaded`), behind
   the same invalidation as a compiled trace, stopping exactly at the
   event horizon;
3. *compiled* — once the trace's template has been dispatched
   :data:`COMPILE_DISPATCHES` times in the process, its source is
   generated and compiled, and the threaded binding that noticed is
   swapped for the compiled one in place.  The template keeps its
   threaded program for the dispatches the compiled trace's guard
   refuses.

A threaded trace runs every handler with the interpreter's own
per-instruction commits, so it is bit-identical by construction; it
only skips the fetch and the per-instruction event checks, which
cannot fire below the horizon it stops at.  Heat counts and templates
live in one :class:`CodeCache` per kernel image (:func:`code_cache`):
every machine cloned from a kernel shares them, forked campaign
workers inherit them, and a template is revalidated against the raw
code bytes before reuse.

The generated code exploits what the interpreter cannot: within a
block, ``cycles``/``instret`` retires are *batched* into compile-time
constants, arithmetic flags live in Python locals (a ``cmp``+``jcc``
pair branches on the locals directly — the general form of the
cmp+jcc / dec+jnz superinstructions), and the MMU/TLB read and write
fast paths are inlined with the privilege checks specialized for the
block's compile-time CPL.  Rarely taken paths — the MMU slow paths,
trace hooks around followed transfers, and stale-code side exits —
call shared out-of-line helpers, which keeps the generated source (and
so the compile time) small.

Bit-identity contract (the differential harness in
``tests/test_translate_differential.py`` enforces this):

* before any operation that can trap (memory access, division, every
  generic handler call) or observe the counters (``rdtsc``, trace
  hooks), the generated code commits the exact interpreted
  ``cycles``/``instret``/``eip``/flag values — so traps, trace stamps,
  and crash-latency clocks are indistinguishable from interpretation;
* host events are only *elided inside* a block when they provably
  cannot fire there: dispatch maintains an *event horizon* (the
  nearest of watchdog, next timer tick, armed alarm — every
  interpreter threshold test is ``>=``, so ``cycles + worst <
  horizon`` proves the elided checks dead).  A compiled trace that
  could cross the horizon falls back to its threaded program, which
  tests ``cycles >= horizon`` after every instruction and stops at
  that boundary.  Dispatch refuses a block that contains a DR0
  breakpoint address; that case, like cold heads, falls back to
  single-step interpretation (``_step_one``, a verbatim copy of the
  interpreter loop body);
* instructions that can enable interrupts, redirect control, or change
  paging/debug state terminate their block, so no IRQ window or
  breakpoint map change can open mid-block;
* the dynamic CPL is part of the block key, so a block compiled for
  CPL0 (no user-bit checks) can never serve a CPL3 execution of the
  same address.

Self-invalidation: injected bit flips (and any self-modifying store)
rewrite the very bytes a block was compiled from.  The cache registers
every block's *physical byte ranges* in a page-keyed map and installs
itself as ``bus.code_watch``; all three store paths (the CPU's inlined
fast path, ``MemoryBus.phys_write``, ``MemoryBus.phys_write_bytes``)
notify the watch, which evicts exactly the overlapping blocks.  The
generated write fast path pre-checks page membership inline, so stores
far from translated code pay one dict lookup.  A store that rewrites
bytes of the *currently executing* trace additionally sets
``BlockCache.stale``; the generated code tests it after every writing
instruction and side-exits at the instruction boundary with the exact
interpreted ``cycles``/``instret``/``eip``, so even a self-modifying
store inside a trace never runs stale code; a threaded trace tests the
flag after every instruction.  This is the same write-generation
discipline the interpreter's decode cache uses, unified behind one
notification path.
"""

import struct

from repro.cpu.cpu import M32, WatchdogExpired, _PARITY
from repro.cpu.traps import Trap, VEC_TIMER_IRQ

PAGE_SHIFT = 12

#: pre-bound struct codecs for the generated MMU fast paths — about
#: 3x faster than ``int.from_bytes`` on slices / ``int.to_bytes``
#: assignment, which dominate translated-mode profiles.
_U32 = struct.Struct("<I").unpack_from
_P32 = struct.Struct("<I").pack_into
_P8W = struct.Struct("<8I").pack
_U8W = struct.Struct("<8I").unpack_from
KERNEL_SPACE = 0xC0000000

#: longest instruction run compiled into one translated trace.
MAX_TRACE = 64

#: dispatches of a trace head, per process, before its trace is bound
#: threaded; until then it is interpreted.  Chosen with
#: :data:`COMPILE_DISPATCHES` by a sweep over the campaign workloads
#: (docs/translation.md, "Tiering").
HOT_DISPATCHES = 4

#: threaded dispatches of a template, per process, before its trace
#: is compiled.
COMPILE_DISPATCHES = 128

#: cap on a trace's worst-case interior cycle cost.  The dispatcher
#: only enters a compiled trace when ``cycles + worst`` stays below the
#: event horizon (next timer tick / alarm / watchdog), and runs its
#: threaded program otherwise, so an oversized worst would leave a
#: long window before every tick to the slower tier; 120 cycles
#: against the 20000-cycle timer keeps that window under ~1% of a tick.
WORST_CAP = 120

#: Ops after which a block must end.  Control transfers (the block must
#: publish a dynamic ``next_eip``), IF-enabling ops (an IRQ window may
#: open), traps taking ``return_eip`` from ``next_eip``, paging/debug
#: state writers (they change decode keys or the breakpoint map), and
#: ``hlt`` (it jumps the cycle counter).
TERMINATORS = frozenset([
    "jcc", "jmp", "jmp_ind", "call", "call_ind",
    "callf", "jmpf", "callf_ind", "jmpf_ind",
    "ret", "lret", "iret",
    "loop", "loope", "loopne", "jcxz",
    "int", "int3", "into", "bound", "ud2",
    "hlt", "sti", "popf",
    "mov_to_cr", "mov_to_dr",
])

#: Worst-case cycles an instruction can add beyond its retire bump
#: (memory-operand traffic, handler surcharges).  Used to bound a
#: block's cost so elided event checks provably cannot trigger inside.
_EXTRA_COST = {
    "pusha": 8,
    "popa": 8,
    "iret": 9,
    "callf_ind": 5,
    "jmpf_ind": 5,
}
_DEFAULT_EXTRA = 4


def _cost(ins):
    return 1 + _EXTRA_COST.get(ins.op, _DEFAULT_EXTRA)


#: ops the emitter usually specializes — the discovery walk estimates
#: these at ~2 cycles when sizing a trace against ``WORST_CAP``; the
#: guard itself uses the exact worst computed during generation.
_CHEAP_OPS = frozenset([
    "mov", "add", "sub", "cmp", "and", "or", "xor", "test",
    "inc", "dec", "lea", "pop", "push", "leave", "imul3", "movzx",
    "nop", "jcc", "jmp",
])


def _walk_cost(ins):
    if ins.op in _CHEAP_OPS:
        return 2
    return _cost(ins)


class CodeCache:
    """Translation state that depends only on a kernel's code.

    One instance per kernel image (:func:`code_cache`), shared by every
    machine running that kernel: campaigns clone thousands of machines
    from one build, and forked workers inherit the parent's instance.

    * ``leaders`` — CFG basic-block leaders; discovery stops at them so
      traces tile the recovered CFG instead of forming overlapping
      superblocks.
    * ``heat`` — ``(eip, user)`` -> how often dispatch has met that
      head without a resident block; a head's trace is bound once this
      reaches :data:`HOT_DISPATCHES`.
    * ``templates`` — ``(eip, user)`` -> list of :class:`Template`,
      everything about a trace that depends only on its code bytes.  A
      machine whose bytes still match skips fetch and decode (and
      compilation, once a machine has compiled the template); a
      mismatch (an injected flip) falls through to fresh discovery,
      and a restored flip re-matches the original template.
    * ``decoded`` — ``(eip, user)`` -> the last instruction decoded
      there by any machine (see ``CPU.decode_memo``): a fresh clone
      interpreting cold code revalidates it against the raw bytes
      instead of decoding again.

    A :class:`BlockCache` built without one (unit tests driving a bare
    bus) gets a private, empty instance.
    """

    #: bound on template keys before the table is dropped wholesale.
    MAX_TEMPLATE_KEYS = 65536
    #: templates kept per key (distinct code bytes at one address).
    TEMPLATE_WAYS = 4
    #: bound on heat and decoded entries, checked as each machine arms:
    #: wild execution after an injected fault can dispatch any address.
    MAX_ENTRIES = 1 << 18

    def __init__(self, leaders=frozenset()):
        self.leaders = leaders
        self.heat = {}
        self.templates = {}
        self.decoded = {}

    def trim(self):
        """Drop the heat or decoded table once it outgrows its bound."""
        for table in (self.heat, self.decoded):
            if len(table) > self.MAX_ENTRIES:
                table.clear()


def code_cache(kernel):
    """The :class:`CodeCache` of *kernel*, built on first use.

    Seeds the leaders with the union of CFG block leaders across all
    kernel functions — a sweep paid once per kernel image.
    """
    cached = getattr(kernel, "_code_cache", None)
    if cached is not None:
        return cached
    from repro.staticanalysis.cfg import build_cfg
    leaders = set()
    for info in getattr(kernel, "functions", ()):
        try:
            cfg = build_cfg(kernel, info)
        except Exception:
            continue
        leaders.update(cfg.blocks.keys())
    cache = CodeCache(frozenset(leaders))
    try:
        kernel._code_cache = cache
    except AttributeError:
        pass
    return cache


class Template:
    """A discovered trace, independent of any machine.

    ``seq`` is the threaded program built from the discovered run;
    until it is compiled, ``items`` holds that ``(ins, kind)`` run
    (see :func:`_gen_source`).  ``runs`` counts the threaded
    dispatches of the trace in this process, and ``worst`` bounds the
    threaded trace's cost.  :meth:`compile` replaces ``items`` with
    ``make`` (a factory binding the compiled trace to one machine) and
    tightens ``worst`` to the compiled trace's; ``seq`` stays, for the
    dispatches the compiled trace's guard refuses.  A negative
    template (untranslatable head, e.g. a rep-string resume) has
    neither.
    """

    __slots__ = ("spans", "raw", "eips", "user", "end", "items", "seq",
                 "worst", "runs", "make", "generics")

    def __init__(self, spans, raw, eips, user=False, end=0, items=None):
        self.spans = spans
        self.raw = raw
        self.eips = eips
        self.user = user
        self.end = end
        self.items = items
        self.seq = None
        self.worst = 0
        self.runs = 0
        self.make = None
        self.generics = ()
        if items:
            # (ins, handler, eip, fallthrough, next trace eip): the
            # trace goes on only where the instruction lands on its
            # successor in the trace, and ends after the last one.
            seq = []
            for k, (ins, _kind) in enumerate(items):
                nxt = items[k + 1][0].addr if k + 1 < len(items) else None
                seq.append((ins, ins.run, ins.addr,
                            (ins.addr + ins.length) & M32, nxt))
            self.seq = tuple(seq)
            self.worst = sum(_cost(ins) for ins, _kind in items[:-1])

    def compile(self):
        """Generate and compile the trace's source, dropping the
        discovered run."""
        source, generics, self.worst = _gen_source(self.items, self.user,
                                                   self.end)
        self.make = _compile(source)
        self.generics = tuple(generics)
        self.items = None


def _threaded(tpl, watch):
    """Bind a template's threaded program: each instruction runs
    exactly as ``_step_one`` runs it, minus the fetch.

    The trace goes on while every instruction lands on its successor
    in the trace, no store has evicted a block (``watch.stale``) and
    the cycle counter is below the event horizon dispatch computed
    (``watch.horizon``); otherwise it stops at that instruction
    boundary with the interpreter's exact state, like the compiled
    trace's side exits, and dispatch runs the event head there.
    A trap escapes with ``eip`` at the trapping instruction for
    dispatch to deliver.  Returns the template once it is due for
    compiling, else ``None``.  The closure holds the template and the
    cache, never its :class:`Block`: a block that its own binding
    kept alive would keep a finished machine alive with it.
    """
    seq = tpl.seq

    def block(cpu):
        tpl.runs += 1
        horizon = watch.horizon
        for ins, run, eip, fallthrough, nxt in seq:
            cpu.next_eip = fallthrough
            run(cpu, ins)
            new_eip = cpu.next_eip
            cpu.eip = new_eip
            cpu.cycles += 1
            cpu.instret += 1
            if new_eip != fallthrough and new_eip != eip:
                tb = cpu.trace_branch
                if tb is not None:
                    tb(eip, new_eip)
            if new_eip != nxt or watch.stale or cpu.cycles >= horizon:
                break
        if tpl.runs >= COMPILE_DISPATCHES:
            return tpl
        return None
    return block


class Block:
    """One translated straight-line run.

    ``fn`` is the compiled trace or the threaded binding
    (:func:`_threaded`), ``threaded`` always the threaded binding: it
    serves the dispatches whose horizon ``fn``'s guard refuses, and a
    block is compiled exactly when ``fn`` is not ``threaded``.  Both
    are ``None`` for negative entries (untranslatable heads, e.g.
    rep-string resumes) cached so dispatch skips rediscovery; negative
    entries still register their bytes so stores invalidate them like
    any block.
    """

    __slots__ = ("key", "fn", "threaded", "worst", "eips", "ranges")

    def __init__(self, key, fn, threaded, worst, eips):
        self.key = key
        self.fn = fn
        self.threaded = threaded
        self.worst = worst
        self.eips = eips
        self.ranges = ()


def _step_one(cpu, eip):
    """Interpret exactly one instruction.

    A verbatim transcription of the interpreter loop *body* (fetch,
    execute, retire, trace, trap handling) — the translated dispatch
    loop falls back to this at every point where a block cannot be
    entered, so the fallback is bit-identical by construction.
    """
    try:
        ins = cpu._fetch(eip)
        fallthrough = (eip + ins.length) & M32
        cpu.next_eip = fallthrough
        ins.run(cpu, ins)
        new_eip = cpu.next_eip
        cpu.eip = new_eip
        cpu.cycles += 1
        cpu.instret += 1
        if cpu.trace_branch is not None \
                and new_eip != fallthrough and new_eip != eip:
            cpu.trace_branch(eip, new_eip)
    except Trap as trap:
        cpu.cycles += 10
        return_eip = (trap.return_eip
                      if trap.return_eip is not None else eip)
        cpu.deliver_trap(trap.vector, trap.error_code, return_eip,
                         cr2=trap.cr2)


# ----------------------------------------------------------------------
# block compilation: one generated Python function per block
# ----------------------------------------------------------------------
#
# The emitter walks the instruction run tracking *pending* retire
# bumps and *local* flag values at compile time.  State is committed
# to the cpu object only where the interpreter's state is observable:
# before anything that can raise ``Trap`` (so trap frames and
# ``return_eip`` match), before every trace hook and generic handler
# (so stamps and flag reads match), and at block exit.  Everything
# else runs on locals — ``regs`` (the CPU's own register list), the
# flag locals ``cf``/``zf``/``sf``/``of``/``pf``, and the inlined
# TLB fast path over ``ram``.

# -- out-of-line helpers ------------------------------------------------
#
# Rarely taken paths share these instead of inlining their commit /
# call / uncommit sequences into every trace: the generated source
# shrinks, and with it the compile time every hot trace pays.  Each
# takes the pending counters ``c``/``i`` and, when the flags live in
# the trace's locals, their values, and leaves exactly the state the
# inline sequence did — including when the call raises ``Trap``,
# which escapes with the committed state for dispatch to deliver.


def _commit_flags(cpu, flags):
    cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf = flags


def _read_slow(cpu, ea, size, user, c, i, eip, *flags):
    """MMU slow path of an inlined read (TLB miss, MMIO, page split)."""
    if flags:
        _commit_flags(cpu, flags)
    cpu.cycles += c + 1
    cpu.instret += i
    cpu.eip = eip
    v = cpu.bus.read(ea, size, user)
    cpu.cycles -= c + 1
    cpu.instret -= i
    return v


def _write_slow(cpu, ea, wv, size, user, c, i, eip, *flags):
    """MMU slow path of an inlined store; also serves an armed CPL0
    ``trace_write`` hook, fired before the access cycle as the
    interpreter does."""
    if flags:
        _commit_flags(cpu, flags)
    cpu.cycles += c
    cpu.instret += i
    cpu.eip = eip
    if not user:
        tw = cpu.trace_write
        if tw is not None:
            tw(ea, size, wv)
    cpu.cycles += 1
    cpu.bus.write(ea, size, wv & ((1 << 8 * size) - 1), user)
    cpu.cycles -= c + 1
    cpu.instret -= i


def _branch_hook(cpu, tb, c, i, target, src, *flags):
    """Fire ``trace_branch`` for a followed ``jmp``/``call`` seam with
    the retired state committed, then roll the counters back so the
    trace keeps batching across the seam."""
    if flags:
        _commit_flags(cpu, flags)
    cpu.cycles += c
    cpu.instret += i
    cpu.eip = target
    tb(src, target)
    cpu.cycles -= c
    cpu.instret -= i


def _side_exit(cpu, c, i, eip, *flags):
    """Commit the exact interpreted state and leave the trace."""
    if flags:
        _commit_flags(cpu, flags)
    cpu.cycles += c
    cpu.instret += i
    cpu.eip = eip


#: globals of every generated trace module.
_HELPERS = {"RDS": _read_slow, "WRS": _write_slow, "HOOK": _branch_hook,
            "EXIT": _side_exit}

_FLAG_COMMIT = ("cpu.cf = cf; cpu.zf = zf; cpu.sf = sf; "
                "cpu.of = of; cpu.pf = pf")

_CC_EXPR = (
    "{p}of", "{p}cf", "{p}zf", "{p}cf or {p}zf", "{p}sf", "{p}pf",
    "{p}sf != {p}of", "{p}zf or {p}sf != {p}of",
)


def _cond_expr(cc, p):
    """Inline equivalent of ``cc_holds(cc, ...)`` over flag names."""
    expr = _CC_EXPR[cc >> 1].format(p=p)
    if cc & 1:
        return "not (%s)" % expr
    return expr


def _ea_expr(mem):
    """Compile-time effective-address expression (mirrors ``_ea``)."""
    if mem.index is None:
        if mem.base is None:
            return "%d" % (mem.disp & M32)
        return "(regs[%d] + %d) & 4294967295" % (mem.base, mem.disp)
    if mem.base is None:
        return "(regs[%d] * %d + %d) & 4294967295" % (
            mem.index, mem.scale, mem.disp)
    return "(regs[%d] + regs[%d] * %d + %d) & 4294967295" % (
        mem.base, mem.index, mem.scale, mem.disp)


class _Emit:
    """Source emitter with compile-time pending-state tracking."""

    def __init__(self, user):
        self.user = user
        self.lines = []
        self.pc = 0          # pending (uncommitted) cycle retires
        self.pi = 0          # pending instret retires
        self.flags = False   # cf/zf/sf/of/pf live in locals
        self.generics = []   # (ins, handler) for run{k}/ins{k} refs
        self.mem = False     # block needs the paging prologue
        self.wc = 0          # monotone count of inlined memory accesses
        self.ind = 0         # base indent (batched-op fallback bodies)
        self.wrote = False   # current instruction may have stored

    def put(self, line, ind=0):
        self.lines.append("        " + "    " * (self.ind + ind) + line)

    def commit_flags(self):
        if self.flags:
            self.put(_FLAG_COMMIT)
            self.flags = False

    def flush(self, eip=None, extra_c=0, extra_i=0):
        """Commit pending counters (plus extras) and optionally eip."""
        c = self.pc + extra_c
        i = self.pi + extra_i
        if c:
            self.put("cpu.cycles += %d" % c)
        if i:
            self.put("cpu.instret += %d" % i)
        if eip is not None:
            self.put("cpu.eip = %d" % eip)
        self.pc = 0
        self.pi = 0

    def fargs(self):
        """Trailing helper arguments carrying live flag locals."""
        return ", cf, zf, sf, of, pf" if self.flags else ""

    # -- inlined MMU fast paths ----------------------------------------
    #
    # The fast paths are *commit-free*: they run entirely on locals
    # (the TLB dict, the RAM bytearray) and cannot raise, so the
    # pending counters stay batched.  Only the fallback branch — TLB
    # miss, permission failure, page split, MMIO, or an armed
    # trace_write hook — calls an out-of-line helper that commits the
    # exact interpreted state first (a Trap escaping the bus access
    # then observes precisely what the interpreter would show), and
    # un-commits it again on success so both branches rejoin in the
    # same compile-time state.

    def emit_read(self, addr, ea_src, size=4):
        """Inline ``mem_read(ea, size)`` -> local ``v`` (may Trap).

        Adds the access cycle to the pending batch; the fallback
        branch commits it eagerly so a #PF sees the interpreted
        counters.
        """
        self.mem = True
        self.put("ea = " + ea_src)
        self.put("v = None")
        if size == 4:
            self.put("if paging and ea & 4095 <= 4092:")
        else:
            self.put("if paging:")
        self.put("e = tlb.get(ea >> 12)", 1)
        self.put("if e is not None:", 1)
        if self.user:
            self.put("pfn, pfl = e", 2)
            self.put("if pfl & 4:", 2)
            k = 3
        else:
            self.put("pfn = e[0]", 2)
            k = 2
        self.put("ph = pfn << 12 | (ea & 4095)", k)
        self.put("if ph + %d <= RS:" % size, k)
        if size == 4:
            self.put("v = U32(ram, ph)[0]", k + 1)
        else:
            self.put("v = ram[ph]", k + 1)
        self.put("if v is None:")
        self.put("v = RDS(cpu, ea, %d, %s, %d, %d, %d%s)"
                 % (size, self.user, self.pc, self.pi, addr,
                    self.fargs()), 1)
        self.pc += 1  # the access cycle, batched
        self.wc += 1

    def emit_write(self, addr, ea_src, val_src, size=4):
        """Inline ``mem_write(ea, size, wv)`` (may raise Trap).

        *val_src* is the value the interpreter hands ``mem_write``,
        which the ``trace_write`` hook sees; a byte store's is a byte
        already.  The fallback also serves runs with the trace_write
        hook armed (CPL0): it commits the counters the hook must
        observe, fires the hook, and routes the store through the bus
        — mirroring the interpreter's ordering exactly.
        """
        self.mem = True
        self.put("ea = " + ea_src)
        self.put("wv = " + val_src)
        self.put("ok = False")
        fast = 0
        if not self.user:
            self.put("if cpu.trace_write is None:")
            fast = 1
        if size == 4:
            self.put("if paging and ea & 4095 <= 4092:", fast)
        else:
            self.put("if paging:", fast)
        self.put("e = tlb.get(ea >> 12)", fast + 1)
        self.put("if e is not None:", fast + 1)
        self.put("pfn, pfl = e", fast + 2)
        self.put("if %s:" % ("pfl & 6 == 6" if self.user else "pfl & 2"),
                 fast + 2)
        self.put("ph = pfn << 12 | (ea & 4095)", fast + 3)
        self.put("if ph + %d <= RS:" % size, fast + 3)
        if size == 4:
            self.put("P32(ram, ph, wv)", fast + 4)
        else:
            self.put("ram[ph] = wv", fast + 4)
        self.put("versions[ph >> 12] += 1", fast + 4)
        self.put("if ph >> 12 in wpages:", fast + 4)
        self.put("watch.note_write(ph, %d)" % size, fast + 5)
        self.put("ok = True", fast + 4)
        self.put("if not ok:")
        self.put("WRS(cpu, ea, wv, %d, %s, %d, %d, %d%s)"
                 % (size, self.user, self.pc, self.pi, addr,
                    self.fargs()), 1)
        self.pc += 1  # the access cycle, batched
        self.wc += 1
        self.wrote = True

    # -- generic fallback ----------------------------------------------

    def emit_generic(self, ins):
        """Handler call with fully committed architectural state."""
        self.commit_flags()
        self.flush(eip=ins.addr)
        k = len(self.generics)
        self.generics.append((ins, ins.run))
        self.wrote = True  # the handler may store anywhere
        return k


def _flags_tail(em, d, writeback):
    em.put("zf = 1 if res == 0 else 0")
    em.put("sf = res >> 31")
    em.put("pf = PAR[res & 255]")
    if writeback:
        em.put("regs[%d] = res" % d)
    em.flags = True


#: ``(size, source kind)`` of the ``mov`` stores emitted inline.
_STORE_SOURCES = frozenset([(4, "r"), (4, "i"), (1, "r8"), (1, "i")])


def _emit_mid(em, ins):
    """Emit a non-terminator instruction; specialized where hot."""
    op = ins.op
    dst = ins.dst
    src = ins.src

    if ins.size == 4 and dst is not None and dst[0] == "r":
        d = dst[1]

        if op == "mov":
            if src[0] == "i":
                em.put("regs[%d] = %d" % (d, src[1] & M32))
                em.pc += 1
                em.pi += 1
                return
            if src[0] == "r":
                em.put("regs[%d] = regs[%d]" % (d, src[1]))
                em.pc += 1
                em.pi += 1
                return
            if src[0] == "m":
                em.emit_read(ins.addr, _ea_expr(src[1]))
                em.put("regs[%d] = v" % d)
                em.pc += 1
                em.pi += 1
                return

        if op in ("add", "sub", "cmp") and src[0] in ("r", "i"):
            if src[0] == "i":
                b = "%d" % (src[1] & M32)
            else:
                em.put("b = regs[%d]" % src[1])
                b = "b"
            em.put("a = regs[%d]" % d)
            if op == "add":
                em.put("t = a + %s" % b)
                em.put("res = t & 4294967295")
                em.put("cf = 1 if t > 4294967295 else 0")
                em.put("of = ((~(a ^ %s) & (a ^ res)) >> 31) & 1" % b)
            else:
                em.put("res = (a - %s) & 4294967295" % b)
                em.put("cf = 1 if a < %s else 0" % b)
                em.put("of = (((a ^ %s) & (a ^ res)) >> 31) & 1" % b)
            _flags_tail(em, d, op != "cmp")
            em.pc += 1
            em.pi += 1
            return

        if op in ("and", "or", "xor", "test") and src[0] in ("r", "i"):
            sym = {"and": "&", "test": "&", "or": "|", "xor": "^"}[op]
            if src[0] == "i":
                b = "%d" % (src[1] & M32)
            else:
                b = "regs[%d]" % src[1]
            em.put("res = regs[%d] %s %s" % (d, sym, b))
            em.put("cf = 0")
            em.put("of = 0")
            _flags_tail(em, d, op != "test")
            em.pc += 1
            em.pi += 1
            return

        if op == "lea":
            em.put("regs[%d] = %s" % (d, _ea_expr(src[1])))
            em.pc += 1
            em.pi += 1
            return

        if op == "pop" and src is None:
            em.emit_read(ins.addr, "regs[4]")
            em.put("regs[4] = (ea + 4) & 4294967295")
            em.put("regs[%d] = v" % d)
            em.pc += 1
            em.pi += 1
            return

    if op == "mov" and dst is not None and dst[0] == "m" \
            and (ins.size, src[0]) in _STORE_SOURCES:
        if src[0] == "i":
            val = "%d" % (src[1] & M32)
        elif src[0] == "r":
            val = "regs[%d]" % src[1]
        elif src[1] < 4:
            val = "regs[%d] & 255" % src[1]
        else:   # ah, ch, dh, bh
            val = "regs[%d] >> 8 & 255" % (src[1] & 3)
        em.emit_write(ins.addr, _ea_expr(dst[1]), val, ins.size)
        em.pc += 1
        em.pi += 1
        return

    if op == "push" and dst[0] in ("r", "i"):
        if dst[0] == "i":
            val = "%d" % (dst[1] & M32)
        else:
            val = "regs[%d]" % dst[1]
        em.emit_write(ins.addr, "(regs[4] - 4) & 4294967295", val)
        em.put("regs[4] = ea")
        em.pc += 1
        em.pi += 1
        return

    if op == "leave":
        # esp = ebp, then ebp = pop: the read targets the new esp.
        em.put("regs[4] = regs[5]")
        em.emit_read(ins.addr, "regs[4]")
        em.put("regs[4] = (ea + 4) & 4294967295")
        em.put("regs[5] = v")
        em.pc += 1
        em.pi += 1
        return

    if op in ("inc", "dec") and ins.size == 4 and dst is not None \
            and dst[0] == "m":
        em.emit_read(ins.addr, _ea_expr(dst[1]))
        if not em.flags:
            em.put("cf = cpu.cf")  # inc/dec preserve CF
        em.put("a = v")
        if op == "inc":
            em.put("res = (a + 1) & 4294967295")
            em.put("of = ((~(a ^ 1) & (a ^ res)) >> 31) & 1")
        else:
            em.put("res = (a - 1) & 4294967295")
            em.put("of = (((a ^ 1) & (a ^ res)) >> 31) & 1")
        em.put("zf = 1 if res == 0 else 0")
        em.put("sf = res >> 31")
        em.put("pf = PAR[res & 255]")
        em.flags = True
        em.emit_write(ins.addr, "ea", "res")
        em.pc += 1
        em.pi += 1
        return

    if op == "imul3" and ins.size == 4 and dst[0] == "r" \
            and src[0] == "r" and ins.imm2 is not None:
        bs = ins.imm2[1] & M32
        if bs > 0x7FFFFFFF:
            bs -= 1 << 32
        em.put("a = regs[%d]" % src[1])
        em.put("t = (a - 4294967296 if a > 2147483647 else a) * %d"
               % bs)
        em.put("regs[%d] = t & 4294967295" % dst[1])
        # imul3 writes CF/OF only; ZF/SF/PF keep their prior values.
        over = "0 if -2147483648 <= t <= 2147483647 else 1"
        if em.flags:
            em.put("cf = %s" % over)
            em.put("of = cf")
        else:
            em.put("cpu.cf = cpu.of = %s" % over)
        em.pc += 1
        em.pi += 1
        return

    if op == "movzx" and ins.size == 1 and dst is not None \
            and dst[0] == "r" and src[0] == "m":
        em.emit_read(ins.addr, _ea_expr(src[1]), size=1)
        em.put("regs[%d] = v" % dst[1])
        em.pc += 1
        em.pi += 1
        return

    if op == "pusha":
        # Eight pushes; the stored ESP is the pre-pusha value.  When the
        # whole 32-byte frame sits on one resident writable page the
        # eight stores collapse into one slice assignment (the version
        # counter and code-watch see the same final state as eight
        # separate stores); any miss falls back to the exact per-push
        # emission below.
        em.mem = True
        em.put("osp = regs[4]")
        em.put("ok = False")
        gate = "" if em.user else "cpu.trace_write is None and "
        em.put("if %spaging and osp >= 32 "
               "and (osp - 32) & 4095 <= 4064:" % gate)
        em.put("e = tlb.get((osp - 32) >> 12)", 1)
        em.put("if e is not None:", 1)
        em.put("pfn, pfl = e", 2)
        em.put("if %s:" % ("pfl & 6 == 6" if em.user else "pfl & 2"), 2)
        em.put("ph = pfn << 12 | ((osp - 32) & 4095)", 3)
        em.put("if ph + 32 <= RS:", 3)
        em.put("ram[ph:ph + 32] = P8(regs[7], regs[6], regs[5], osp, "
               "regs[3], regs[2], regs[1], regs[0])", 4)
        em.put("versions[ph >> 12] += 8", 4)
        em.put("if ph >> 12 in wpages:", 4)
        em.put("watch.note_write(ph, 32)", 5)
        em.put("regs[4] = osp - 32", 4)
        em.put("ok = True", 4)
        em.put("if not ok:")
        em.ind = 1
        for val in ("regs[0]", "regs[1]", "regs[2]", "regs[3]", "osp",
                    "regs[5]", "regs[6]", "regs[7]"):
            em.emit_write(ins.addr, "(regs[4] - 4) & 4294967295", val)
            em.put("regs[4] = ea")
        em.ind = 0
        em.pc += 1
        em.pi += 1
        return

    if op == "popa":
        # Mirror of pusha: one 8-word unpack when the frame is on one
        # resident page (reads cannot trap there), else the exact
        # per-pop sequence.
        em.mem = True
        em.put("osp = regs[4]")
        em.put("ok = False")
        em.put("if paging and osp & 4095 <= 4064:")
        em.put("e = tlb.get(osp >> 12)", 1)
        em.put("if e is not None:", 1)
        if em.user:
            em.put("pfn, pfl = e", 2)
            em.put("if pfl & 4:", 2)
            k = 3
        else:
            em.put("pfn = e[0]", 2)
            k = 2
        em.put("ph = pfn << 12 | (osp & 4095)", k)
        em.put("if ph + 32 <= RS:", k)
        em.put("t = U8(ram, ph)", k + 1)
        em.put("regs[7] = t[0]; regs[6] = t[1]; regs[5] = t[2]", k + 1)
        em.put("regs[3] = t[4]; regs[2] = t[5]; "
               "regs[1] = t[6]; regs[0] = t[7]", k + 1)
        em.put("regs[4] = (osp + 32) & 4294967295", k + 1)
        em.put("ok = True", k + 1)
        em.put("if not ok:")
        em.ind = 1
        for i in (7, 6, 5):
            em.emit_read(ins.addr, "regs[4]")
            em.put("regs[4] = (ea + 4) & 4294967295")
            em.put("regs[%d] = v" % i)
        em.emit_read(ins.addr, "regs[4]")  # saved ESP, discarded
        em.put("regs[4] = (ea + 4) & 4294967295")
        for i in (3, 2, 1, 0):
            em.emit_read(ins.addr, "regs[4]")
            em.put("regs[4] = (ea + 4) & 4294967295")
            em.put("regs[%d] = v" % i)
        em.ind = 0
        em.pc += 1
        em.pi += 1
        return

    k = em.emit_generic(ins)
    em.put("run%d(cpu, ins%d)" % (k, k))
    em.pc += 1
    em.pi += 1


def _emit_branch_hook(em, addr, target, ind):
    em.put("tb = cpu.trace_branch", ind)
    em.put("if tb is not None:", ind)
    em.put("tb(%d, %d)" % (addr, target), ind + 1)


def _seam_hook(em, c, i, target, addr):
    """The trace hook of a followed transfer, out of line."""
    em.put("tb = cpu.trace_branch")
    em.put("if tb is not None:")
    em.put("HOOK(cpu, tb, %d, %d, %d, %d%s)"
           % (c, i, target, addr, em.fargs()), 1)


def _emit_jmp_cont(em, ins, target):
    """A followed direct ``jmp``: the trace continues at its target.

    Pure compile-time control flow — only the trace hook (rare) needs
    the exact retired state, committed inside its guard and rolled
    back so batching continues across the seam.
    """
    addr = ins.addr
    ft = (addr + ins.length) & M32
    if target != ft and target != addr:
        _seam_hook(em, em.pc + 1, em.pi + 1, target, addr)
    em.pc += 1
    em.pi += 1


def _emit_call_cont(em, ins, target):
    """A followed direct ``call``: push the return address inline and
    continue the trace inside the callee.  Flags are untouched, so the
    locals stay live across the seam."""
    addr = ins.addr
    ft = (addr + ins.length) & M32
    em.emit_write(addr, "(regs[4] - 4) & 4294967295", "%d" % ft)
    em.put("regs[4] = ea")
    if target != ft and target != addr:
        _seam_hook(em, em.pc + 2, em.pi + 1, target, addr)
    em.pc += 2
    em.pi += 1


def _emit_jcc_cont(em, ins, target):
    """A ``jcc`` mid-trace: taken is a committed side exit, not-taken
    falls through into the rest of the trace with state still batched
    (flag locals survive the seam — the general cmp+jcc fusion)."""
    addr = ins.addr
    ft = (addr + ins.length) & M32
    p = "" if em.flags else "cpu."
    em.put("if %s:" % _cond_expr(ins.cc, p))
    if em.flags:
        em.put(_FLAG_COMMIT, 1)
    em.put("cpu.cycles += %d" % (em.pc + 2), 1)
    em.put("cpu.instret += %d" % (em.pi + 1), 1)
    em.put("cpu.eip = %d" % target, 1)
    if target != ft and target != addr:
        em.put("tb = cpu.trace_branch", 1)
        em.put("if tb is not None:", 1)
        em.put("tb(%d, %d)" % (addr, target), 2)
    em.put("return", 1)
    em.pc += 1
    em.pi += 1


def _stale_check(em, next_addr):
    """Exit the trace if the last store evicted the running block.

    A store inside a trace can rewrite a *later* instruction of the
    same trace (self-modifying code, or an inlined store landing on
    translated bytes); the interpreter would see the new bytes at the
    very next fetch, so the stale closure must not run past the
    writing instruction.  ``note_write`` flags the cache when an
    eviction hits mid-execution; this check — emitted only after
    instructions that can store — commits the exact interpreted state
    at the instruction boundary and side-exits so dispatch re-derives
    everything from fresh bytes.
    """
    if not em.wrote:
        return
    em.wrote = False
    em.put("if watch.stale:")
    em.put("return EXIT(cpu, %d, %d, %d%s)"
           % (em.pc, em.pi, next_addr, em.fargs()), 1)


def _emit_term(em, ins):
    """Emit a terminator: finalize counters, eip, and the trace hook."""
    op = ins.op
    addr = ins.addr
    ft = (addr + ins.length) & M32

    if op == "jmp":
        target = (addr + ins.length + ins.rel) & M32
        em.commit_flags()
        em.flush(eip=target, extra_c=1, extra_i=1)
        if target != ft and target != addr:
            _emit_branch_hook(em, addr, target, 0)
        return

    if op == "jcc":
        target = (addr + ins.length + ins.rel) & M32
        trace_ok = target != ft and target != addr
        had = em.flags
        em.commit_flags()
        # Branch on the still-live locals when the flag producer was in
        # this block (the cmp+jcc / dec+jnz superinstruction path).
        em.put("if %s:" % _cond_expr(ins.cc, "" if had else "cpu."))
        em.put("cpu.cycles += %d" % (em.pc + 2), 1)
        em.put("cpu.instret += %d" % (em.pi + 1), 1)
        em.put("cpu.eip = %d" % target, 1)
        if trace_ok:
            _emit_branch_hook(em, addr, target, 1)
        em.put("else:")
        em.put("cpu.cycles += %d" % (em.pc + 1), 1)
        em.put("cpu.instret += %d" % (em.pi + 1), 1)
        em.put("cpu.eip = %d" % ft, 1)
        em.pc = 0
        em.pi = 0
        return

    if op == "call":
        target = (addr + ins.length + ins.rel) & M32
        em.commit_flags()
        em.emit_write(addr, "(regs[4] - 4) & 4294967295", "%d" % ft)
        em.put("regs[4] = ea")
        em.flush(eip=target, extra_c=2, extra_i=1)
        if target != ft and target != addr:
            _emit_branch_hook(em, addr, target, 0)
        return

    if op == "call_ind" and ins.dst[0] == "r":
        em.commit_flags()
        em.put("tgt = regs[%d]" % ins.dst[1])
        em.emit_write(addr, "(regs[4] - 4) & 4294967295", "%d" % ft)
        em.put("regs[4] = ea")
        em.flush(extra_c=2, extra_i=1)
        em.put("cpu.eip = tgt")
        em.put("tb = cpu.trace_branch")
        em.put("if tb is not None and tgt != %d and tgt != %d:"
               % (ft, addr))
        em.put("tb(%d, tgt)" % addr, 1)
        return

    if op == "ret":
        extra = (ins.src[1] & 0xFFFF) if ins.src is not None else 0
        em.commit_flags()
        em.emit_read(addr, "regs[4]")
        em.put("regs[4] = (ea + 4) & 4294967295")
        if extra:
            em.put("regs[4] = (regs[4] + %d) & 4294967295" % extra)
        em.flush(extra_c=2, extra_i=1)
        em.put("cpu.eip = v")
        em.put("tb = cpu.trace_branch")
        em.put("if tb is not None and v != %d and v != %d:" % (ft, addr))
        em.put("tb(%d, v)" % addr, 1)
        return

    k = em.emit_generic(ins)
    em.put("cpu.next_eip = %d" % ft)
    em.put("run%d(cpu, ins%d)" % (k, k))
    em.put("ne = cpu.next_eip")
    em.put("cpu.cycles += 1")
    em.put("cpu.instret += 1")
    em.put("cpu.eip = ne")
    em.put("tb = cpu.trace_branch")
    em.put("if tb is not None and ne != %d and ne != %d:" % (ft, addr))
    em.put("tb(%d, ne)" % addr, 1)


def _gen_source(items, user, end_eip):
    """Generate the trace function source for a discovered run.

    ``items`` is the discovered ``(ins, kind)`` sequence — ``kind`` is
    ``"mid"`` for straight-line instructions, ``"jmp"``/``"jcc"`` for
    followed control transfers, ``"term"`` for a closing terminator.
    ``end_eip`` is where execution lands if the trace runs off its end
    without a terminator (fuel or cost cap).

    Returns ``(source, generics, worst)``: ``generics`` lists the
    ``(ins, handler)`` pairs the source references positionally, and
    ``worst`` bounds the cycles the trace can consume before its last
    instruction's event-check point (exact for specialized emissions —
    accesses + retire — conservative ``_cost`` for generic handler
    calls).  The source depends only on the instruction bytes and the
    CPL, so one compiled ``_make`` serves every machine cloned from
    the same kernel (see :class:`Template`).
    """
    em = _Emit(user)
    terminated = False
    worst = 0
    last_cost = 0
    for ins, kind in items:
        wc0 = em.wc
        g0 = len(em.generics)
        if kind == "term":
            _emit_term(em, ins)
            terminated = True
        elif kind == "jmp":
            _emit_jmp_cont(em, ins,
                           (ins.addr + ins.length + ins.rel) & M32)
        elif kind == "call":
            target = (ins.addr + ins.length + ins.rel) & M32
            _emit_call_cont(em, ins, target)
            _stale_check(em, target)
        elif kind == "jcc":
            _emit_jcc_cont(em, ins,
                           (ins.addr + ins.length + ins.rel) & M32)
        else:
            _emit_mid(em, ins)
            _stale_check(em, (ins.addr + ins.length) & M32)
        if len(em.generics) > g0:
            last_cost = _cost(ins)
        elif kind == "call":
            # push access + the call's two retire-side cycles
            last_cost = (em.wc - wc0) + 2
        else:
            last_cost = (em.wc - wc0) + 1
        worst += last_cost
    worst -= last_cost  # checks before the last instruction see at
    #                     most the cost of everything preceding it
    if not terminated:
        em.commit_flags()
        em.flush(eip=end_eip)
    header = ["def _make(bus, regs, ram, tlb, versions, watch, wpages, "
              "RS, PAR, U32, P32, P8, U8, G):"]
    for k in range(len(em.generics)):
        header.append("    ins%d, run%d = G[%d]" % (k, k, k))
    header.append("    def block(cpu):")
    if em.mem:
        header.append("        paging = bus.paging_enabled")
    footer = ["    return block"]
    return "\n".join(header + em.lines + footer), em.generics, worst


def _compile(source):
    """Compile generated trace source into its ``_make`` factory."""
    namespace = dict(_HELPERS)
    exec(compile(source, "<translated-block>", "exec"), namespace)
    return namespace["_make"]


class BlockCache:
    """PC-keyed translation cache with write-through invalidation.

    Installed as ``bus.code_watch``: every store path notifies
    :meth:`note_write` with the physical byte range written, and any
    block whose registered ranges overlap is evicted before the next
    dispatch — so a flipped bit, an intermittent flip-restore pair, or
    a CPL0 self-modifying store can never execute a stale block.

    Keys mirror the interpreter's decode cache, plus the CPL the block
    was specialized for: kernel text (static linear map) executed at
    CPL0 by virtual address alone, everything else by
    ``(tlb_gen, eip, cpl)`` so remaps age entries exactly like an
    I-TLB.

    *code* is the :class:`CodeCache` of the kernel the machine runs
    (heat, templates, CFG leaders); ``None`` gives this cache a
    private one.
    """

    def __init__(self, bus, code=None, max_blocks=8192):
        self.bus = bus
        self.code = code if code is not None else CodeCache()
        self.code.trim()
        self.max_blocks = max_blocks
        self.blocks = {}
        #: phys page -> [(lo, hi, key)] byte ranges of resident blocks
        self.page_ranges = {}
        self.translated = 0
        self.threaded = 0
        self.compiled = 0
        self.hits = 0
        self.invalidations = 0
        self.single_steps = 0
        #: set by :meth:`note_write` whenever a store evicts blocks;
        #: generated code checks it after every store so a closure
        #: whose own bytes were just rewritten side-exits at the
        #: instruction boundary instead of running stale to the end.
        #: Dispatch clears it before entering each block.
        self.stale = False
        #: the event horizon of the dispatch running a trace; a
        #: threaded trace stops at the first boundary at or past it.
        self.horizon = 0
        bus.code_watch = self

    # -- telemetry ------------------------------------------------------

    def stats(self):
        return {
            "blocks": self.translated,
            "threaded": self.threaded,
            "compiled": self.compiled,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "single_steps": self.single_steps,
            "resident": len(self.blocks),
        }

    # -- invalidation ---------------------------------------------------

    def note_write(self, phys, length):
        """A store hit physical ``[phys, phys+length)``: evict overlap.

        Called from every store path (CPU fast path, ``phys_write``,
        ``phys_write_bytes``).  The common case — a write nowhere near
        translated code — is one dict miss per touched page.
        """
        if length <= 0:
            return
        ranges = self.page_ranges
        lo = phys
        hi = phys + length
        victims = None
        for page in range(lo >> PAGE_SHIFT, ((hi - 1) >> PAGE_SHIFT) + 1):
            lst = ranges.get(page)
            if lst is None:
                continue
            for start, end, key in lst:
                if start < hi and end > lo:
                    if victims is None:
                        victims = set()
                    victims.add(key)
        if victims is None:
            return
        for key in victims:
            self._evict(key)
        self.stale = True

    def _evict(self, key):
        block = self.blocks.pop(key, None)
        if block is None:
            return
        ranges = self.page_ranges
        for page, lo, hi in block.ranges:
            lst = ranges.get(page)
            if lst is not None:
                try:
                    lst.remove((lo, hi, key))
                except ValueError:
                    pass
                if not lst:
                    del ranges[page]
        self.invalidations += 1

    def flush(self):
        """Drop every translated block (counters are preserved)."""
        self.blocks.clear()
        self.page_ranges.clear()

    # -- discovery + compilation ---------------------------------------

    def _register(self, block, cpu, spans):
        """Record the trace's physical byte ranges, page by page.

        ``spans`` lists the virtual ``(start, length)`` segments the
        trace was decoded from (a followed ``jmp`` makes a trace
        multi-segment).
        """
        bus = self.bus
        user = cpu.cpl == 3
        ranges = []
        try:
            for start_v, length in spans:
                end_v = start_v + length
                vp = start_v >> PAGE_SHIFT
                last_vp = (end_v - 1) >> PAGE_SHIFT
                while vp <= last_vp:
                    seg_start = max(start_v, vp << PAGE_SHIFT)
                    seg_end = min(end_v, (vp + 1) << PAGE_SHIFT)
                    phys = bus.translate(seg_start & M32, False, user)
                    if phys + (seg_end - seg_start) <= bus.ram_size:
                        ranges.append((phys >> PAGE_SHIFT, phys,
                                       phys + (seg_end - seg_start)))
                    vp += 1
        except Trap:
            return False
        block.ranges = ranges
        page_ranges = self.page_ranges
        for page, lo, hi in ranges:
            bucket = page_ranges.get(page)
            if bucket is None:
                page_ranges[page] = [(lo, hi, block.key)]
            else:
                bucket.append((lo, hi, block.key))
        return True

    def _bind(self, cpu, tpl):
        """Bind a compiled template's trace to this machine."""
        bus = self.bus
        return tpl.make(bus, cpu.regs, bus.ram, bus.tlb, bus.page_versions,
                        self, self.page_ranges, bus.ram_size, _PARITY,
                        _U32, _P32, _P8W, _U8W, tpl.generics)

    def _materialize(self, cpu, key, tpl):
        """Bind a template to this machine and cache the Block."""
        # A negative template has no threaded program: fn stays None.
        threaded = _threaded(tpl, self) if tpl.seq is not None else None
        fn = self._bind(cpu, tpl) if tpl.make is not None else threaded
        block = Block(key, fn, threaded, tpl.worst, tpl.eips)
        if len(self.blocks) >= self.max_blocks:
            self.flush()
        if not self._register(block, cpu, tpl.spans):
            return None
        self.blocks[key] = block
        self.translated += 1
        if fn is not None and tpl.make is None:
            self.threaded += 1
        return block

    def _translate(self, cpu, eip, key, tkey):
        """Bind the trace of the hot head ``eip`` that dispatch missed.
        ``tkey`` is the head's ``(eip, user)`` heat and template key.

        The trace is bound threaded until its template is due for
        compiling; a due template is compiled here unless it holds an
        armed DR0 address, which keeps dispatch out of the trace, else
        it is bound threaded and compiled by the first dispatch that
        runs it (:meth:`_promote`).

        Returns the cached :class:`Block`, or ``None`` to interpret
        this instruction: the head is undecodable (the single-step
        fallback delivers the trap), or it has no template and the next
        timer tick is within ``WORST_CAP`` cycles.  There dispatch
        single-steps through the interiors of refused traces, so the
        heads it meets are mostly interior addresses whose traces would
        be refused now and never dispatched again away from a tick.
        """
        tpl = self._match(tkey)
        if tpl is None:
            if cpu.timer_interval \
                    and cpu.cycles + WORST_CAP >= cpu.timer_next:
                return None
            tpl = self._discover(cpu, eip, tkey[1])
            if tpl is None:
                return None
            self._remember(tkey, tpl)
        if tpl.make is None and tpl.seq is not None \
                and tpl.runs >= COMPILE_DISPATCHES:
            bp = cpu.bp_addrs
            if not bp or tpl.eips.isdisjoint(bp):
                tpl.compile()
                self.compiled += 1
        return self._materialize(cpu, key, tpl)

    def _promote(self, cpu, block, tpl):
        """Swap the threaded binding of ``block``, whose template is
        due, for its compiled trace, compiling the template first if no
        machine has yet.  A block its own run evicted is left to
        rediscovery, and a compiled block whose guard refused the
        dispatch (it ran its threaded program) is already promoted."""
        if self.blocks.get(block.key) is not block \
                or block.fn is not block.threaded:
            return
        if tpl.make is None:
            tpl.compile()
            self.compiled += 1
        block.fn = self._bind(cpu, tpl)
        block.worst = tpl.worst

    def _match(self, tkey):
        """The recorded template whose bytes match memory now."""
        bus = self.bus
        user = tkey[1]
        for tpl in self.code.templates.get(tkey, ()):
            pieces = []
            for vs, vl in tpl.spans:
                piece = bus.code_bytes(vs, vl, user)
                if piece is None:
                    pieces = None
                    break
                pieces.append(piece)
            if pieces is not None and b"".join(pieces) == tpl.raw:
                return tpl
        return None

    def _remember(self, tkey, tpl):
        """Record a discovered template for every machine of the
        kernel, evicting the oldest way of a full key."""
        if not tpl.raw:
            return
        templates = self.code.templates
        ways = templates.get(tkey)
        if ways is None:
            if len(templates) > CodeCache.MAX_TEMPLATE_KEYS:
                templates.clear()
            ways = templates[tkey] = []
        if len(ways) >= CodeCache.TEMPLATE_WAYS:
            del ways[0]
        ways.append(tpl)

    def _discover(self, cpu, eip, user):
        """Decode the trace at ``eip`` into a :class:`Template`.

        Returns the template, or ``None`` when the head is
        undecodable.  Discovery extends straight-line runs through
        direct ``jmp`` targets and ``jcc`` fallthroughs (taken sides
        become committed side exits) until a real terminator, the
        fuel/cost caps, or an address the trace already contains
        (loops re-dispatch, so hot loop bodies stay cached per head).
        """
        fetch = cpu._fetch
        leaders = self.code.leaders
        items = []
        addr = eip
        span_start = eip
        spans = []
        worst = 0
        crossed = False
        negative = False
        while len(items) < MAX_TRACE and worst <= WORST_CAP:
            try:
                ins = fetch(addr)
            except Trap:
                break
            if ins.rep is not None:
                # rep-string resumes re-dispatch at this address every
                # chunk; negative-cache so they skip rediscovery.
                if not items:
                    negative = True
                    addr = (addr + ins.length) & M32
                break
            op = ins.op
            nxt = (addr + ins.length) & M32
            if nxt <= span_start:  # address wrap: not translatable
                break
            if op == "jmp":
                target = (nxt + ins.rel) & M32
                if len(items) + 1 < MAX_TRACE and worst <= WORST_CAP \
                        and not self._contains(items, target) \
                        and target != eip:
                    items.append((ins, "jmp"))
                    worst += _walk_cost(ins)
                    spans.append((span_start, nxt - span_start))
                    span_start = target
                    addr = target
                    crossed = True
                    continue
                items.append((ins, "term"))
                worst += _walk_cost(ins)
                addr = nxt
                break
            if op == "call":
                target = (nxt + ins.rel) & M32
                if len(items) + 1 < MAX_TRACE and worst <= WORST_CAP \
                        and not self._contains(items, target) \
                        and target != eip:
                    items.append((ins, "call"))
                    worst += _walk_cost(ins)
                    spans.append((span_start, nxt - span_start))
                    span_start = target
                    addr = target
                    crossed = True
                    continue
                items.append((ins, "term"))
                worst += _walk_cost(ins)
                addr = nxt
                break
            if op == "jcc":
                if len(items) + 1 < MAX_TRACE and worst <= WORST_CAP \
                        and not self._contains(items, nxt) \
                        and nxt != eip:
                    items.append((ins, "jcc"))
                    worst += _walk_cost(ins)
                    addr = nxt
                    crossed = True
                    continue
                items.append((ins, "term"))
                worst += _walk_cost(ins)
                addr = nxt
                break
            items.append((ins, "mid"))
            worst += _walk_cost(ins)
            addr = nxt
            if op in TERMINATORS:
                items[-1] = (ins, "term")
                break
            if not crossed and addr in leaders:
                break
        if negative:
            if addr - eip <= 0:
                return None
            return Template(((eip, addr - eip),), ins.raw,
                            frozenset((eip,)))
        if not items:
            return None
        spans.append((span_start, addr - span_start))
        # A trace ending exactly on a followed-jmp seam leaves a
        # zero-length final span; it covers no bytes, drop it.
        spans = tuple((vs, vl) for vs, vl in spans if vl > 0)
        if not spans:
            return None
        return Template(spans, b"".join(i.raw for i, _ in items),
                        frozenset(i.addr for i, _ in items), user, addr,
                        tuple(items))

    @staticmethod
    def _contains(items, target):
        for ins, _ in items:
            if ins.addr == target:
                return True
        return False

    # -- dispatch -------------------------------------------------------

    def run(self, cpu, max_cycles):
        """Drop-in replacement for the interpreter's main loop.

        The outer loop replicates the interpreter's event head
        (watchdog, timer, alarm) verbatim and folds the three
        thresholds into a single *event horizon*; the inner loop then
        dispatches blocks behind the IRQ-window and DR0 checks.  A
        compiled trace runs where ``cycles + worst < horizon``, and
        its threaded program everywhere else: that program tests
        ``cycles >= horizon`` after each instruction and stops there.
        Every threshold test in the interpreter is ``>=``, so a trace
        that goes on only below the horizon skips only checks that
        could not have fired.  Any event, hook, trap, or
        untranslatable head drops back to the outer loop (or to
        single-step interpretation), so state-changing paths always
        re-derive the horizon.
        """
        bus = self.bus
        get_block = self.blocks.get
        heat = self.code.heat
        hot = HOT_DISPATCHES
        deliver = cpu.deliver_trap
        # The loop only exits by raising (shutdown, watchdog, panic,
        # budget); the hit and step counters live in locals on the hot
        # path and land in telemetry on the way out.
        hits = 0
        steps = 0
        try:
            while True:
                cycles = cpu.cycles
                if cycles >= max_cycles:
                    raise WatchdogExpired("cycle budget %d exhausted"
                                          % max_cycles)
                if cpu.timer_interval and cycles >= cpu.timer_next:
                    cpu.pending_irq = True
                    cpu.timer_next = cycles + cpu.timer_interval
                if cpu.alarm_cycle is not None \
                        and cycles >= cpu.alarm_cycle:
                    hook = cpu.on_alarm
                    cpu.alarm_cycle = None
                    cpu.on_alarm = None
                    if hook is not None:
                        hook(cpu)
                horizon = max_cycles
                if cpu.timer_interval and cpu.timer_next < horizon:
                    horizon = cpu.timer_next
                if cpu.alarm_cycle is not None \
                        and cpu.alarm_cycle < horizon:
                    horizon = cpu.alarm_cycle
                self.horizon = horizon
                while True:
                    irq = cpu.pending_irq and cpu.if_flag
                    if irq:
                        cpu.pending_irq = False
                        deliver(VEC_TIMER_IRQ, None, cpu.eip)
                    eip = cpu.eip
                    bp = cpu.bp_addrs
                    if bp and eip in bp:
                        hook = cpu.on_breakpoint
                        if hook is not None:
                            hook(cpu, bp[eip])
                        # The hook may mutate anything (it is the
                        # injector); interpret this instruction so
                        # every hook interaction matches the reference
                        # loop, then re-derive the horizon.
                        steps += 1
                        _step_one(cpu, eip)
                        break
                    if irq:
                        # The reference loop runs the handler's first
                        # instruction in the iteration that delivered
                        # the IRQ, before any event test: delivery may
                        # have crossed the budget or an alarm.
                        steps += 1
                        _step_one(cpu, eip)
                        break
                    if cpu.cpl == 0 and eip >= KERNEL_SPACE:
                        key = eip
                    else:
                        key = (bus.tlb_gen, eip, cpu.cpl)
                    block = get_block(key)
                    if block is None:
                        # Count the head's heat here: a cold head
                        # (the common miss) costs no call.
                        tkey = (eip, cpu.cpl == 3)
                        dispatched = heat.get(tkey, 0) + 1
                        heat[tkey] = dispatched
                        if dispatched >= hot:
                            block = self._translate(cpu, eip, key, tkey)
                    else:
                        hits += 1
                    if block is not None and block.fn is not None \
                            and (not bp or block.eips.isdisjoint(bp)):
                        fn = block.fn
                        if cpu.cycles + block.worst >= horizon:
                            fn = block.threaded
                        self.stale = False
                        try:
                            due = fn(cpu)
                        except Trap as trap:
                            cpu.cycles += 10
                            return_eip = (trap.return_eip
                                          if trap.return_eip is not None
                                          else cpu.eip)
                            deliver(trap.vector, trap.error_code,
                                    return_eip, cr2=trap.cr2)
                            break
                        if due is not None:
                            self._promote(cpu, block, due)
                        if cpu.cycles >= horizon:
                            break
                        continue
                    steps += 1
                    _step_one(cpu, eip)
                    break
        finally:
            self.hits += hits
            self.single_steps += steps
