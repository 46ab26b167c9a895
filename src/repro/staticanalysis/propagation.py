"""Symbolic error-propagation analysis (static Fig 6/7/8 prediction).

The pre-classifier (:mod:`repro.staticanalysis.predict`) answers *what
the mutated instruction is*; this module answers *what the corruption
does next*.  For a flip site it seeds a symbolic corruption and runs an
interprocedural abstract interpretation over the function's CFG,
propagating a corruption lattice through registers, flags and stack
slots, and across call/return boundaries via cached per-function
summaries (the FastFlip recipe: analyze each section once, compose).

The lattice, per tracked resource::

    CLEAN < CORRUPT_VALUE < CORRUPT_POINTER      (registers, slots)
    CLEAN < CORRUPT_FLAGS                        (cf zf sf of pf df)
    CORRUPT_PC                                   (terminal: wild fetch)

``CORRUPT_VALUE`` is a wrong bit pattern flowing through data moves and
ALU ops; it is promoted to ``CORRUPT_POINTER`` at the moment it is used
to *address* memory — the use site is then a potential faulting use.
``CORRUPT_FLAGS`` diverges control at the next consuming ``jcc``.
``CORRUPT_PC`` (stream desync, corrupted branch target, corrupted
return address) makes the machine fetch from an unintended address:
every trap class is then reachable.

For each site the solver emits a :class:`SiteVerdict`:

* ``traps`` — the set of first-failure trap classes the corruption can
  reach (:data:`TRAP_CLASSES`; ``silent`` means a no-crash execution is
  possible).
* ``latency_lo``/``latency_hi`` — instruction-count bounds from the
  flip to the first faulting use along shortest/longest CFG paths
  (``hi`` is ``None`` when a loop, a callee of unknown length, or an
  escape makes the window unbounded).
* ``subsystems`` — subsystems reachable by corrupted definitions (the
  static Figure 8 propagation set; ``(wild)`` marks PC corruption).
* ``escapes`` — corrupted defs can leave the home subsystem.

Verdicts are *may* analyses: the trap set over-approximates, the lower
bound under-approximates, the upper bound over-approximates.  The
``static_propagation`` exhibit scores them against the dynamic
campaigns, and tier-1 ``tests/test_static_exhibit.py`` gates its trap
and latency containment on a campaign-A fs slice.
"""

import hashlib
import heapq

from repro.isa.registers import REG_NAMES
from repro.staticanalysis.cfg import branch_target, build_cfg
from repro.staticanalysis.dataflow import FLAGS, instr_defs_uses
from repro.staticanalysis.predict import (
    PRED_INVALID_OPCODE,
    PRED_LENGTH_CHANGE,
    _decode_mutated,
    _same_semantics,
)
from repro.staticanalysis.stackdepth import _Unanalyzable, _step

# --- the corruption lattice -------------------------------------------

CLEAN = "CLEAN"
CORRUPT_VALUE = "CORRUPT_VALUE"
CORRUPT_POINTER = "CORRUPT_POINTER"
CORRUPT_FLAGS = "CORRUPT_FLAGS"
CORRUPT_PC = "CORRUPT_PC"

LATTICE = (CLEAN, CORRUPT_VALUE, CORRUPT_POINTER, CORRUPT_FLAGS,
           CORRUPT_PC)

#: Taint kind ordering for joins (POINTER subsumes VALUE).
_KIND_RANK = {CORRUPT_VALUE: 1, CORRUPT_POINTER: 2}

# --- predicted first-failure trap classes -----------------------------

TRAP_PAGE_FAULT = "page_fault"        # null deref / bad paging request
TRAP_GPF = "gpf"
TRAP_INVALID_OPCODE = "invalid_opcode"
TRAP_DIVIDE = "divide_error"
TRAP_NONE = "silent"                  # a no-crash execution is possible

TRAP_CLASSES = (TRAP_PAGE_FAULT, TRAP_GPF, TRAP_INVALID_OPCODE,
                TRAP_DIVIDE, TRAP_NONE)

#: A corrupted pointer dereference: unmapped (#PF) or out of segment
#: bounds (#GP) on the simulated CPU.
POINTER_TRAPS = frozenset((TRAP_PAGE_FAULT, TRAP_GPF))
#: Wild fetch (corrupted PC): garbage decodes, derefs, divides.
WILD_TRAPS = frozenset((TRAP_PAGE_FAULT, TRAP_GPF,
                        TRAP_INVALID_OPCODE, TRAP_DIVIDE))
#: Control divergence: valid code runs on the wrong path — skipped
#: validity checks deref bad pointers, BUG() paths hit ud2.
DIVERGED_TRAPS = frozenset((TRAP_PAGE_FAULT, TRAP_GPF,
                            TRAP_INVALID_OPCODE, TRAP_DIVIDE,
                            TRAP_NONE))

#: Pseudo-subsystem marking PC corruption (execution can land anywhere),
#: mirroring the ``(wild)`` bucket of the dynamic Figure 8 analysis.
WILD_SUBSYSTEM = "(wild)"

#: Dynamic ``crash_cause`` -> static trap class (Figure 6 vocabulary).
CAUSE_TO_TRAP = {
    "null_pointer": TRAP_PAGE_FAULT,
    "paging_request": TRAP_PAGE_FAULT,
    "gpf": TRAP_GPF,
    "invalid_opcode": TRAP_INVALID_OPCODE,
    "divide_error": TRAP_DIVIDE,
}

#: Kernel functions that never return to their caller; the solver (and
#: the stack-depth fixpoint) treats a ``call`` into them as a path end.
NORETURN_FUNCTIONS = frozenset(("panic", "do_exit"))

_GPRS = frozenset(REG_NAMES)
_FLAG_SET = frozenset(FLAGS)

_COND_OPS = frozenset(("jcc", "loop", "loope", "loopne", "jcxz"))
_RET_OPS = frozenset(("ret", "lret", "iret"))


def trap_of_cause(cause):
    """Map a dynamic crash cause onto the static trap vocabulary."""
    return CAUSE_TO_TRAP.get(cause, "other")


#: Cycle cost ceiling of one simulated instruction (most cost 1, a few
#: complex ops up to ~10; 16 is a safe ceiling) — converts a static
#: instruction-count upper bound into a cycle bound.
MAX_CYCLES_PER_INSTR = 16

#: Fixed slack added to converted upper bounds: interrupt handling and
#: the crash path itself burn cycles between the faulting use and the
#: recorded crash timestamp.
LATENCY_SLACK_CYCLES = 200


def latency_within_bounds(latency_cycles, lo, hi):
    """Does a measured crash latency fall inside a static bound?

    *lo* is in instructions along the shortest path — every
    instruction costs at least one cycle, so it lower-bounds cycles
    directly.  *hi* is in instructions along the longest path and is
    scaled by :data:`MAX_CYCLES_PER_INSTR` (plus
    :data:`LATENCY_SLACK_CYCLES`) before comparing; ``None`` means
    unbounded.
    """
    if latency_cycles is None:
        return False
    if (lo or 0) > latency_cycles:
        return False
    if hi is None:
        return True
    return latency_cycles <= hi * MAX_CYCLES_PER_INSTR \
        + LATENCY_SLACK_CYCLES


class SiteVerdict:
    """Static prediction for one flip site.

    ``escapes`` is the broad flag (corrupted defs can leave the home
    *subsystem*, e.g. through a call with corrupted arguments);
    ``escapes_caller`` is the narrower — and for the delta planner
    decisive — fact that corruption *survives the return* (in eax or
    a global store), so execution after the home function can diverge
    anywhere in its caller cone.
    """

    __slots__ = ("seed", "traps", "latency_lo", "latency_hi",
                 "subsystems", "escapes", "escapes_caller")

    def __init__(self, seed, traps, latency_lo, latency_hi, subsystems,
                 escapes, escapes_caller=False):
        self.seed = seed
        self.traps = frozenset(traps)
        self.latency_lo = latency_lo
        self.latency_hi = latency_hi
        self.subsystems = frozenset(subsystems)
        self.escapes = escapes
        self.escapes_caller = escapes_caller

    @property
    def predicts_crash(self):
        return bool(self.traps - frozenset((TRAP_NONE,)))

    @property
    def predicts_silent_only(self):
        return self.traps == frozenset((TRAP_NONE,))

    def to_dict(self):
        return {
            "seed": self.seed,
            "traps": sorted(self.traps),
            "latency_lo": self.latency_lo,
            "latency_hi": self.latency_hi,
            "subsystems": sorted(self.subsystems),
            "escapes": self.escapes,
            "escapes_caller": self.escapes_caller,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["seed"], data["traps"], data["latency_lo"],
                   data["latency_hi"], data["subsystems"],
                   data["escapes"],
                   data.get("escapes_caller", False))

    def __repr__(self):
        hi = "inf" if self.latency_hi is None else self.latency_hi
        return ("SiteVerdict(%s, traps=%s, latency=[%s, %s], -> %s)"
                % (self.seed, "|".join(sorted(self.traps)),
                   self.latency_lo, hi, "+".join(sorted(self.subsystems))))


class FunctionSummary:
    """Cached interprocedural facts about one function.

    The FastFlip-style composition unit: computed once per function,
    reused by every site analysis that crosses a call boundary into it.

    Attributes:
        min_fault_distance: fewest instructions from entry to a
            may-trap instruction (lower bound for faults *inside* a
            callee entered with corrupted arguments), or ``None`` when
            the function cannot trap at all.
        min_len: fewest instructions entry -> return (call-through
            lower-bound contribution).
        max_len: most instructions entry -> return along acyclic
            paths, ``None`` when a loop or an unbounded callee makes
            the walk unbounded.
        reach_subsystems: subsystems of the function plus everything
            transitively callable from it.
        noreturn: the function never returns (``panic``/``do_exit``).
    """

    __slots__ = ("name", "subsystem", "min_fault_distance", "min_len",
                 "max_len", "reach_subsystems", "noreturn")

    def __init__(self, name, subsystem, min_fault_distance, min_len,
                 max_len, reach_subsystems, noreturn=False):
        self.name = name
        self.subsystem = subsystem
        self.min_fault_distance = min_fault_distance
        self.min_len = min_len
        self.max_len = max_len
        self.reach_subsystems = frozenset(reach_subsystems)
        self.noreturn = noreturn

    def __repr__(self):
        return ("FunctionSummary(%s/%s, fault>=%s, len=[%s,%s], %s)"
                % (self.name, self.subsystem, self.min_fault_distance,
                   self.min_len, self.max_len,
                   "+".join(sorted(self.reach_subsystems))))


class _TaintState:
    """Mutable abstract state: which resources hold corrupted data.

    ``regs``/``slots`` map resource -> kind (CORRUPT_VALUE or
    CORRUPT_POINTER); ``flags`` is the set of corrupted flag names;
    ``mem`` means corruption reached non-stack memory (globals / wild
    stores); ``diverged`` means control already forked off the golden
    path.  ``slots`` keys are stack depths as defined by
    :mod:`repro.staticanalysis.stackdepth` (key 0 = the return
    address slot).
    """

    __slots__ = ("regs", "flags", "slots", "mem", "diverged")

    def __init__(self, regs=None, flags=None, slots=None, mem=False,
                 diverged=False):
        self.regs = dict(regs or {})
        self.flags = set(flags or ())
        self.slots = dict(slots or {})
        self.mem = mem
        self.diverged = diverged

    def copy(self):
        return _TaintState(self.regs, self.flags, self.slots, self.mem,
                           self.diverged)

    @property
    def empty(self):
        return not (self.regs or self.flags or self.slots or self.mem)

    def join(self, other):
        """In-place join; returns True when anything changed."""
        changed = False
        for reg, kind in other.regs.items():
            if _KIND_RANK.get(kind, 0) > _KIND_RANK.get(
                    self.regs.get(reg), 0):
                self.regs[reg] = kind
                changed = True
        if not other.flags <= self.flags:
            self.flags |= other.flags
            changed = True
        for key, kind in other.slots.items():
            if _KIND_RANK.get(kind, 0) > _KIND_RANK.get(
                    self.slots.get(key), 0):
                self.slots[key] = kind
                changed = True
        if other.mem and not self.mem:
            self.mem = True
            changed = True
        if other.diverged and not self.diverged:
            self.diverged = True
            changed = True
        return changed

    def __repr__(self):
        return ("_TaintState(regs=%s, flags=%s, slots=%s, mem=%s)"
                % (sorted(self.regs), sorted(self.flags),
                   sorted(self.slots), self.mem))


class _SiteSolve:
    """Accumulator for one site's fixpoint (events + escape facts)."""

    __slots__ = ("events", "silent", "escapes_caller", "call_reaches",
                 "wild", "diverged")

    def __init__(self):
        # addr -> (traps frozenset, extra_lo int, extra_hi int|None)
        self.events = {}
        self.silent = False           # a no-fault execution exists
        self.escapes_caller = False   # corruption survives the return
        self.call_reaches = set()     # subsystems entered corrupted
        self.wild = False             # PC corruption occurred
        self.diverged = False

    def add_event(self, addr, traps, extra_lo=0, extra_hi=0):
        old = self.events.get(addr)
        if old is None:
            self.events[addr] = (frozenset(traps), extra_lo, extra_hi)
            return
        traps = old[0] | frozenset(traps)
        lo = min(old[1], extra_lo)
        hi = None if (old[2] is None or extra_hi is None) \
            else max(old[2], extra_hi)
        self.events[addr] = (traps, lo, hi)


class PropagationAnalyzer:
    """Whole-image symbolic error-propagation analysis.

    Caches per-function CFGs, depth maps and summaries so analyzing
    every site of the kernel image is one pass over each function plus
    O(1) summary lookups at call boundaries.  The summary cache is
    keyed by ``(name, composed byte-fingerprint)`` — the function's
    raw bytes hashed together with those of its transitive direct
    callees — never by name alone, so a summary dict that outlives a
    kernel rebuild (a warm analyzer, a persisted cache) can only ever
    serve entries whose code is provably identical; a rebuilt
    function, or any function calling into one, misses and
    recomputes.

    >>> analyzer = PropagationAnalyzer(kernel)
    >>> analyzer.analyze_site("sys_open", addr, 0, 3)
    SiteVerdict(CORRUPT_VALUE, traps=gpf|page_fault, ...)
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self._by_name = {f.name: f for f in kernel.functions}
        self._cfgs = {}
        self._depths = {}
        self._summaries = {}
        self._byte_fps = {}
        self._summary_keys = {}
        self._in_progress = set()
        self._callers = None
        self._noreturn_addrs = frozenset(
            f.start for f in kernel.functions
            if f.name in NORETURN_FUNCTIONS)

    # -- cache keys --------------------------------------------------

    def byte_fingerprint(self, name):
        """sha256 (truncated) of the function's raw image bytes."""
        fp = self._byte_fps.get(name)
        if fp is None:
            info = self._by_name[name]
            code = bytes(self.kernel.code[
                info.start - self.kernel.base:
                info.end - self.kernel.base])
            fp = hashlib.sha256(code).hexdigest()[:16]
            self._byte_fps[name] = fp
        return fp

    def summary_key(self, name):
        """Composed cache key: own bytes + transitive callees' bytes.

        A :class:`FunctionSummary` folds in callee facts, so byte
        identity of the function alone is not enough for reuse — the
        key hashes the whole forward call closure.
        """
        key = self._summary_keys.get(name)
        if key is None:
            closure = set()
            work = [name]
            while work:
                current = work.pop()
                if current in closure or current not in self._by_name:
                    continue
                closure.add(current)
                cfg = self.cfg(current)
                if cfg is None:
                    continue
                for _, target in cfg.calls:
                    if target is None:
                        continue
                    callee = self._find_function(target)
                    if callee is not None:
                        work.append(callee.name)
            blob = "|".join("%s=%s" % (n, self.byte_fingerprint(n))
                            for n in sorted(closure))
            key = (name,
                   hashlib.sha256(blob.encode()).hexdigest()[:16])
            self._summary_keys[name] = key
        return key

    # -- shared per-function state ----------------------------------

    def _find_function(self, addr):
        finder = getattr(self.kernel, "find_function", None)
        if finder is not None:
            return finder(addr)
        for info in self.kernel.functions:
            if info.start <= addr < info.end:
                return info
        return None

    def cfg(self, name):
        cfg = self._cfgs.get(name)
        if cfg is None:
            info = self._by_name.get(name)
            if info is None:
                return None
            cfg = build_cfg(self.kernel, info)
            self._cfgs[name] = cfg
        return cfg

    def _depth_map(self, name):
        """{instr_addr: (depth, frame)} before each instruction.

        ``None`` when the function's stack discipline is untrackable
        (slot tracking is then disabled and call-argument taint falls
        back to "any corruption at all").
        """
        if name in self._depths:
            return self._depths[name]
        cfg = self.cfg(name)
        result = None
        if cfg is not None and not cfg.has_bad_instr:
            result = {}
            seen = {cfg.entry: (0, None)}
            work = [cfg.entry]
            try:
                while work:
                    start = work.pop()
                    depth, frame = seen[start]
                    block = cfg.blocks[start]
                    terminated = False
                    for ins in block.instrs:
                        result[ins.addr] = (depth, frame)
                        if self._noreturn_call_target(ins) is not None:
                            terminated = True  # path ends mid-block
                            break
                        depth, frame = _step(ins, depth, frame)
                    if terminated:
                        continue
                    for succ in block.succs:
                        if succ not in seen:
                            seen[succ] = (depth, frame)
                            work.append(succ)
            except _Unanalyzable:
                result = None
        self._depths[name] = result
        return result

    def _call_target(self, ins):
        if ins.op != "call":
            return None
        target = branch_target(ins)
        if target is None:
            return None
        return self._find_function(target)

    def _noreturn_call_target(self, ins):
        info = self._call_target(ins)
        if info is not None and info.name in NORETURN_FUNCTIONS:
            return info
        return None

    def callers_of(self, name):
        """Subsystems of the direct callers of *name* (reverse edges)."""
        if self._callers is None:
            callers = {}
            for info in self.kernel.functions:
                cfg = self.cfg(info.name)
                for _, target in cfg.calls:
                    if target is None:
                        continue
                    callee = self._find_function(target)
                    if callee is not None:
                        callers.setdefault(callee.name, set()).add(
                            info.subsystem)
            self._callers = callers
        return self._callers.get(name, set())

    # -- per-function summaries (the FastFlip composition unit) ------

    def summary(self, name):
        info = self._by_name.get(name)
        if info is None or name in self._in_progress:
            # Unknown callee or call-graph cycle: sound bottom.
            return FunctionSummary(name, None, 0, 1, None,
                                   (info.subsystem,) if info else ())
        key = self.summary_key(name)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        self._in_progress.add(name)
        try:
            summary = self._compute_summary(info)
        finally:
            self._in_progress.discard(name)
        self._summaries[key] = summary
        return summary

    def _compute_summary(self, info):
        cfg = self.cfg(info.name)
        reach = {info.subsystem}
        callee_min = {}
        callee_max = {}
        for addr, target in cfg.calls:
            callee = None if target is None \
                else self._find_function(target)
            if callee is None:
                # Indirect/unresolved call: anything may run.
                reach.add(WILD_SUBSYSTEM)
                callee_min[addr] = 1
                callee_max[addr] = None
                continue
            sub = self.summary(callee.name)
            reach |= sub.reach_subsystems
            callee_min[addr] = 1 if sub.noreturn else 1 + sub.min_len
            callee_max[addr] = None if (sub.noreturn
                                        or sub.max_len is None) \
                else 1 + sub.max_len
        min_fault = self._min_distance(
            cfg, cfg.entry,
            lambda ins: instr_defs_uses(ins).may_trap,
            callee_min)
        min_len = self._min_distance(
            cfg, cfg.entry, lambda ins: ins.op in _RET_OPS, callee_min,
            inclusive=True)
        noreturn = info.name in NORETURN_FUNCTIONS or min_len is None
        max_len = None if noreturn else self._max_len(cfg, callee_max)
        return FunctionSummary(
            info.name, info.subsystem, min_fault,
            min_len if min_len is not None else 1,
            max_len, reach, noreturn)

    def _instr_successors(self, cfg, callee_weights=None):
        """{addr: [(succ_addr, weight)]} over the instruction graph.

        The weight of an edge out of a ``call`` carries the callee's
        path-length contribution (from *callee_weights*, keyed by call
        address; ``None`` marks an unbounded callee).  Calls into
        noreturn functions get no successors.
        """
        succs = {}
        for block in cfg.block_order():
            instrs = block.instrs
            for index, ins in enumerate(instrs):
                out = []
                weight = 1
                if callee_weights is not None \
                        and ins.addr in callee_weights:
                    weight = callee_weights[ins.addr]
                if self._noreturn_call_target(ins) is not None:
                    succs[ins.addr] = []
                    continue
                if index + 1 < len(instrs):
                    out.append((instrs[index + 1].addr, weight))
                else:
                    for succ in block.succs:
                        target = cfg.blocks[succ].instrs[0].addr
                        out.append((target, weight))
                succs[ins.addr] = out
        return succs

    def _min_distance(self, cfg, entry, goal, callee_min,
                      inclusive=False):
        """Fewest instructions from *entry* to an instruction matching
        *goal* (0 when the entry instruction matches).  *inclusive*
        counts the matching instruction itself (path lengths)."""
        succs = self._instr_successors(cfg, callee_min)
        start = cfg.blocks[entry].instrs[0].addr
        dist = {start: 0}
        heap = [(0, start)]
        instr_at = {i.addr: i for b in cfg.blocks.values()
                    for i in b.instrs}
        while heap:
            d, addr = heapq.heappop(heap)
            if d > dist.get(addr, float("inf")):
                continue
            ins = instr_at[addr]
            if goal(ins):
                return d + (1 if inclusive else 0)
            for succ, weight in succs.get(addr, ()):
                if weight is None:
                    weight = 1  # lower bound through unbounded callee
                nd = d + weight
                if nd < dist.get(succ, float("inf")):
                    dist[succ] = nd
                    heapq.heappush(heap, (nd, succ))
        return None

    def _max_len(self, cfg, callee_max):
        """Longest entry->ret instruction count, ``None`` if unbounded
        (cyclic CFG, unbounded callee, or no return at all)."""
        if any(weight is None for weight in callee_max.values()):
            return None
        order = self._topo_blocks(cfg)
        if order is None:
            return None
        best = {cfg.entry: 0}
        result = None
        for start in order:
            if start not in best:
                continue
            total = best[start]
            block = cfg.blocks[start]
            for ins in block.instrs:
                total += callee_max.get(ins.addr, 1)
                if ins.op in _RET_OPS:
                    result = total if result is None \
                        else max(result, total)
            for succ in block.succs:
                if total > best.get(succ, -1):
                    best[succ] = total
        return result

    @staticmethod
    def _topo_blocks(cfg):
        """Topological block order, or ``None`` when the CFG has a
        cycle."""
        indeg = {start: 0 for start in cfg.blocks}
        for block in cfg.blocks.values():
            for succ in block.succs:
                indeg[succ] += 1
        ready = sorted(s for s, d in indeg.items() if d == 0)
        order = []
        while ready:
            start = ready.pop()
            order.append(start)
            for succ in cfg.blocks[start].succs:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(cfg.blocks):
            return None
        return order

    # -- site analysis -----------------------------------------------

    def analyze_spec(self, spec):
        """Verdict for an :class:`~repro.injection.campaigns.InjectionSpec`."""
        return self.analyze_site(spec.function, spec.instr_addr,
                                 spec.byte_offset, spec.bit)

    def analyze_site(self, function, instr_addr, byte_offset, bit):
        """Analyze one flip site; always returns a :class:`SiteVerdict`.

        Unknown functions or addresses get the sound catch-all
        (everything possible, unbounded window).
        """
        info = self._by_name.get(function)
        cfg = self.cfg(function) if info is not None else None
        ins = cfg.instr_at(instr_addr) if cfg is not None else None
        if ins is None:
            return SiteVerdict(
                CORRUPT_VALUE, WILD_TRAPS | {TRAP_NONE}, 0, None,
                {WILD_SUBSYSTEM}, True, escapes_caller=True)
        home = info.subsystem
        code = self.kernel.code[info.start - self.kernel.base:
                                info.end - self.kernel.base]
        mut, decode_verdict = _decode_mutated(code, info.start, ins,
                                              byte_offset, bit)
        if decode_verdict == PRED_INVALID_OPCODE:
            # First fetch of the site raises #UD: latency 0, contained.
            return SiteVerdict(CORRUPT_PC, {TRAP_INVALID_OPCODE}, 0, 0,
                               {home}, False)
        if decode_verdict == PRED_LENGTH_CHANGE \
                or mut.length != ins.length:
            # Stream desync: the following bytes re-decode shifted.
            return SiteVerdict(CORRUPT_PC, WILD_TRAPS | {TRAP_NONE}, 0,
                               None, {home, WILD_SUBSYSTEM}, True,
                               escapes_caller=True)
        if _same_semantics(ins, mut):
            return SiteVerdict(CLEAN, {TRAP_NONE}, None, None, set(),
                               False)
        return self._solve(info, cfg, ins, mut)

    # -- seeding ------------------------------------------------------

    def _seed(self, cfg, ins, mut, solve, state, depth_frame=None):
        """Seed corruption for executing *mut* in place of *ins*.

        Returns the seed lattice class, or ``None`` when the mutation
        is a pure control corruption already fully recorded in *solve*.
        """
        home = cfg.info.subsystem

        def corrupt_store(memop):
            """The value stored through *memop* is wrong."""
            key = None
            if depth_frame is not None:
                key = _slot_key(memop, depth_frame[0], depth_frame[1])
            if key is not None:
                state.slots[key] = CORRUPT_VALUE
            else:
                state.mem = True
        orig_eff = instr_defs_uses(ins)
        mut_eff = instr_defs_uses(mut)

        # Control-transfer mutations first: they corrupt the PC.
        orig_target = branch_target(ins)
        mut_target = branch_target(mut)
        orig_ctl = ins.op in _COND_OPS or ins.op in ("jmp", "call")
        mut_ctl = mut.op in _COND_OPS or mut.op in ("jmp", "call")
        if orig_ctl or mut_ctl:
            if ins.op == "jcc" and mut.op == "jcc" \
                    and orig_target == mut_target:
                # Condition change only (campaign C's bit): wrong but
                # valid path — control divergence, not a wild fetch.
                solve.diverged = True
                solve.silent = True
                solve.add_event(ins.addr, DIVERGED_TRAPS,
                                extra_hi=None)
                return CORRUPT_FLAGS
            if mut_ctl and mut_target is not None \
                    and mut_target in cfg.blocks:
                # Retargeted branch landing on a real block boundary:
                # wrong path, valid instruction stream.
                solve.diverged = True
                solve.silent = True
                solve.add_event(ins.addr, DIVERGED_TRAPS,
                                extra_hi=None)
                return CORRUPT_PC
            # Anything else — branch into the middle of an
            # instruction, out of the function, a call to a wrong
            # target, a transfer gained or lost — is a wild fetch.
            solve.wild = True
            solve.add_event(ins.addr, WILD_TRAPS, extra_hi=None)
            solve.silent = True
            return CORRUPT_PC

        # Memory-operand mutations: the site itself may fault, and a
        # store to a wrong address corrupts memory at large.
        orig_mem = _mem_operand(ins)
        mut_mem = _mem_operand(mut)
        if mut_mem is not None and not _same_mem(orig_mem, mut_mem) \
                and (mut_eff.reads_mem or mut_eff.writes_mem):
            solve.add_event(ins.addr, POINTER_TRAPS)
            if mut_eff.writes_mem:
                # Store to a wrong address: anything may be hit.
                state.mem = True
                solve.wild = True
                solve.add_event(ins.addr, WILD_TRAPS, extra_hi=None)
        if orig_eff.writes_mem and not mut_eff.writes_mem:
            # A lost store: downstream readers see a stale value.
            state.mem = True
        if mut_eff.writes_mem and mut_mem is not None \
                and _same_mem(orig_mem, mut_mem) \
                and (ins.op != mut.op or ins.src != mut.src):
            # Same address, different stored value.
            corrupt_store(mut_mem)
        if ins.op == "push" and mut.op == "push" \
                and ins.dst != mut.dst:
            # Wrong value pushed: the new stack slot is corrupt.
            if depth_frame is not None:
                state.slots[depth_frame[0] + 4] = CORRUPT_VALUE
            else:
                state.mem = True

        if mut.op in ("div", "idiv") and mut.op != ins.op:
            solve.add_event(ins.addr, {TRAP_DIVIDE})
        if mut_eff.side_effects and not orig_eff.side_effects:
            # The mutation became a system/exotic op: anything goes.
            solve.wild = True
            solve.add_event(ins.addr, WILD_TRAPS, extra_hi=None)
        elif mut_eff.may_trap and not orig_eff.may_trap:
            solve.add_event(ins.addr, POINTER_TRAPS | {TRAP_DIVIDE})

        # Data corruption: every register/flag either instruction may
        # write can now hold a wrong value.
        changed = (orig_eff.may_defs | mut_eff.may_defs)
        for reg in changed & _GPRS:
            if reg != "esp":
                state.regs[reg] = CORRUPT_VALUE
        state.flags |= changed & _FLAG_SET
        if "esp" in changed and ins.op != mut.op:
            # The stack pointer itself: every later stack access is
            # misdirected — treat as wild.
            solve.wild = True
            solve.add_event(ins.addr, WILD_TRAPS, extra_hi=None)
        if home is None:
            state.mem = True
        if state.regs or state.mem or state.slots:
            return CORRUPT_VALUE
        return CORRUPT_FLAGS if state.flags else CORRUPT_VALUE

    # -- the fixpoint -------------------------------------------------

    def _solve(self, info, cfg, ins, mut):
        solve = _SiteSolve()
        state = _TaintState()
        depth_map = self._depth_map(info.name)
        site_df = depth_map.get(ins.addr) if depth_map else None
        seed = self._seed(cfg, ins, mut, solve, state, site_df)

        if state.empty and not solve.events:
            return SiteVerdict(CLEAN, {TRAP_NONE}, None, None, set(),
                               False)

        block = cfg.block_at(ins.addr)
        in_states = {}
        work = []
        if not state.empty:
            # Walk the remainder of the site's block, then fixpoint.
            out = self._walk_block(cfg, block, state, solve, depth_map,
                                   from_addr=ins.addr, skip_first=True)
            if out is not None:
                for succ in block.succs:
                    in_states[succ] = out.copy()
                    work.append(succ)

        rounds = 0
        limit = 200 * (len(cfg.blocks) + 1)
        while work and rounds < limit:
            rounds += 1
            start = work.pop()
            current = in_states[start].copy()
            out = self._walk_block(cfg, cfg.blocks[start], current,
                                   solve, depth_map)
            if out is None:
                continue
            for succ in cfg.blocks[start].succs:
                seen = in_states.get(succ)
                if seen is None:
                    in_states[succ] = out.copy()
                    work.append(succ)
                elif seen.join(out):
                    if succ not in work:
                        work.append(succ)

        return self._verdict(info, cfg, ins, seed, solve)

    def _walk_block(self, cfg, block, state, solve, depth_map,
                    from_addr=None, skip_first=False):
        """Push *state* through *block*; returns the out-state or
        ``None`` when every path through the block terminates (ret,
        noreturn call, or the corruption provably dies)."""
        started = from_addr is None
        for ins in block.instrs:
            if not started:
                if ins.addr != from_addr:
                    continue
                started = True
                if skip_first:
                    continue  # the site instruction itself was seeded
            if state.empty:
                solve.silent = True
                return None
            df = depth_map.get(ins.addr) if depth_map else None
            stop = self._transfer(cfg, ins, state, solve, df)
            if stop:
                return None
        return state

    def _transfer(self, cfg, ins, state, solve, depth_frame):
        """Abstract-execute one pristine instruction.  Returns True
        when the path ends here (ret / noreturn call / wild)."""
        op = ins.op
        eff = instr_defs_uses(ins)
        depth, frame = depth_frame if depth_frame else (None, None)

        corrupted_uses = set(eff.uses & _GPRS) & set(state.regs)
        corrupted_flags = eff.uses & state.flags

        # 1. Addressing with a corrupted register: faulting use.
        mem = _mem_operand(ins)
        addr_corrupt = False
        if mem is not None and (eff.reads_mem or eff.writes_mem):
            bases = set()
            if mem.base is not None:
                bases.add(REG_NAMES[mem.base])
            if mem.index is not None:
                bases.add(REG_NAMES[mem.index])
            tainted = bases & set(state.regs)
            if tainted:
                addr_corrupt = True
                for reg in tainted:
                    state.regs[reg] = CORRUPT_POINTER
                solve.add_event(ins.addr, POINTER_TRAPS)
                if eff.writes_mem:
                    # A *successful* wild store can hit anything —
                    # code bytes, return addresses, unrelated
                    # structures — so every later trap class opens up.
                    state.mem = True
                    solve.wild = True
                    solve.add_event(ins.addr, WILD_TRAPS,
                                    extra_hi=None)
        if op in ("movs", "cmps", "stos", "lods", "scas", "ins",
                  "outs"):
            pointers = {"esi", "edi"} & set(state.regs)
            if pointers:
                for reg in pointers:
                    state.regs[reg] = CORRUPT_POINTER
                solve.add_event(ins.addr, POINTER_TRAPS)
                if op in ("movs", "stos", "ins"):
                    state.mem = True
                    solve.wild = True
                    solve.add_event(ins.addr, WILD_TRAPS,
                                    extra_hi=None)

        # 2. Divides with corrupted inputs raise #DE.
        if op in ("div", "idiv") and (corrupted_uses
                                      or addr_corrupt or state.mem):
            solve.add_event(ins.addr, {TRAP_DIVIDE})

        # 3. Control consumed corrupted state.
        if op == "jcc" and corrupted_flags:
            state.diverged = True
            solve.diverged = True
            solve.add_event(ins.addr, DIVERGED_TRAPS, extra_hi=None)
        if op in _COND_OPS and op != "jcc" and (corrupted_flags
                                                or "ecx" in
                                                corrupted_uses):
            state.diverged = True
            solve.diverged = True
            solve.add_event(ins.addr, DIVERGED_TRAPS, extra_hi=None)
        if op in ("jmp_ind", "jmpf_ind", "call_ind", "callf_ind"):
            if corrupted_uses or addr_corrupt:
                solve.wild = True
                solve.add_event(ins.addr, WILD_TRAPS, extra_hi=None)
                return True

        # 4. Stack slots (when the depth discipline is trackable).
        value_taint = self._value_taint(state, ins, depth, frame,
                                        addr_corrupt)
        if depth is not None:
            if op == "push":
                if value_taint:
                    state.slots[depth + 4] = value_taint
                else:
                    state.slots.pop(depth + 4, None)
            elif op == "pop":
                taken = state.slots.pop(depth, None)
                if ins.dst is not None and ins.dst[0] == "r":
                    reg = REG_NAMES[ins.dst[1]]
                    if taken:
                        state.regs[reg] = taken
                    else:
                        state.regs.pop(reg, None)
                return False
            elif eff.writes_mem and mem is not None \
                    and not addr_corrupt:
                key = _slot_key(mem, depth, frame)
                if key is not None:
                    if value_taint:
                        state.slots[key] = value_taint
                    else:
                        state.slots.pop(key, None)
                elif value_taint and _is_global_mem(mem):
                    state.mem = True
                elif value_taint:
                    state.mem = True
        elif eff.writes_mem and value_taint:
            state.mem = True

        # 5. Returns: corrupted return address is a wild transfer;
        # corruption surviving in eax / memory escapes to the caller.
        if op in _RET_OPS:
            if depth is not None and state.slots.get(0):
                solve.wild = True
                solve.add_event(ins.addr, WILD_TRAPS, extra_hi=None)
            elif "eax" in state.regs or state.mem:
                solve.escapes_caller = True
                solve.silent = True
            else:
                solve.silent = True
            return True

        # 6. Calls: compose with the callee summary.
        if op == "call":
            noreturn = self._noreturn_call_target(ins)
            if noreturn is not None:
                solve.silent = True  # panic path: no *trap* class
                return True
            return self._transfer_call(cfg, ins, state, solve, depth)
        if op in ("call_ind", "callf_ind"):
            # Unknown callee runs with the current corruption.
            if not state.empty:
                solve.call_reaches.add(WILD_SUBSYSTEM)
                solve.add_event(ins.addr, POINTER_TRAPS | {TRAP_DIVIDE},
                                extra_lo=1, extra_hi=None)
                state.regs["eax"] = CORRUPT_VALUE
            else:
                state.regs.pop("eax", None)
            return False

        # 7. Plain data flow: kill must-defs fed by clean inputs,
        # corrupt everything written from corrupted inputs.
        source_corrupt = bool(corrupted_uses or corrupted_flags
                              or value_taint
                              or (eff.reads_mem and state.mem
                                  and _slot_key(mem, depth, frame)
                                  is None))
        if source_corrupt:
            kind = CORRUPT_VALUE
            for reg in eff.may_defs & _GPRS:
                if reg != "esp":
                    state.regs[reg] = kind
            state.flags |= eff.may_defs & _FLAG_SET
        else:
            for reg in eff.must_defs & _GPRS:
                state.regs.pop(reg, None)
            state.flags -= eff.must_defs
        return False

    def _transfer_call(self, cfg, ins, state, solve, depth):
        """Direct near call: decide whether corruption enters the
        callee, account for in-callee faults, and model the return."""
        callee = self._call_target(ins)
        if callee is None:
            # Unresolved direct target (absent from the shipped
            # image): treat like an indirect call.
            entered = not state.empty
            if entered:
                solve.call_reaches.add(WILD_SUBSYSTEM)
                solve.add_event(ins.addr, POINTER_TRAPS | {TRAP_DIVIDE},
                                extra_lo=1, extra_hi=None)
                state.regs["eax"] = CORRUPT_VALUE
            else:
                state.regs.pop("eax", None)
            return False
        sub = self.summary(callee.name)
        if depth is not None:
            args_corrupt = state.mem or any(
                key > 0 for key in state.slots)
        else:
            args_corrupt = not state.empty
        if args_corrupt:
            solve.call_reaches |= sub.reach_subsystems
            if sub.min_fault_distance is not None:
                solve.add_event(
                    ins.addr, POINTER_TRAPS | {TRAP_DIVIDE},
                    extra_lo=1 + sub.min_fault_distance,
                    extra_hi=None)
            state.regs["eax"] = CORRUPT_VALUE
        else:
            # Fresh return value computed from clean inputs.
            state.regs.pop("eax", None)
        return False

    def _value_taint(self, state, ins, depth, frame, addr_corrupt):
        """Taint kind of the value an instruction stores/moves."""
        if addr_corrupt:
            return CORRUPT_VALUE  # read through a wild pointer
        src = ins.src if ins.src is not None else \
            (ins.dst if ins.op == "push" else None)
        if src is None:
            return None
        kind = src[0]
        if kind == "r":
            return state.regs.get(REG_NAMES[src[1]])
        if kind == "r8":
            from repro.staticanalysis.dataflow import _R8_PARENT
            return state.regs.get(REG_NAMES[_R8_PARENT[src[1]]])
        if kind == "m":
            key = _slot_key(src[1], depth, frame)
            if key is not None:
                return state.slots.get(key)
            return CORRUPT_VALUE if state.mem else None
        return None

    # -- verdict assembly ---------------------------------------------

    def _verdict(self, info, cfg, ins, seed, solve):
        home = info.subsystem
        subsystems = {home}
        subsystems |= solve.call_reaches
        if solve.wild:
            subsystems.add(WILD_SUBSYSTEM)
        escapes_caller = solve.escapes_caller
        if escapes_caller:
            subsystems |= self.callers_of(info.name)
        if solve.diverged:
            subsystems |= self.summary(info.name).reach_subsystems

        traps = set()
        for event_traps, _, _ in solve.events.values():
            traps |= event_traps
        if solve.silent or not solve.events:
            traps.add(TRAP_NONE)
        if escapes_caller:
            traps |= POINTER_TRAPS

        lo, hi = self._latency_bounds(cfg, ins, solve)
        if escapes_caller:
            hi = None
        escapes = bool(subsystems - {home, None}) or escapes_caller
        return SiteVerdict(seed, traps, lo, hi, subsystems, escapes,
                           escapes_caller=escapes_caller)

    def _latency_bounds(self, cfg, site_ins, solve):
        """[lo, hi] instruction distances from the site to its events."""
        if not solve.events:
            return None, None
        callee_min = {}
        callee_max = {}
        for addr, target in cfg.calls:
            callee = None if target is None \
                else self._find_function(target)
            if callee is None:
                callee_min[addr] = 1
                callee_max[addr] = None
                continue
            sub = self.summary(callee.name)
            callee_min[addr] = 1 if sub.noreturn else 1 + sub.min_len
            callee_max[addr] = None if (sub.noreturn
                                        or sub.max_len is None) \
                else 1 + sub.max_len

        # Shortest distances (Dijkstra over the instruction graph).
        succs = self._instr_successors(cfg, callee_min)
        dist = {site_ins.addr: 0}
        heap = [(0, site_ins.addr)]
        while heap:
            d, addr = heapq.heappop(heap)
            if d > dist.get(addr, float("inf")):
                continue
            for succ, weight in succs.get(addr, ()):
                nd = d + (weight if weight is not None else 1)
                if nd < dist.get(succ, float("inf")):
                    dist[succ] = nd
                    heapq.heappush(heap, (nd, succ))

        lo = None
        for addr, (_, extra_lo, _) in solve.events.items():
            if addr not in dist:
                continue
            candidate = dist[addr] + extra_lo
            lo = candidate if lo is None else min(lo, candidate)
        if lo is None:
            lo = 0

        hi = self._upper_bound(cfg, site_ins, solve, callee_max)
        if hi is not None and hi < lo:
            hi = lo
        return lo, hi

    def _upper_bound(self, cfg, site_ins, solve, callee_max):
        """Longest site->event distance, ``None`` when unbounded."""
        if solve.wild or solve.diverged or solve.escapes_caller:
            return None
        if any(extra_hi is None
               for _, _, extra_hi in solve.events.values()):
            return None
        if any(weight is None for weight in callee_max.values()):
            return None
        order = self._topo_blocks(cfg)
        if order is None:
            return None
        site_block = cfg.block_at(site_ins.addr).start
        best = {}
        result = None
        started = False
        for start in order:
            if start == site_block:
                started = True
                total = 0
                skip = True
                for ins in cfg.blocks[start].instrs:
                    if skip:
                        if ins.addr == site_ins.addr:
                            skip = False
                        else:
                            continue
                    event = solve.events.get(ins.addr)
                    if event is not None:
                        candidate = total + (event[2] or 0)
                        result = candidate if result is None \
                            else max(result, candidate)
                    if ins.addr != site_ins.addr:
                        total += callee_max.get(ins.addr, 1)
                    else:
                        total += 1
                for succ in cfg.blocks[start].succs:
                    if total > best.get(succ, -1):
                        best[succ] = total
                continue
            if not started or start not in best:
                continue
            total = best[start]
            for ins in cfg.blocks[start].instrs:
                event = solve.events.get(ins.addr)
                if event is not None:
                    candidate = total + (event[2] or 0)
                    result = candidate if result is None \
                        else max(result, candidate)
                total += callee_max.get(ins.addr, 1)
            for succ in cfg.blocks[start].succs:
                if total > best.get(succ, -1):
                    best[succ] = total
        return result

    # -- image-level products -----------------------------------------

    def propagation_matrix(self, specs):
        """Static Figure 8: {src_subsystem: {dst_subsystem: sites}}.

        Counts, per home subsystem, the flip sites whose corruption
        can reach each destination subsystem (crash-predicting sites
        only — mirrors the dynamic matrix built from dumped crashes).
        """
        matrix = {}
        for spec in specs:
            verdict = self.analyze_spec(spec)
            if not verdict.predicts_crash:
                continue
            row = matrix.setdefault(spec.subsystem, {})
            for dst in verdict.subsystems:
                if dst is None:
                    continue
                row[dst] = row.get(dst, 0) + 1
        return matrix

    def leak_channels(self, name):
        """Cross-subsystem escape channels of one function.

        The ``propagation-leak`` lint: a channel is a call site into
        another subsystem (corrupted arguments ride along), a return
        to callers in other subsystems (corrupted ``eax`` rides
        along), or an indirect call (destination unknowable).
        Returns ``[(addr, description)]``.
        """
        info = self._by_name.get(name)
        if info is None:
            return []
        cfg = self.cfg(name)
        home = info.subsystem
        channels = []
        for addr, target in cfg.calls:
            if target is None:
                channels.append(
                    (addr, "indirect call: corrupted arguments may "
                           "reach any subsystem"))
                continue
            callee = self._find_function(target)
            if callee is None:
                continue
            reached = self.summary(callee.name).reach_subsystems \
                - {home, None}
            if reached:
                channels.append(
                    (addr, "call %s leaks corrupted defs into %s"
                     % (callee.name,
                        "+".join(sorted(str(s) for s in reached)))))
        foreign_callers = {s for s in self.callers_of(name)
                           if s not in (home, None)}
        if foreign_callers:
            channels.append(
                (info.start,
                 "returns into %s callers (corrupted eax escapes)"
                 % "+".join(sorted(foreign_callers))))
        return channels


def _mem_operand(ins):
    """The memory operand of *ins*, or ``None``."""
    for operand in (ins.dst, ins.src):
        if operand is not None and operand[0] == "m":
            return operand[1]
    return None


def _same_mem(a, b):
    if a is None or b is None:
        return a is b
    return (a.base == b.base and a.index == b.index
            and a.scale == b.scale and a.disp == b.disp)


def _is_global_mem(mem):
    return mem.base is None and mem.index is None


def _slot_key(mem, depth, frame):
    """Stack-slot key for a frame-relative memory operand, else None."""
    if mem is None or depth is None or mem.index is not None:
        return None
    disp = mem.disp or 0
    if disp >= (1 << 31):
        disp -= 1 << 32
    if mem.base == 4:                       # esp-relative
        return depth - disp
    if mem.base == 5 and frame is not None:  # ebp-relative
        return frame - disp
    return None
