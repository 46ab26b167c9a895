"""Static kernel differ + FastFlip-style delta-campaign planner.

The campaigns in this repo are deterministic functions of (kernel
image, campaign key, seed, stride) — so when the kernel is rebuilt
with a small source change, most injection outcomes are *provably*
unchanged and can be carried forward from a prior campaign journal
instead of re-executed.  FastFlip (arXiv 2403.13989) does this with
per-section injection summaries; here the unit of reuse is the
function and the carrier is the campaign journal.

Fingerprints
------------

Every function gets two fingerprints:

* **own fingerprint** — sha256 over the *normalized* instruction
  stream.  Instructions without a relative branch displacement hash
  as ``(op, raw-bytes)`` verbatim; direct branches/calls hash as
  ``(op, cc, length, target-token)`` where the token is
  ``local:<offset>`` for intra-function targets,
  ``<callee>+<offset>`` when the target falls inside another known
  function, and ``ext:<addr>`` when it resolves to no function.
  Absolute addresses never enter the hash for control transfers, so a
  **pure move** (same bytes, different link address) keeps its own
  fingerprint; any single-byte *code* edit changes op, cc, length,
  raw bytes, or the resolved target token and therefore the
  fingerprint.
* **composed fingerprint** — sha256 over the own fingerprint plus the
  sorted own fingerprints of every function reachable through the
  call graph (``build_callgraph`` edges plus resolved *external
  branch targets*, so the trap stubs' tail ``jmp common_trap`` counts
  as an edge).  A changed callee anywhere in the forward closure
  changes the composed fingerprint of every transitive caller — the
  impact closure the planner uses.

Functions containing an indirect call/jump or an unresolved external
target are **fingerprint-opaque**: their outgoing edges cannot be
enumerated statically, so they are conservatively impacted whenever
*anything* changes (``kerncheck --rule fingerprint-opaque`` counts
them).  The data section is fingerprinted as one blob: any data
change (a flipped initializer, a moved table) forces a global re-run
because function fingerprints cannot see it.

Carry-forward rules
-------------------

The machine is a deterministic simulator, so a carried record is
bit-identical to a re-run exactly when the old run **never executed a
changed function**: corrupted data flowing through unchanged code is
harmless, because unchanged code on identical inputs behaves
identically.  The planner over-approximates each old run's executed
set statically and carries a record only when that set provably
avoids every changed (or moved) function.  The checks, in order:

1. no global invalidation (data section, added/removed functions,
   image base);
2. the site's function is byte-identical, unmoved, and outside the
   impact closure;
3. an old record exists at the same coordinates ``(function, addr,
   byte_offset, bit)`` with the same workload assignment, the same
   activation decision, and no ``trace_*`` enrichment (an untraced
   re-run could not reproduce those fields);
4. ``HARNESS_ERROR`` outcomes always re-run (they describe the
   harness, not the kernel);
5. a non-activated record is synthesized from the spec alone, so the
   checks above suffice — it carries;
6. an activated record's executed set is bounded by the **execution
   cone**: every function the boot + golden run of its workload
   executes (measured, instruction-granular), closed over the static
   call graph — the post-flip run can wrong-branch anywhere inside
   code golden executes, but direct calls can only reach the static
   closure.  The cone is unresolvable (carry nothing) if it meets an
   opaque function, except that the syscall dispatcher's indirect
   table call is *resolved*: its targets are the ``sys_call_table``
   entries for syscall numbers some user binary on disk can actually
   issue (user code is unchanged between kernels and uses direct
   calls only, so even a corrupted user process can only re-enter
   the kernel through its own ``int 0x80`` stubs).  On top of the
   cone: the trap-delivery roots must be unimpacted (a faulting run
   executes them even when golden did not), the recorded crash locus
   (crash_eip + nested dumps, resolved on the *base* kernel) must be
   unimpacted, and the site's propagation verdict must not be
   ``(wild)`` — a corrupted program counter escapes every static
   bound.

HANG / CRASH_UNKNOWN outcomes *do* carry when the rules above hold:
the watchdog budget derives from golden cycles of an unchanged
golden run, so a wedge wedges identically.  The one documented
approximation is user-space feedback: a kernel fault that smashes
user memory badly enough to repoint user control flow is bounded by
the user binaries' own syscall stubs, not modeled instruction-by-
instruction.  The ``delta_validation`` exhibit and
``benchmarks/bench_delta.py`` both gate the end result — delta ==
from-scratch **bit-identically** — on every CI run.

Carried records enter the new journal through
:meth:`~repro.injection.engine.CampaignJournal.record_carried` with a
``carried`` provenance block::

    {"source_journal": <old plan fingerprint>,
     "base_kernel":    <kernel fingerprint the journal ran against>,
     "new_kernel":     <kernel fingerprint being planned for>}

and the engine then resumes over the pre-seeded journal, executing
only the live remainder — which means a delta plan shards, merges,
resumes and journal-audits exactly like any other plan.  A carried
record takes its ``pred_*`` fields from the new plan's spec: they depend
only on the spec and the kernel, so delta composes with
``static_verdicts`` enrichment whichever way the source was planned.
``InjectionHarness.run_campaign(delta_from=...)`` is the entry point.
"""

import hashlib
import json
import os
import struct
from collections import Counter

from repro.injection.campaigns import PRED_FIELDS
from repro.injection.engine import (
    CampaignJournal,
    plan_fingerprint,
    prefer_result,
    read_journal_lines,
    result_records,
)
from repro.injection.outcomes import (
    HARNESS_ERROR,
    InjectionResult,
)
from repro.isa.decoder import decode_all
from repro.staticanalysis.cfg import build_cfg_from_instrs
from repro.staticanalysis.propagation import (
    PropagationAnalyzer,
    WILD_SUBSYSTEM,
)

#: The hand-written entry points of the trap-delivery path.  An
#: activated injection can fault through these even when the golden
#: run never does, so activated records are only carried when the
#: whole trap path is unimpacted.
TRAP_ROOTS = (
    "divide_error", "debug_trap", "nmi_trap", "int3_trap",
    "overflow_trap", "bounds_trap", "invalid_op_trap",
    "device_na_trap", "double_fault_trap", "coproc_trap",
    "invalid_tss_trap", "segment_np_trap", "stack_fault_trap",
    "gpf_trap", "page_fault_trap", "common_trap",
)

#: Maximum cycles granted to the instrumented boot the planner uses
#: to learn which functions boot executes (mirrors the harness).
_BOOT_BUDGET = 10_000_000

#: The recovery-flag rebuild exercised by the ``delta_validation``
#: exhibit: invert the ``oops_recoverable`` gate so the fail-stop
#: kernel starts recovering oopses.  Verified size-preserving — the
#: rebuilt image differs from the base in exactly this one function.
RECOVERY_GATE_EDIT = (
    ("arch/i386/traps.c",
     "if (!recovery_enabled)\n        return 0;",
     "if (recovery_enabled)\n        return 0;"),
)

_INDIRECT = "<indirect>"


# ---------------------------------------------------------------------------
# fingerprinting


def _normalize_instr(kernel, info, ins):
    """One instruction's contribution to the own fingerprint."""
    if ins.rel is None:
        return (ins.op, ins.raw.hex())
    target = ins.addr + ins.length + ins.rel
    if info.start <= target < info.end:
        token = "local:%d" % (target - info.start)
    else:
        callee = kernel.find_function(target)
        if callee is None:
            token = "ext:%#x" % target
        else:
            token = "%s+%d" % (callee.name, target - callee.start)
    return (ins.op, ins.cc, ins.length, token)


def fingerprint_function(kernel, info, instrs=None):
    """Relocation-normalized own fingerprint of one function."""
    if instrs is None:
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        instrs = decode_all(code, base=info.start)
    records = [_normalize_instr(kernel, info, ins) for ins in instrs]
    blob = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def data_fingerprint(kernel):
    """Fingerprint of everything past ``__data_start`` (one blob)."""
    start = kernel.symbols.get("__data_start")
    if start is None:
        blob = bytes(kernel.code)
    else:
        blob = bytes(kernel.code[start - kernel.base:])
    return hashlib.sha256(blob).hexdigest()[:16]


class KernelFingerprints:
    """Per-function own/composed fingerprints + call edges of an image.

    ``edges`` maps each function to the names it can transfer control
    to (calls **and** resolved external branch targets); unresolvable
    transfers appear as ``<indirect>`` / ``ext:<addr>`` tokens and
    mark the function opaque (``opacity[name]`` holds the reason).
    """

    __slots__ = ("kernel", "own", "composed", "edges", "opacity",
                 "starts", "data")

    def __init__(self, kernel):
        self.kernel = kernel
        self.own = {}
        self.edges = {}
        self.opacity = {}
        self.starts = {}
        self.data = data_fingerprint(kernel)
        for info in kernel.functions:
            code = kernel.code[info.start - kernel.base:
                               info.end - kernel.base]
            instrs = decode_all(code, base=info.start)
            cfg = build_cfg_from_instrs(info, instrs)
            self.own[info.name] = fingerprint_function(
                kernel, info, instrs=instrs)
            self.starts[info.name] = info.start
            self.edges[info.name] = self._edges(kernel, info, cfg)
        self.composed = self._compose()

    def _edges(self, kernel, info, cfg):
        edges = set()
        reasons = []
        for _, target in cfg.calls:
            if target is None:
                edges.add(_INDIRECT)
                reasons.append("indirect call")
                continue
            callee = kernel.find_function(target)
            if callee is None:
                edges.add("ext:%#x" % target)
                reasons.append("unresolved call target %#x" % target)
            else:
                edges.add(callee.name)
        for target in cfg.external_targets:
            callee = kernel.find_function(target)
            if callee is None:
                edges.add("ext:%#x" % target)
                reasons.append("unresolved branch target %#x" % target)
            else:
                edges.add(callee.name)
        if cfg.has_indirect_jump:
            edges.add(_INDIRECT)
            reasons.append("indirect jump")
        if cfg.has_bad_instr:
            reasons.append("undecodable bytes")
        if reasons:
            self.opacity[info.name] = sorted(set(reasons))
        return edges

    def _closure(self, name):
        """Forward transitive closure of *name* over ``edges``."""
        seen = set()
        work = [name]
        while work:
            for callee in self.edges.get(work.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    if callee in self.edges:
                        work.append(callee)
        return seen

    def _compose(self):
        composed = {}
        for name in self.own:
            parts = [self.own[name]]
            for callee in sorted(self._closure(name)):
                # Pseudo-targets (<indirect>, ext:...) hash as
                # themselves: gaining or losing one changes the
                # composition even though it has no own fingerprint.
                parts.append("%s=%s" % (callee,
                                        self.own.get(callee, "?")))
            blob = "|".join(parts)
            composed[name] = hashlib.sha256(
                blob.encode()).hexdigest()[:16]
        return composed


def fingerprint_kernel(kernel):
    """Fingerprint every function of *kernel*; cached per image."""
    return KernelFingerprints(kernel)


def opaque_functions(kernel):
    """``{name: [reasons]}`` of fingerprint-opaque functions.

    A function is opaque when its outgoing control transfers cannot
    be fully enumerated statically (indirect call/jump, a branch
    target outside every known function, undecodable bytes); the
    differ treats every opaque function as impacted whenever any
    function changes.  Shared with the ``fingerprint-opaque`` lint
    rule.
    """
    return dict(fingerprint_kernel(kernel).opacity)


# ---------------------------------------------------------------------------
# syscall-dispatch resolution


def user_syscall_numbers(binary):
    """Syscall numbers *binary* can issue, or ``None`` if unprovable.

    Walks the direct-call closure from the entry point (user code
    carries no indirect calls) and, along each reached function,
    symbolically tracks the immediate that the MinC syscall stubs
    push and later ``pop eax`` right before ``int 0x80``.  Returns
    the exact set of issuable numbers; any indirect call, undecodable
    stream, or ``int`` with an untracked ``eax`` yields ``None`` —
    the caller must then assume every number.
    """
    try:
        ins_list = decode_all(binary.image,
                              base=binary.entry & ~0xFFF)
    except Exception:
        return None
    by_addr = {ins.addr: ins for ins in ins_list}
    addrs = sorted(by_addr)
    index = {addr: n for n, addr in enumerate(addrs)}
    numbers = set()
    seen = set()
    work = [binary.entry]
    while work:
        start = work.pop()
        if start in seen:
            continue
        seen.add(start)
        if start not in index:
            return None                   # call into undecoded bytes
        eax = None
        stack = []
        for n in range(index[start], len(addrs)):
            ins = by_addr[addrs[n]]
            op = ins.op
            if op == "call":
                if ins.rel is None:
                    return None
                work.append(ins.addr + ins.length + ins.rel)
                eax = None
                stack = []
            elif op == "call_ind":
                return None
            elif op == "int":
                if eax is None:
                    return None
                numbers.add(eax)
            elif op == "mov" and ins.dst == ("r", 0):
                eax = (ins.src[1]
                       if ins.src and ins.src[0] == "i" else None)
            elif op == "push":
                stack.append(eax if ins.dst == ("r", 0) else None)
            elif op == "pop":
                value = stack.pop() if stack else None
                if ins.dst == ("r", 0):
                    eax = value
            elif op == "ret":
                break
            elif ins.dst == ("r", 0):
                eax = None
    return numbers


def issuable_syscalls(binaries):
    """Union of syscall numbers any of *binaries* can issue.

    Every shipped binary lands on the boot disk, and a corrupted
    ``exec`` path could start any of them, so the union is the sound
    bound on what user space can dispatch.  ``None`` when any binary
    defeats the scan (assume everything).
    """
    union = set()
    for binary in binaries.values():
        numbers = user_syscall_numbers(binary)
        if numbers is None:
            return None
        union |= numbers
    return union


def resolve_syscall_dispatch(kernel, prints, numbers=None):
    """Resolve indirect syscall-table dispatch: ``{fn: handlers}``.

    A function qualifies as the dispatcher when its *only* opacity is
    a single indirect call and it bounds-checks ``eax`` against an
    immediate N for which all N words at ``sys_call_table`` are
    function entry points.  Its resolved targets are those handlers —
    restricted to *numbers* when given (the user-issuable set).
    Returns ``{}`` when nothing resolves; cone computation then treats
    the dispatcher as opaque and carries nothing through it.
    """
    table = kernel.symbols.get("sys_call_table")
    if table is None:
        return {}
    resolved = {}
    for name, reasons in prints.opacity.items():
        if reasons != ["indirect call"]:
            continue
        info = next((f for f in kernel.functions if f.name == name),
                    None)
        if info is None:
            continue
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        instrs = decode_all(code, base=info.start)
        if sum(1 for ins in instrs if ins.op == "call_ind") != 1:
            continue
        bounds = [ins.src[1] for ins in instrs
                  if ins.op == "cmp" and ins.dst == ("r", 0)
                  and ins.src and ins.src[0] == "i"]
        for count in bounds:
            if not 0 < count <= 512:
                continue
            offset = table - kernel.base
            if offset + 4 * count > len(kernel.code):
                continue
            words = struct.unpack_from("<%dI" % count, kernel.code,
                                       offset)
            handlers = {}
            for number, word in enumerate(words):
                target = kernel.find_function(word)
                if target is None or target.start != word:
                    handlers = None
                    break
                handlers[number] = target.name
            if handlers is None:
                continue
            wanted = (set(handlers) if numbers is None
                      else set(numbers) & set(handlers))
            resolved[name] = frozenset(handlers[n] for n in wanted)
            break
    return resolved


def _execution_cone(prints, executed, dispatch):
    """Close *executed* function names over the call graph.

    *dispatch* substitutes resolved targets for a dispatcher's
    indirect call.  Returns ``None`` — cone unresolvable — when the
    closure meets any other opaque edge (``<indirect>`` /
    ``ext:<addr>``), or when *executed* itself is ``None``.
    """
    if executed is None:
        return None
    cone = set()
    work = [name for name in executed if name in prints.edges]
    cone.update(work)
    while work:
        name = work.pop()
        edges = prints.edges.get(name, ())
        resolved = dispatch.get(name)
        for target in edges:
            if target == _INDIRECT or target.startswith("ext:"):
                if resolved is None:
                    return None
                continue
            if target not in cone:
                cone.add(target)
                if target in prints.edges:
                    work.append(target)
        if resolved:
            for target in resolved:
                if target not in cone:
                    cone.add(target)
                    if target in prints.edges:
                        work.append(target)
    return cone


# ---------------------------------------------------------------------------
# diffing


class KernelDiff:
    """Function-level difference between two kernel images.

    Name sets (all on the *new* image unless noted): ``changed`` (own
    fingerprint differs), ``moved`` (same bytes, different address),
    ``unchanged``, ``added``, ``removed`` (base-only names), and
    ``impacted`` — the carry-blocking closure: changed functions,
    every transitive caller of one (composed fingerprint differs),
    and — when anything at all changed — every fingerprint-opaque
    function.  ``global_reasons`` is non-empty when no record can be
    carried at all (data-section change, added/removed functions,
    relinked image base).
    """

    __slots__ = ("base", "new", "changed", "moved", "unchanged",
                 "added", "removed", "impacted", "opaque",
                 "data_changed", "global_reasons", "trap_impacted")

    def __init__(self, base, new):
        self.base = base
        self.new = new
        base_names = set(base.own)
        new_names = set(new.own)
        self.added = new_names - base_names
        self.removed = base_names - new_names
        common = base_names & new_names
        self.changed = {n for n in common
                        if base.own[n] != new.own[n]}
        self.moved = {n for n in common - self.changed
                      if base.starts[n] != new.starts[n]}
        self.unchanged = common - self.changed - self.moved
        self.opaque = set(new.opacity)
        self.data_changed = base.data != new.data
        self.global_reasons = []
        if self.data_changed:
            self.global_reasons.append("data-section-changed")
        if self.added:
            self.global_reasons.append(
                "functions-added: %s" % ", ".join(sorted(self.added)))
        if self.removed:
            self.global_reasons.append(
                "functions-removed: %s"
                % ", ".join(sorted(self.removed)))
        if base.kernel.base != new.kernel.base:
            self.global_reasons.append("image-base-changed")
        impacted = set(self.added)
        for name in common:
            if base.composed[name] != new.composed[name]:
                impacted.add(name)
        if self.any_change:
            impacted |= self.opaque
        self.impacted = impacted
        self.trap_impacted = sorted(
            n for n in TRAP_ROOTS
            if n in self.impacted or n in self.removed)

    @property
    def any_change(self):
        return bool(self.changed or self.added or self.removed
                    or self.data_changed or self.moved)

    def summary(self):
        return {
            "changed": sorted(self.changed),
            "moved": sorted(self.moved),
            "added": sorted(self.added),
            "removed": sorted(self.removed),
            "unchanged": len(self.unchanged),
            "impacted": sorted(self.impacted),
            "opaque": len(self.opaque),
            "data_changed": self.data_changed,
            "trap_impacted": self.trap_impacted,
            "global_reasons": list(self.global_reasons),
        }


def diff_kernels(base, new):
    """Diff two :class:`KernelImage` (or pre-computed fingerprint)
    objects into a :class:`KernelDiff`."""
    if not isinstance(base, KernelFingerprints):
        base = fingerprint_kernel(base)
    if not isinstance(new, KernelFingerprints):
        new = fingerprint_kernel(new)
    return KernelDiff(base, new)


# ---------------------------------------------------------------------------
# journal access


def _journal_header(records, path):
    for record in records:
        if record.get("type") in ("header", "shard_header"):
            return record
    raise ValueError("%s is not a campaign journal (no header)" % path)


def load_journal_results(path):
    """``(header, {coords: InjectionResult})`` from a campaign journal.

    Coordinates are ``(function, addr, byte_offset, bit,
    fault_model)`` — the same identity the engine journals under —
    so records match across plans whose indices differ.  Duplicate
    records (replays, shard merges) collapse through
    :func:`~repro.injection.engine.prefer_result`.
    """
    records, _ = read_journal_lines(path)
    header = _journal_header(records, path)
    by_coords = {}
    for record in result_records(records):
        payload = record.get("result") or {}
        result = InjectionResult.from_dict(payload)
        coords = (result.function, result.addr, result.byte_offset,
                  result.bit, result.fault_model)
        if coords in by_coords:
            by_coords[coords] = prefer_result(by_coords[coords], result)
        else:
            by_coords[coords] = result
    return header, by_coords


def write_results_journal(results, path):
    """Materialize a :class:`CampaignResults` as a campaign journal.

    Lets in-memory (or JSON-cached) campaign results act as the
    delta source when the original run kept no journal.
    """
    meta = results.meta
    journal = CampaignJournal(path)
    journal.start(meta["fingerprint"], meta["campaign"], meta["seed"],
                  len(results.results), fresh=True)
    try:
        for index, result in enumerate(results.results):
            journal.record(index, result)
    finally:
        journal.close()
    return path


# ---------------------------------------------------------------------------
# planning


def _enriched(result):
    """True when the record carries trace_* enrichment (a fresh
    untraced run could not reproduce it bit-identically)."""
    return (result.trace_diverged is not None
            or result.trace_complete is not None)


def _carry(result, spec):
    """*result* as a run of *spec* records it: its ``pred_*`` fields
    are the spec's."""
    fields = result.to_dict()
    fields.update((f, getattr(spec, f)) for f in PRED_FIELDS)
    return InjectionResult.from_dict(fields)


class DeltaPlan:
    """A campaign plan split into carried and live sites."""

    __slots__ = ("campaign", "seed", "byte_stride", "functions",
                 "specs", "fingerprint", "diff", "carried",
                 "live_indices", "reasons", "provenance")

    def __init__(self, campaign, seed, byte_stride, functions, specs,
                 fingerprint, diff, carried, live_indices, reasons,
                 provenance):
        self.campaign = campaign
        self.seed = seed
        self.byte_stride = byte_stride
        self.functions = functions
        self.specs = specs
        self.fingerprint = fingerprint
        self.diff = diff
        self.carried = carried
        self.live_indices = live_indices
        self.reasons = reasons
        self.provenance = provenance

    @property
    def rerun_fraction(self):
        if not self.specs:
            return 0.0
        return len(self.live_indices) / len(self.specs)

    def summary(self):
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "byte_stride": self.byte_stride,
            "n_specs": len(self.specs),
            "carried": len(self.carried),
            "live": len(self.live_indices),
            "rerun_fraction": round(self.rerun_fraction, 4),
            "reasons": dict(self.reasons),
            "diff": self.diff.summary(),
            "provenance": dict(self.provenance),
        }

    def seed_journal(self, journal):
        """Record every carried result into an already-started
        journal (main journals and shard journals alike)."""
        for index in sorted(self.carried):
            journal.record_carried(index, self.carried[index],
                                   self.provenance)


def _kernel_fp(kernel):
    from repro.injection.fabric import kernel_fingerprint
    return kernel_fingerprint(kernel)


def plan_delta(harness, base_kernel, source_journal, campaign_key,
               seed=2003, byte_stride=1, functions=None,
               max_per_function=None, max_specs=None,
               static_verdicts=False):
    """Plan campaign *campaign_key* on ``harness.kernel``, carrying
    forward every record of *source_journal* (run against
    *base_kernel*) that the differ proves equivalent.

    Returns a :class:`DeltaPlan`.  The harness must be untraced: trace
    enrichment embeds absolute addresses and timings the differ does
    not model.  *static_verdicts* enriches the plan as
    :meth:`~repro.injection.runner.InjectionHarness.plan_specs` does,
    and the carried records with it.
    """
    if getattr(harness, "trace", False):
        raise ValueError("delta planning requires an untraced harness")
    header, old = load_journal_results(source_journal)
    base_prints = fingerprint_kernel(base_kernel)
    new_prints = fingerprint_kernel(harness.kernel)
    diff = KernelDiff(base_prints, new_prints)
    functions, specs = harness.plan_specs(
        campaign_key, functions=functions, seed=seed,
        byte_stride=byte_stride, max_per_function=max_per_function,
        max_specs=max_specs, static_verdicts=static_verdicts)
    fingerprint = plan_fingerprint(campaign_key, specs, seed,
                                   byte_stride)
    provenance = {
        "source_journal": header.get("fingerprint"),
        "base_kernel": _kernel_fp(base_kernel),
        "new_kernel": _kernel_fp(harness.kernel),
    }

    touched = diff.changed | diff.moved
    blocked = diff.impacted | diff.moved
    analyzer = PropagationAnalyzer(harness.kernel)
    dispatch = resolve_syscall_dispatch(
        harness.kernel, new_prints,
        numbers=issuable_syscalls(harness.binaries))
    cones = {}

    def executed_functions(workload):
        """Function names boot + golden execution of *workload*
        touches, measured instruction-by-instruction.  ``None`` when
        the instrumented boot fails (carry nothing)."""
        from repro.injection.runner import BOOT_MARKER
        from repro.machine.machine import build_standard_disk
        coverage = set()
        disk = build_standard_disk(harness.binaries, workload)
        machine = harness.boot_machine(disk)
        if harness.recovery:
            machine.enable_recovery()
        if harness.disk_retries:
            machine.enable_disk_retry(harness.disk_retries)
        try:
            machine.run_until_console(BOOT_MARKER,
                                      max_cycles=_BOOT_BUDGET,
                                      coverage=coverage)
        except Exception:
            return None
        finally:
            machine.close()
        coverage.update(harness.golden(workload).coverage)
        names = set()
        for eip in coverage:
            info = harness.kernel.find_function(eip)
            if info is not None:
                names.add(info.name)
        return names

    def cone_blocked(workload):
        """True unless the workload's execution cone — every function
        boot/golden executes, closed over the (dispatch-resolved)
        call graph — provably avoids every changed/moved function."""
        if not touched:
            return False
        verdict = cones.get(workload)
        if verdict is None:
            executed = executed_functions(workload)
            cone = _execution_cone(new_prints, executed, dispatch)
            verdict = cone is None or bool(cone & touched)
            cones[workload] = verdict
        return verdict

    def crash_locus_blocked(result):
        eips = [result.crash_eip]
        for nested in result.nested_crashes or ():
            if isinstance(nested, dict):
                eips.append(nested.get("eip"))
        for eip in eips:
            if eip is None:
                continue
            info = base_kernel.find_function(eip)
            if info is None or info.name in blocked:
                return True
        return False

    def live_reason(spec):
        if diff.global_reasons:
            return "global"
        if spec.fault_model is not None:
            return "fault-model"
        if spec.function in diff.impacted:
            return "impacted"
        if spec.function in diff.moved:
            return "moved"
        coords = (spec.function, spec.instr_addr, spec.byte_offset,
                  spec.bit, None)
        old_result = old.get(coords)
        if old_result is None:
            return "new-site"
        if _enriched(old_result):
            return "enriched-source"
        covered = harness.assign_workload(spec)
        if old_result.workload != spec.workload:
            return "workload-changed"
        if bool(old_result.activated) != bool(covered):
            return "activation-changed"
        if old_result.outcome == HARNESS_ERROR:
            return "harness-error"
        if not covered:
            return None                     # NOT_ACTIVATED carries
        if not diff.any_change:
            return None          # identical images: trivially carries
        if diff.trap_impacted:
            return "trap-path"
        if crash_locus_blocked(old_result):
            return "crash-locus"
        if WILD_SUBSYSTEM in analyzer.analyze_spec(spec).subsystems:
            return "wild"
        if cone_blocked(spec.workload):
            return "execution-cone"
        return None

    carried = {}
    live_indices = []
    reasons = Counter()
    for index, spec in enumerate(specs):
        reason = live_reason(spec)
        if reason is None:
            carried[index] = _carry(old[(spec.function, spec.instr_addr,
                                         spec.byte_offset, spec.bit,
                                         None)], spec)
        else:
            live_indices.append(index)
            reasons[reason] += 1
    return DeltaPlan(campaign_key, seed, byte_stride, functions,
                     specs, fingerprint, diff, carried, live_indices,
                     reasons, provenance)


def seed_shard_journals(plan, shards, workdir):
    """Pre-seed one shard journal per shard with the plan's carried
    records; returns the journal paths.

    A delta plan shards like any other plan: each shard journal gets
    the carried records that fall inside its index slice, and
    ``run_shard(..., resume=True)`` over the pre-seeded journal then
    executes only that shard's live sites.  The merged result is
    bit-identical to the serial delta run.
    """
    from repro.injection.fabric import ShardJournal
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for shard in shards:
        path = os.path.join(
            workdir, "shard_%d_of_%d.journal.jsonl"
            % (shard.index, shard.count))
        subset = [plan.specs[i] for i in shard.indices]
        fingerprint = plan_fingerprint(plan.campaign, subset,
                                       plan.seed, plan.byte_stride)
        journal = ShardJournal(path, shard)
        journal.start(fingerprint, plan.campaign, plan.seed,
                      len(subset), fresh=True)
        try:
            for local, global_index in enumerate(shard.indices):
                if global_index in plan.carried:
                    journal.record_carried(
                        local, plan.carried[global_index],
                        plan.provenance)
        finally:
            journal.close()
        paths.append(path)
    return paths
