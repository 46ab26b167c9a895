"""Pluggable fault models beyond the instruction-stream bit flip.

The paper injects exactly one fault type: a single-bit flip in the
kernel's instruction stream (its footnote 1 argues this *emulates*
register and data corruption).  Later studies (e.g. the CentOS-like-OS
characterization, PAPERS.md) show failure profiles shift dramatically
across wider fault models, so this module generalizes the hardwired
flip into a **FaultModel abstraction** that plugs into the existing
planner / runner / journal pipeline unchanged:

* ``instr``        — the paper's instruction-stream flip, expressed as
  a model (multi-bit capable).
* ``mem``          — data/memory-state flips delivered at trigger
  time into the current kernel stack frame, the buffer/page-cache
  data pages, or the in-memory inode table.
* ``reg``          — register flip at the trigger instruction
  (campaign R).
* ``reg_trap``     — register flip delivered at the *next trap or
  interrupt entry* after the trigger, landing in the saved context
  exactly as a hardware fault during trap delivery would.
* ``intermittent`` — multi-bit flip of an instruction that is
  *restored* after N cycles (transient fault: later executions of the
  same site run clean).
* ``disk``         — device-level faults armed in the DMA disk
  controller: read corruption, sticky read timeout, or a transient
  media error that clears after N operations.  Paired with the kernel
  IDE driver's opt-in bounded retry path
  (``Machine.enable_disk_retry``), campaigns measure graceful
  degradation: fail-stop vs retry vs recovery kernel.

A model is carried on :class:`~repro.injection.campaigns.InjectionSpec`
as a JSON dict (``spec.fault_model``) with a ``kind`` and a per-model
version ``v``, so it survives journaling, ``--resume`` and parallel
workers bit-identically; the engine folds the dict into the plan
fingerprint only when set, keeping default instruction-flip plans
byte-compatible with pre-framework journals.
"""

import random

from repro.injection.campaigns import (
    InjectionSpec,
    select_targets,
)
from repro.isa.decoder import decode_all
from repro.isa.registers import REG_NAMES

#: Campaign key per plannable fault-model kind (the instruction models
#: keep the paper's A/B/C keys).
CAMPAIGN_KEYS = {
    "mem": "M",
    "reg": "R",
    "reg_trap": "RT",
    "intermittent": "I",
    "disk": "D",
}

#: Kinds :func:`plan_fault_model_campaign` can plan.
FAULT_KINDS = tuple(sorted(CAMPAIGN_KEYS))

#: Fault-model kind per campaign key (the inverse of CAMPAIGN_KEYS).
KIND_OF_KEY = {key: kind for kind, key in CAMPAIGN_KEYS.items()}

#: Registers worth corrupting (esp excluded: a corrupted stack pointer
#: reduces to the same few double-fault cases).
DEFAULT_REGS = (0, 1, 2, 3, 5, 6, 7)   # eax ecx edx ebx ebp esi edi


class FaultModel:
    """One way of corrupting the machine at (or after) a trigger.

    Models are stateless singletons: every parameter lives in the
    spec's ``fault_model`` dict, so a model instance can serve any
    number of concurrent campaigns.  ``arm`` installs the trigger on a
    freshly-cloned machine and must record ``state["tsc"]`` /
    ``state["instret"]`` at the moment the fault is actually
    *delivered* — the harness classifies a run with no ``tsc`` as
    not-activated, which keeps activation honest for models whose
    delivery is conditional (no trap after the trigger, no disk read
    after arming).
    """

    kind = None
    version = 1

    def params(self, spec):
        return spec.fault_model or {}

    def target_name(self, spec):
        """Human-readable description of the corrupted target."""
        raise NotImplementedError

    def arm(self, harness, machine, spec, state):
        """Install trigger + mutation on *machine* (pre-run)."""
        raise NotImplementedError

    def describe(self, spec):
        """The ``FAULT:`` annotation line for oops/trace tools."""
        return "FAULT: %s" % self.target_name(spec)


class InstructionFlipModel(FaultModel):
    """The paper's instruction-stream flip, as an explicit model.

    ``bits`` (optional) lists ``[byte_offset, bit]`` pairs for
    multi-bit corruption; without it the spec's own
    ``byte_offset``/``bit`` site is flipped, exactly like the default
    pipeline.
    """

    kind = "instr"

    def _bits(self, spec):
        bits = self.params(spec).get("bits")
        if bits:
            return [tuple(pair) for pair in bits]
        return [(spec.byte_offset, spec.bit)]

    def target_name(self, spec):
        sites = ",".join("+%d bit %d" % pair for pair in self._bits(spec))
        return "instr flip %s @ %s" % (sites, spec.function)

    def arm(self, harness, machine, spec, state):
        bits = self._bits(spec)

        def callback(m):
            state["tsc"] = m.cpu.cycles
            state["instret"] = m.cpu.instret
            for byte_offset, bit in bits:
                m.flip_bit(spec.instr_addr + byte_offset, bit)

        machine.arm_breakpoint(spec.instr_addr, callback)


class MemoryStateModel(FaultModel):
    """Data/memory-state flip at trigger time.

    Regions (``region`` param):

    * ``stack``       — ``esp + offset`` at the trigger: the live
      kernel stack frame (saved registers, return addresses).
    * ``pagecache``   — ``buffer_mem + offset``: the buffer/page-cache
      data pages the fs serves reads from.
    * ``inode_table`` — the in-memory inode table.

    ``bits`` lists the bits to flip in the target byte (multi-bit
    capable).  A region that is not materialized yet (``buffer_mem``
    still 0) delivers no fault and the run classifies not-activated.
    """

    kind = "mem"

    REGIONS = ("stack", "pagecache", "inode_table")

    def target_name(self, spec):
        fault = self.params(spec)
        bits = ",".join(str(b) for b in fault.get("bits", ()))
        return "mem flip %s+%#x bit %s" % (fault.get("region"),
                                           fault.get("offset", 0), bits)

    def arm(self, harness, machine, spec, state):
        fault = self.params(spec)
        region = fault["region"]
        offset = fault["offset"]
        bits = fault["bits"]
        symbols = harness.kernel.symbols
        kernel_base = machine.layout.KERNEL_BASE

        def callback(m):
            if region == "stack":
                base = m.cpu.regs[4]
            elif region == "pagecache":
                base = m.read_word(symbols["buffer_mem"])
            elif region == "inode_table":
                base = symbols["inode_table"]
            else:
                raise ValueError("unknown mem region %r" % (region,))
            if base < kernel_base:
                return          # region not materialized: no fault
            state["tsc"] = m.cpu.cycles
            state["instret"] = m.cpu.instret
            for bit in bits:
                m.flip_bit(base + offset, bit)

        machine.arm_breakpoint(spec.instr_addr, callback)


class RegisterFlipModel(FaultModel):
    """Register flip at the trigger instruction (campaign R)."""

    kind = "reg"

    def target_name(self, spec):
        fault = self.params(spec)
        return "reg flip %s bit %d" % (REG_NAMES[fault["reg"]],
                                       fault["bit"])

    def arm(self, harness, machine, spec, state):
        fault = self.params(spec)
        reg = fault["reg"]
        mask = 1 << fault["bit"]

        def callback(m):
            state["tsc"] = m.cpu.cycles
            state["instret"] = m.cpu.instret
            m.cpu.regs[reg] ^= mask

        machine.arm_breakpoint(spec.instr_addr, callback)


class RegisterTrapModel(FaultModel):
    """Register flip delivered at the next trap/interrupt entry.

    The trigger breakpoint installs a one-shot ``on_trap_entry`` hook;
    the flip lands *before* the trap frame is pushed, so the corrupted
    value is saved, propagated through the handler, and restored into
    the interrupted context on ``iret`` — modeling a fault in the
    register file during trap delivery.  If no trap follows the
    trigger inside the watchdog budget the run is not-activated.
    """

    kind = "reg_trap"

    def target_name(self, spec):
        fault = self.params(spec)
        return "reg flip %s bit %d @ trap entry" % (
            REG_NAMES[fault["reg"]], fault["bit"])

    def arm(self, harness, machine, spec, state):
        fault = self.params(spec)
        reg = fault["reg"]
        mask = 1 << fault["bit"]

        def trigger(m):
            def on_trap(cpu, vector, error_code, eip):
                cpu.on_trap_entry = None        # one-shot
                state["tsc"] = cpu.cycles
                state["instret"] = cpu.instret
                state["trap_vector"] = vector
                cpu.regs[reg] ^= mask

            m.cpu.on_trap_entry = on_trap

        machine.arm_breakpoint(spec.instr_addr, trigger)


class IntermittentModel(FaultModel):
    """Multi-bit instruction corruption restored after N cycles.

    At the trigger every ``[byte_offset, bit]`` pair of ``bits`` is
    flipped in the target instruction; a cycle alarm restores the
    original bytes ``duration`` cycles later.  Executions in the
    window run the corrupted code, later ones run clean — an
    intermittent (transient) fault rather than the paper's permanent
    one.
    """

    kind = "intermittent"

    def target_name(self, spec):
        fault = self.params(spec)
        return "intermittent %d-bit flip @ %s for %d cycles" % (
            len(fault.get("bits", ())), spec.function,
            fault.get("duration", 0))

    def arm(self, harness, machine, spec, state):
        fault = self.params(spec)
        bits = [tuple(pair) for pair in fault["bits"]]
        duration = fault["duration"]

        def callback(m):
            state["tsc"] = m.cpu.cycles
            state["instret"] = m.cpu.instret
            for byte_offset, bit in bits:
                m.flip_bit(spec.instr_addr + byte_offset, bit)

            def restore(cpu):
                state["restored_tsc"] = cpu.cycles
                for byte_offset, bit in bits:
                    m.flip_bit(spec.instr_addr + byte_offset, bit)

            m.cpu.alarm_cycle = m.cpu.cycles + duration
            m.cpu.on_alarm = restore

        machine.arm_breakpoint(spec.instr_addr, callback)


class DiskFaultModel(FaultModel):
    """Device-level disk fault armed at the trigger.

    The trigger breakpoint arms the DMA controller's fault state
    (:meth:`repro.cpu.devices.DiskDevice.arm_fault`): ``corrupt``
    flips one bit of the next read's DMA'd data, ``timeout`` makes the
    controller stop answering (sticky), ``transient`` fails ``ops``
    reads with a media error and then recovers.  Activation is
    recorded on the first faulted read — arming a fault no read ever
    hits classifies not-activated.  Combined with
    ``disk_retries`` (the driver's bounded retry path) this is the
    graceful-degradation ablation: a retried transient is masked
    entirely, a retried timeout still fails after the backoff budget.
    """

    kind = "disk"

    FAULTS = ("corrupt", "timeout", "transient")

    def target_name(self, spec):
        fault = self.params(spec)
        name = fault.get("fault")
        if name == "corrupt":
            return "disk read corruption byte %d bit %d" % (
                fault.get("byte", 0), fault.get("bit", 0))
        if name == "timeout":
            return "disk read timeout (sticky)"
        return "disk transient error for %d op(s)" % fault.get("ops", 1)

    def arm(self, harness, machine, spec, state):
        fault = self.params(spec)

        def trigger(m):
            def notify():
                if "tsc" not in state:
                    state["tsc"] = m.cpu.cycles
                    state["instret"] = m.cpu.instret

            m.disk.arm_fault(fault["fault"], ops=fault.get("ops", 1),
                             byte_offset=fault.get("byte", 0),
                             bit=fault.get("bit", 0), notify=notify)

        machine.arm_breakpoint(spec.instr_addr, trigger)


#: kind -> model singleton.
MODELS = {model.kind: model for model in (
    InstructionFlipModel(), MemoryStateModel(), RegisterFlipModel(),
    RegisterTrapModel(), IntermittentModel(), DiskFaultModel(),
)}


def resolve_model(spec):
    """The :class:`FaultModel` for a spec (None = default instr flip).

    Raises ``ValueError`` for an unknown kind or a model version newer
    than this code supports; the engine's containment turns that into
    a :data:`~repro.injection.outcomes.HARNESS_ERROR` result instead
    of losing the campaign.
    """
    fault = getattr(spec, "fault_model", None)
    if fault is None:
        return None
    kind = fault.get("kind")
    model = MODELS.get(kind)
    if model is None:
        raise ValueError("unknown fault model kind %r" % (kind,))
    if fault.get("v", 1) > model.version:
        raise ValueError(
            "fault model %r version %r is newer than supported (%d)"
            % (kind, fault.get("v"), model.version))
    return model


def describe_fault(spec):
    """``FAULT: ...`` annotation for a spec, or None (default flip)."""
    model = resolve_model(spec)
    if model is None:
        return None
    return model.describe(spec)


# -- planning ----------------------------------------------------------------


def _entry_instruction(kernel, info):
    """The first decoded instruction of a function (or None)."""
    code = kernel.code[info.start - kernel.base:info.end - kernel.base]
    for ins in decode_all(code, base=info.start):
        if ins.op != "(bad)":
            return ins
        break
    return None


def _hot_functions(kernel, profile):
    """Trigger sites: the campaign-A hot set, entries first executed.

    Function *entries* are the trigger of choice: whenever the driving
    workload runs the function at all, its entry is in golden
    coverage, so planned faults actually deliver.
    """
    return select_targets(kernel, profile, "A")


def _spec(kind, info, ins, mnemonic, fault):
    fault = dict(fault)
    fault["kind"] = kind
    fault.setdefault("v", MODELS[kind].version)
    return InjectionSpec(
        campaign=CAMPAIGN_KEYS[kind],
        function=info.name,
        subsystem=info.subsystem,
        instr_addr=info.start,
        instr_len=ins.length if ins is not None else 1,
        byte_offset=0,
        bit=0,
        mnemonic=mnemonic,
        fault_model=fault,
    )


#: Byte span sampled per memory region (word-aligned offsets).
_MEM_SPANS = {
    "stack": 32,            # esp+0 .. esp+124: the live frame
    "pagecache": 512,       # first two buffer-cache blocks
    "inode_table": 288,     # the whole in-memory inode table
}


def plan_memory_campaign(kernel, profile, seed=2003, per_function=3):
    """Campaign M: memory-state flips over the hot function set."""
    rng = random.Random("M-%d" % seed)
    regions = MemoryStateModel.REGIONS
    specs = []
    for info in _hot_functions(kernel, profile):
        ins = _entry_instruction(kernel, info)
        for index in range(per_function):
            region = regions[index % len(regions)]
            offset = rng.randrange(_MEM_SPANS[region]) * 4
            nbits = rng.choice((1, 1, 2))
            bits = sorted(rng.sample(range(8), nbits))
            specs.append(_spec("mem", info, ins, "mem:%s" % region,
                               {"region": region, "offset": offset,
                                "bits": bits}))
    return specs


def plan_register_campaign(kernel, profile, seed=2003, per_function=6,
                           regs=DEFAULT_REGS, functions=None):
    """Campaign R: register flips at sampled trigger instructions.

    For each function of *functions* (by default campaign A's),
    *per_function* trigger instructions are sampled uniformly from its
    body; each gets one random (register, bit) pick.  ``byte_offset``
    holds the register index, the coordinate campaign-R journals have
    always recorded.
    """
    rng = random.Random("R-%d" % seed)
    if functions is None:
        functions = _hot_functions(kernel, profile)
    specs = []
    for info in functions:
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        instrs = [i for i in decode_all(code, base=info.start)
                  if i.op != "(bad)"]
        for ins in rng.sample(instrs, min(per_function, len(instrs))):
            reg = rng.choice(regs)
            bit = rng.randrange(32)
            specs.append(InjectionSpec(
                campaign="R", function=info.name,
                subsystem=info.subsystem, instr_addr=ins.addr,
                instr_len=1, byte_offset=reg, bit=bit,
                mnemonic="reg:%s" % REG_NAMES[reg],
                fault_model={"kind": "reg", "v": 1, "reg": reg,
                             "bit": bit}))
    specs.sort(key=lambda s: (s.instr_addr, s.byte_offset, s.bit))
    return specs


def plan_reg_trap_campaign(kernel, profile, seed=2003, per_function=2,
                           regs=DEFAULT_REGS):
    """Campaign RT: register flips delivered at trap/syscall entry."""
    rng = random.Random("RT-%d" % seed)
    specs = []
    for info in _hot_functions(kernel, profile):
        ins = _entry_instruction(kernel, info)
        for _ in range(per_function):
            reg = rng.choice(regs)
            bit = rng.randrange(32)
            specs.append(_spec("reg_trap", info, ins,
                               "regtrap:%s" % REG_NAMES[reg],
                               {"reg": reg, "bit": bit}))
    return specs


#: Cycle windows for intermittent faults: shorter than one timer tick
#: up to several ticks.
_INTERMITTENT_WINDOWS = (200, 1200, 6000)


def plan_intermittent_campaign(kernel, profile, seed=2003,
                               per_function=2):
    """Campaign I: multi-bit flips restored after N cycles."""
    rng = random.Random("I-%d" % seed)
    specs = []
    for info in _hot_functions(kernel, profile):
        ins = _entry_instruction(kernel, info)
        if ins is None:
            continue
        for _ in range(per_function):
            nbits = rng.choice((2, 2, 3))
            sites = [(byte, bit) for byte in range(ins.length)
                     for bit in range(8)]
            bits = sorted(rng.sample(sites, min(nbits, len(sites))))
            duration = rng.choice(_INTERMITTENT_WINDOWS)
            specs.append(_spec(
                "intermittent", info, ins, "int:%dx" % len(bits),
                {"bits": [list(pair) for pair in bits],
                 "duration": duration}))
    return specs


#: Kernel functions whose entry guarantees disk traffic close behind:
#: every workload execs its binary through bread -> disk_read_block ->
#: disk_io, so these entries sit in every golden coverage set.
DISK_TRIGGER_FUNCTIONS = ("bread", "disk_read_block", "disk_io")

#: (fault kind, params) matrix per trigger function.
_DISK_FAULTS = (
    ("corrupt", {"byte": 0, "bit": 0}),
    ("corrupt", {"byte": 17, "bit": 6}),
    ("timeout", {}),
    ("transient", {"ops": 1}),
    ("transient", {"ops": 2}),
)


def plan_disk_campaign(kernel, profile, seed=2003, per_function=None):
    """Campaign D: device-level disk faults armed at fs/driver entry.

    *per_function* caps the fault variants per trigger function
    (None = the full matrix).
    """
    del seed                    # the matrix is exhaustive, not sampled
    by_name = {f.name: f for f in kernel.functions}
    specs = []
    for name in DISK_TRIGGER_FUNCTIONS:
        info = by_name.get(name)
        if info is None:
            continue
        ins = _entry_instruction(kernel, info)
        faults = _DISK_FAULTS[:per_function]
        for fault_name, params in faults:
            fault = dict(params)
            fault["fault"] = fault_name
            specs.append(_spec("disk", info, ins,
                               "disk:%s" % fault_name, fault))
    return specs


_PLANNERS = {
    "mem": plan_memory_campaign,
    "reg": plan_register_campaign,
    "reg_trap": plan_reg_trap_campaign,
    "intermittent": plan_intermittent_campaign,
    "disk": plan_disk_campaign,
}


def plan_fault_model_campaign(kernel, profile, kind, seed=2003,
                              per_function=None, max_specs=None):
    """Plan one fault-model campaign; returns InjectionSpec list.

    Deterministic for a given (kind, seed): serial, parallel and
    resumed executions re-plan the identical spec list, which the
    engine's plan fingerprint then binds the journal to.
    """
    planner = _PLANNERS.get(kind)
    if planner is None:
        raise ValueError("unknown fault-model kind %r (have %s)"
                         % (kind, ", ".join(FAULT_KINDS)))
    kwargs = {"seed": seed}
    if per_function is not None:
        kwargs["per_function"] = per_function
    specs = planner(kernel, profile, **kwargs)
    if max_specs is not None:
        specs = specs[:max_specs]
    return specs

