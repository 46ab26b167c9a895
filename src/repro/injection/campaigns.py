"""Campaign definitions and injection planning (the paper's Table 4).

========= ==================================== ============================
Campaign  Target instructions                  Target bit
========= ==================================== ============================
A         all non-branch instructions          a random bit in each byte
B         all conditional-branch instructions  a random bit in each byte
C         all conditional-branch instructions  the bit that reverses the
                                               branch condition
========= ==================================== ============================
"""

import random

from repro.isa.decoder import decode_all

#: Subsystems targeted by the paper (net deliberately excluded, §3).
TARGET_SUBSYSTEMS = ("arch", "fs", "kernel", "mm")

#: Version of the spec/journal record layout.  Bumped when
#: :class:`InjectionSpec` or the result schema gains fields; readers
#: tolerate older versions (``from_dict`` drops unknown keys, new
#: fields default to ``None``), so journals written before a bump
#: still load and resume.  v1: instruction-stream specs only.
#: v2: optional ``fault_model`` field (PR 6 fault-model framework).
SPEC_SCHEMA_VERSION = 2


class CampaignDef:
    """One campaign's selection rules."""

    def __init__(self, key, title, branch_targets, condition_bit):
        self.key = key
        self.title = title
        self.branch_targets = branch_targets  # True: jcc only; False: rest
        self.condition_bit = condition_bit    # True: flip the cc low bit

    def __repr__(self):
        return "CampaignDef(%s: %s)" % (self.key, self.title)


CAMPAIGNS = {
    "A": CampaignDef("A", "Any Random Error", False, False),
    "B": CampaignDef("B", "Random Branch Error", True, False),
    "C": CampaignDef("C", "Valid but Incorrect Branch", True, True),
}


#: Coarse instruction classes carried on every spec (computed once at
#: plan time from the decoded instruction, so the runner and the
#: analysis layer never re-decode to answer "what kind of site is
#: this?").
INSTR_CLASS_BRANCH = "branch"
INSTR_CLASS_CALL = "call"
INSTR_CLASS_ALU = "alu"
INSTR_CLASS_MOVE = "move"
INSTR_CLASS_STACK = "stack"
INSTR_CLASS_STRING = "string"
INSTR_CLASS_SYSTEM = "system"
INSTR_CLASS_OTHER = "other"

_CLASS_BY_OP = {}
for _op in ("jcc", "jmp", "jmp_ind", "jmpf", "jmpf_ind", "loop",
            "loope", "loopne", "jcxz", "ret", "lret", "iret"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_BRANCH
for _op in ("call", "call_ind", "callf", "callf_ind"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_CALL
for _op in ("add", "sub", "adc", "sbb", "and", "or", "xor", "cmp",
            "test", "inc", "dec", "neg", "not", "shl", "shr", "sar",
            "rol", "ror", "rcl", "rcr", "shld", "shrd", "mul",
            "imul1", "imul2", "imul3", "div", "idiv", "cwde", "cdq",
            "bt", "bts", "btr", "btc", "bsf", "bsr", "setcc"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_ALU
for _op in ("mov", "movzx", "movsx", "lea", "xchg", "bswap", "cmovcc",
            "xadd", "cmpxchg", "xlat"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_MOVE
for _op in ("push", "pop", "pusha", "popa", "pushf", "popf",
            "push_sr", "pop_sr", "enter", "leave"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_STACK
for _op in ("movs", "cmps", "stos", "lods", "scas", "ins", "outs"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_STRING
for _op in ("cli", "sti", "hlt", "int", "int3", "into",
            "sysgrp", "mov_from_cr", "mov_to_cr", "mov_from_dr",
            "mov_to_dr", "mov_from_sr", "mov_to_sr", "wrmsr", "rdmsr",
            "rdtsc", "rdpmc", "cpuid", "invd", "clts", "ud2", "in",
            "out", "bound"):
    _CLASS_BY_OP[_op] = INSTR_CLASS_SYSTEM
del _op


def instruction_class(ins):
    """Coarse class of a decoded instruction (see INSTR_CLASS_*)."""
    return _CLASS_BY_OP.get(ins.op, INSTR_CLASS_OTHER)


#: The static verdict fields of a spec, which every result of the spec
#: copies (:meth:`~repro.injection.runner.InjectionHarness.run_spec`).
PRED_FIELDS = ("pred_class", "pred_traps", "pred_latency_lo",
               "pred_latency_hi", "pred_subsystems", "pred_seed")


class InjectionSpec:
    """One planned injection.

    ``instr_class``/``is_branch`` are decoded-once instruction
    metadata; ``pred_class`` is the static pre-classifier's verdict
    when planning ran with ``preclassify``/``prune_dead``/
    ``prioritize`` (``None`` otherwise).  ``pred_traps``/
    ``pred_latency_lo``/``pred_latency_hi``/``pred_subsystems``/
    ``pred_seed`` carry the symbolic error-propagation verdict
    (:mod:`repro.staticanalysis.propagation`) when planning ran with
    ``static_verdicts``.  All prediction fields default to ``None`` so
    specs serialized by older journals still load, and none of them
    participate in the journal fingerprint (which hashes only the site
    coordinates), so enriched plans resume cleanly over plain
    journals.

    ``fault_model`` is ``None`` for the paper's instruction-stream
    flip (keeping plans, fingerprints and journals byte-identical with
    pre-framework runs) or a JSON-serializable dict describing a
    pluggable fault model (see :mod:`repro.injection.faultmodels`):
    ``{"kind": ..., "v": <model version>, ...params}``.  When set, the
    dict *does* enter the journal fingerprint — a resumed campaign
    must re-deliver exactly the same faults.
    """

    __slots__ = ("campaign", "function", "subsystem", "instr_addr",
                 "instr_len", "byte_offset", "bit", "mnemonic",
                 "workload", "instr_class", "is_branch") + PRED_FIELDS \
        + ("fault_model",)

    def __init__(self, campaign, function, subsystem, instr_addr,
                 instr_len, byte_offset, bit, mnemonic, workload=None,
                 instr_class=None, is_branch=None, pred_class=None,
                 pred_traps=None, pred_latency_lo=None,
                 pred_latency_hi=None, pred_subsystems=None,
                 pred_seed=None, fault_model=None):
        self.campaign = campaign
        self.function = function
        self.subsystem = subsystem
        self.instr_addr = instr_addr
        self.instr_len = instr_len
        self.byte_offset = byte_offset
        self.bit = bit
        self.mnemonic = mnemonic
        self.workload = workload
        self.instr_class = instr_class
        self.is_branch = is_branch
        self.pred_class = pred_class
        self.pred_traps = pred_traps
        self.pred_latency_lo = pred_latency_lo
        self.pred_latency_hi = pred_latency_hi
        self.pred_subsystems = pred_subsystems
        self.pred_seed = pred_seed
        self.fault_model = fault_model

    @property
    def target_byte_addr(self):
        return self.instr_addr + self.byte_offset

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**{k: v for k, v in data.items()
                      if k in cls.__slots__})

    def __repr__(self):
        return ("InjectionSpec(%s %s@%#x+%d bit %d [%s])"
                % (self.campaign, self.function, self.instr_addr,
                   self.byte_offset, self.bit, self.mnemonic))


def _is_cond_branch(ins):
    return ins.op in ("jcc", "loop", "loope", "loopne", "jcxz")


def _condition_bit_location(ins):
    """(byte offset, bit) that reverses a conditional branch, or None.

    For ``70+cc rel8`` the condition nibble's low bit is bit 0 of byte 0;
    for ``0F 80+cc rel32`` it is bit 0 of byte 1.  (loop/jcxz have no
    simple reversal bit and are skipped in campaign C, matching the
    paper's focus on Jcc.)
    """
    if ins.op != "jcc":
        return None
    if ins.raw[:1] == b"\x0f":
        return 1, 0
    return 0, 0


def select_targets(kernel, profile, campaign_key, coverage=0.95):
    """Pick the functions to inject for a campaign.

    All campaigns include the core (top-``coverage``) functions; campaign
    B widens to every *profiled* function and campaign C to every
    function in the four target subsystems — reproducing the paper's
    growing function counts (51 / 81 / 176 in its Figure 4).
    """
    core = {f.name for f in profile.top_functions(coverage=coverage)}
    out = []
    for info in kernel.functions:
        if info.subsystem not in TARGET_SUBSYSTEMS:
            continue
        sampled = profile.functions.get(info.name)
        hits = sampled.samples if sampled is not None else 0
        if campaign_key == "A":
            keep = info.name in core
        elif campaign_key == "B":
            keep = info.name in core or hits > 0
        else:
            keep = True
        if keep:
            out.append(info)
    out.sort(key=lambda f: f.start)
    return out


def plan_campaign(kernel, campaign_key, functions, seed=2003,
                  byte_stride=1, max_per_function=None,
                  preclassify=False, prune_dead=False,
                  prioritize=False, static_verdicts=False,
                  prioritize_latency=False):
    """Expand a campaign over *functions* into concrete injections.

    Args:
        kernel: built KernelImage.
        campaign_key: "A", "B" or "C".
        functions: FuncInfo list (e.g. from :func:`select_targets`).
        seed: RNG seed for the random-bit choice (reproducible plans).
        byte_stride: inject every n-th eligible byte (scales campaign
            size down without biasing instruction selection).
        max_per_function: optional cap per function.
        preclassify: annotate each spec's ``pred_class`` with the
            static pre-classifier's verdict (implied by *prune_dead*
            and *prioritize*).
        prune_dead: drop sites the pre-classifier proves dead
            (``PRED_DEAD``): the flip cannot change architectural
            state, so its dynamic outcome is knowable without a run.
            The surviving plan is a strict subset of the full one —
            see docs/static-analysis.md for why this preserves the
            paper's outcome distributions over *manifested* errors.
        prioritize: stable-sort the plan so predicted-interesting
            classes (invalid opcode, length change, branch reversal)
            run first and predicted-dead sites last; with a fixed run
            budget the front of the list now carries the information.
        static_verdicts: annotate each spec with the symbolic
            error-propagation verdict (predicted trap classes, crash-
            latency bounds in instructions, reachable subsystems).
        prioritize_latency: stable-sort crash-predicting sites by
            their static latency lower bound, shortest first, with
            silent-only predictions last — a truncated run then
            populates the dense low-latency region of Figure 7 first.
            Implies *static_verdicts*.

    Returns:
        list of :class:`InjectionSpec` (workload not yet assigned).
    """
    campaign = CAMPAIGNS[campaign_key]
    rng = random.Random((seed, campaign_key, byte_stride).__repr__())
    specs = []
    byte_clock = 0
    for info in functions:
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        per_function = 0
        for ins in decode_all(code, base=info.start):
            if ins.op == "(bad)":
                continue
            is_branch = _is_cond_branch(ins)
            if campaign.branch_targets != is_branch:
                continue
            if campaign.condition_bit:
                location = _condition_bit_location(ins)
                if location is None:
                    continue
                byte_offset, bit = location
                candidates = [(byte_offset, bit)]
            else:
                candidates = [(i, rng.randrange(8))
                              for i in range(ins.length)]
            for byte_offset, bit in candidates:
                byte_clock += 1
                if byte_clock % byte_stride:
                    continue
                if (max_per_function is not None
                        and per_function >= max_per_function):
                    break
                specs.append(InjectionSpec(
                    campaign=campaign_key,
                    function=info.name,
                    subsystem=info.subsystem,
                    instr_addr=ins.addr,
                    instr_len=ins.length,
                    byte_offset=byte_offset,
                    bit=bit,
                    mnemonic=ins.op,
                    instr_class=instruction_class(ins),
                    is_branch=ins.is_branch,
                ))
                per_function += 1
    if preclassify or prune_dead or prioritize:
        specs = apply_predictions(kernel, specs,
                                  prune_dead=prune_dead,
                                  prioritize=prioritize)
    if static_verdicts or prioritize_latency:
        specs = apply_static_verdicts(
            kernel, specs, prioritize_latency=prioritize_latency)
    return specs


#: Plan order under ``prioritize``: likely-crash and
#: control-flow-changing predictions first, provably-dead sites last.
_PRIORITY_ORDER = {
    "PRED_INVALID_OPCODE": 0,
    "PRED_LENGTH_CHANGE": 1,
    "PRED_BRANCH_REVERSAL": 2,
    "PRED_UNKNOWN": 3,
    "PRED_DEAD": 4,
}


def apply_predictions(kernel, specs, prune_dead=False,
                      prioritize=False):
    """Annotate specs with ``pred_class``; optionally prune/reorder.

    Imported lazily so planning without predictions never pays for the
    static-analysis layer.
    """
    from repro.staticanalysis.predict import PRED_DEAD, PreClassifier

    pre = PreClassifier(kernel)
    for spec in specs:
        spec.pred_class = pre.classify_spec(spec)
    if prune_dead:
        specs = [s for s in specs if s.pred_class != PRED_DEAD]
    if prioritize:
        specs = sorted(specs,
                       key=lambda s: _PRIORITY_ORDER.get(s.pred_class,
                                                         3))
    return specs


#: An unbounded predicted latency sorts after every finite bound.
_LATENCY_UNBOUNDED = float("inf")


def _latency_priority(spec):
    """Sort key for ``prioritize_latency`` (smaller = runs earlier).

    Crash-predicting sites order by their static latency lower bound
    (shortest first); sites whose only predicted outcome is silence
    run last — their dynamic result is the least informative per
    cycle spent.
    """
    traps = spec.pred_traps or []
    crash_traps = [t for t in traps if t != "silent"]
    if not crash_traps:
        return (1, _LATENCY_UNBOUNDED)
    lo = spec.pred_latency_lo
    return (0, lo if lo is not None else _LATENCY_UNBOUNDED)


def apply_static_verdicts(kernel, specs, prioritize_latency=False):
    """Annotate specs with symbolic error-propagation verdicts.

    Sets ``pred_traps`` (sorted list of predicted first-failure trap
    classes), ``pred_latency_lo``/``pred_latency_hi`` (instruction
    bounds; ``hi`` ``None`` when unbounded), ``pred_subsystems``
    (sorted reachable-subsystem list) and ``pred_seed`` (the seed
    corruption lattice class) on every spec.  With
    *prioritize_latency*, stable-sorts the plan by
    :func:`_latency_priority`.

    Imported lazily, like :func:`apply_predictions`, so plain
    planning never pays for the static-analysis layer.
    """
    from repro.staticanalysis.propagation import PropagationAnalyzer

    analyzer = PropagationAnalyzer(kernel)
    for spec in specs:
        verdict = analyzer.analyze_spec(spec)
        spec.pred_traps = sorted(verdict.traps)
        spec.pred_latency_lo = verdict.latency_lo
        spec.pred_latency_hi = verdict.latency_hi
        spec.pred_subsystems = sorted(
            s for s in verdict.subsystems if s is not None)
        spec.pred_seed = verdict.seed
    if prioritize_latency:
        specs = sorted(specs, key=_latency_priority)
    return specs


def main(argv=None):
    """CLI: plan a campaign and report/emit it.

    ``--prune-dead`` / ``--prioritize`` expose the static-analysis
    integration::

        python -m repro.injection.campaigns --campaign A --prune-dead
    """
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Plan an injection campaign (optionally pruned or "
                    "prioritized by the static pre-classifier).")
    parser.add_argument("--campaign", default="A",
                        choices=sorted(CAMPAIGNS))
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--prune-dead", action="store_true",
                        help="drop sites statically proven dead")
    parser.add_argument("--prioritize", action="store_true",
                        help="run predicted-interesting sites first")
    parser.add_argument("--static-verdicts", action="store_true",
                        help="annotate specs with symbolic error-"
                             "propagation verdicts (trap classes,"
                             " latency bounds, subsystem spread)")
    parser.add_argument("--prioritize-latency", action="store_true",
                        help="run predicted-short-latency crashes"
                             " first (implies --static-verdicts)")
    parser.add_argument("--json", action="store_true",
                        help="emit the plan as JSON on stdout")
    args = parser.parse_args(argv)

    from repro.experiments.context import SCALES, ExperimentContext
    ctx = ExperimentContext(scale=args.scale, seed=args.seed)
    stride, max_specs = SCALES[args.scale][args.campaign]
    functions = select_targets(ctx.kernel, ctx.profile, args.campaign)
    specs = plan_campaign(
        ctx.kernel, args.campaign, functions, seed=args.seed,
        byte_stride=stride, preclassify=True,
        prune_dead=args.prune_dead, prioritize=args.prioritize,
        static_verdicts=args.static_verdicts,
        prioritize_latency=args.prioritize_latency)
    if max_specs is not None:
        specs = specs[:max_specs]

    if args.json:
        json.dump([s.to_dict() for s in specs], sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    from collections import Counter
    counts = Counter(s.pred_class for s in specs)
    print("campaign %s: %d planned injections over %d functions"
          % (args.campaign, len(specs), len(functions)))
    for pred, count in sorted(counts.items()):
        print("  %-22s %5d" % (pred, count))
    if args.prune_dead:
        print("(PRED_DEAD sites pruned from the plan)")
    if args.static_verdicts or args.prioritize_latency:
        crash_pred = sum(
            1 for s in specs
            if any(t != "silent" for t in (s.pred_traps or ())))
        bounded = sum(1 for s in specs
                      if s.pred_latency_hi is not None)
        print("static verdicts: %d/%d sites predict a possible crash,"
              " %d with a finite latency upper bound"
              % (crash_pred, len(specs), bounded))
        if args.prioritize_latency:
            print("(plan ordered by predicted crash-latency lower"
                  " bound)")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
