"""Shared CLI plumbing for the fault-injection tools.

``--model`` helpers (ksymoops, ktrace): both tools historically
hardwired the instruction-stream flip; these helpers let them arm any
:mod:`repro.injection.faultmodels` model at a (function, byte, bit)
site and print the matching ``FAULT:`` annotation, e.g.::

    FAULT: reg flip edx bit 17 @ trap entry

Campaign helpers (kdelta, kfabric): the shared
``campaign --seed --stride --max-specs --scale`` option group, the
scale-preset resolution both campaign CLIs size their plans with, and
the harness both run their campaigns on.
"""

import sys

from repro.injection.campaigns import InjectionSpec
from repro.injection.faultmodels import MODELS, resolve_model
from repro.isa.registers import REG_NAMES

#: Kinds a CLI site maps onto (``reg``/``reg_trap`` reuse BIT for the
#: register bit, ``mem`` reuses BYTE as the region offset).
MODEL_CHOICES = ("instr", "mem", "reg", "reg_trap", "intermittent",
                 "disk")


def add_campaign_options(parser):
    """Install the shared campaign sizing options (kdelta, kfabric)."""
    parser.add_argument("campaign", help="campaign key (A, B, C, ...)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--stride", type=int, default=None,
                        help="byte stride (default from --scale)")
    parser.add_argument("--max-specs", type=int, default=None,
                        help="spec cap (default from --scale)")
    parser.add_argument("--scale", default="quick",
                        help="sizing preset supplying stride/cap "
                             "defaults (tiny/quick/standard/full)")


def scale_params(args):
    """Resolve ``(byte_stride, max_specs)`` from the parsed options."""
    from repro.experiments.context import SCALES
    stride, cap = args.stride, args.max_specs
    if stride is None or cap is None:
        preset = SCALES[args.scale][args.campaign]
        stride = preset[0] if stride is None else stride
        cap = preset[1] if cap is None else cap
    return stride, cap


def build_harness(kernel=None, profiled=None, store=None):
    """The campaign CLIs' harness: *kernel* (by default a fresh build)
    with every workload profiled on *profiled* (by default *kernel*),
    booting through the snapshot store in directory *store* if given.

    kdelta profiles the base kernel for the edited kernel's harness:
    the base campaign assigned workloads from the base profile, and
    carried records match only if the delta run assigns the same.
    """
    from repro.injection.fabric import SnapshotStore
    from repro.injection.runner import InjectionHarness
    from repro.kernel.build import build_kernel
    from repro.profiling.sampler import profile_kernel
    from repro.userland.build import build_all_programs
    from repro.userland.programs import WORKLOADS
    if kernel is None:
        print("building kernel + profiling workloads...",
              file=sys.stderr)
        kernel = build_kernel()
    binaries = build_all_programs()
    profile = profile_kernel(profiled or kernel, binaries, WORKLOADS)
    return InjectionHarness(
        kernel, binaries, profile,
        snapshot_store=SnapshotStore(store) if store else None)


def add_model_options(parser):
    """Install the ``--model`` option group on an argparse parser."""
    group = parser.add_argument_group(
        "fault model",
        "inject through a pluggable fault model instead of the "
        "default instruction-stream flip")
    group.add_argument("--model", default=None, choices=MODEL_CHOICES,
                       help="fault model to arm at the trigger site "
                            "(default: plain instruction flip)")
    group.add_argument("--region", default="stack",
                       choices=MODELS["mem"].REGIONS,
                       help="mem model: region to corrupt (BYTE is "
                            "the offset into it, BIT the bit)")
    group.add_argument("--reg", default="eax", choices=REG_NAMES,
                       help="reg/reg_trap models: register to flip "
                            "(BIT selects the bit)")
    group.add_argument("--duration", type=int, default=1200,
                       help="intermittent model: cycles before the "
                            "corruption is restored")
    group.add_argument("--disk-fault", default="corrupt",
                       choices=MODELS["disk"].FAULTS,
                       help="disk model: controller fault to arm")
    group.add_argument("--ops", type=int, default=1,
                       help="disk transient fault: reads that fail "
                            "before the media recovers")


def fault_from_args(args):
    """The ``fault_model`` dict for the parsed CLI, or None."""
    if args.model is None:
        return None
    byte, bit = args.byte, args.bit
    if args.model == "instr":
        return {"kind": "instr", "v": 1, "bits": [[byte, bit]]}
    if args.model == "mem":
        return {"kind": "mem", "v": 1, "region": args.region,
                "offset": byte, "bits": [bit]}
    if args.model in ("reg", "reg_trap"):
        return {"kind": args.model, "v": 1,
                "reg": REG_NAMES.index(args.reg), "bit": bit}
    if args.model == "intermittent":
        return {"kind": "intermittent", "v": 1, "bits": [[byte, bit]],
                "duration": args.duration}
    return {"kind": "disk", "v": 1, "fault": args.disk_fault,
            "byte": byte, "bit": bit, "ops": args.ops}


def site_spec(info, target, fault, workload=None):
    """A one-off InjectionSpec for a CLI-selected trigger site."""
    return InjectionSpec(
        campaign="X", function=info.name, subsystem=info.subsystem,
        instr_addr=target, instr_len=1, byte_offset=0, bit=0,
        mnemonic="cli:%s" % fault["kind"], workload=workload,
        fault_model=fault)


class _HarnessShim:
    """The slice of InjectionHarness that FaultModel.arm consumes."""

    def __init__(self, kernel):
        self.kernel = kernel


def arm_fault(kernel, machine, spec, state):
    """Arm *spec*'s fault model on *machine*; returns the model."""
    model = resolve_model(spec)
    model.arm(_HarnessShim(kernel), machine, spec, state)
    return model
