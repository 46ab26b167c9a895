#!/usr/bin/env python3
"""Annotate a crash by re-running one injection (ksymoops equivalent).

    python3 -m repro.tools.ksymoops FUNCTION BYTE BIT [--workload W]

Re-runs a single-bit injection against the named kernel function (bit
BIT of byte BYTE of its first instruction, or use --addr-offset to pick
another instruction) and prints the fully symbolized oops report:
registers, the corrupted code listing, the call-trace guess, a TRACE
section with the last branches the flight recorder saw before the
oops (LBR-style; disable with --no-trace), and a STATIC section
comparing the symbolic error-propagation verdict (predicted trap
classes and latency bounds) against what actually happened.

``--model`` swaps the instruction flip for any pluggable fault model
(memory state, register, register-at-trap, intermittent, disk); the
dump is then annotated with the delivered fault, e.g.
``FAULT: reg flip edx bit 17 @ trap entry``.
"""

import argparse
import sys

from repro.analysis.oops import annotate_crash, static_verdict_section
from repro.injection.runner import BOOT_MARKER, InjectionHarness
from repro.kernel.build import build_kernel
from repro.machine.machine import Machine, build_standard_disk
from repro.profiling.sampler import profile_kernel
from repro.tools.faultcli import add_model_options, arm_fault, \
    fault_from_args, site_spec
from repro.userland.build import build_all_programs
from repro.userland.programs import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("function")
    parser.add_argument("byte", type=int)
    parser.add_argument("bit", type=int)
    parser.add_argument("--addr-offset", type=int, default=0,
                        help="offset from the function start")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--recovery", action="store_true",
                        help="boot a recovery kernel (oops kills the "
                             "task and the machine runs on; every dump "
                             "is annotated, recovered ones marked)")
    parser.add_argument("--no-cfg", action="store_true",
                        help="omit the faulting basic block / CFG "
                             "predecessor annotation")
    parser.add_argument("--no-static", action="store_true",
                        help="omit the predicted-vs-actual static "
                             "verdict section")
    parser.add_argument("--no-trace", action="store_true",
                        help="run without the flight recorder (omits "
                             "the TRACE branch-history section)")
    parser.add_argument("--trace-depth", type=int, default=8,
                        help="branches to show in the TRACE section "
                             "(default 8)")
    add_model_options(parser)
    args = parser.parse_args(argv)

    kernel = build_kernel()
    binaries = build_all_programs()
    info = next((f for f in kernel.functions
                 if f.name == args.function), None)
    if info is None:
        parser.error("unknown kernel function %r" % args.function)

    workload = args.workload
    if workload is None:
        profile = profile_kernel(kernel, binaries, WORKLOADS)
        harness = InjectionHarness(kernel, binaries, profile)
        workload = harness.workload_priority(args.function)[0]
    print("driving workload: %s" % workload, file=sys.stderr)

    machine = Machine(kernel, build_standard_disk(binaries, workload))
    if args.recovery:
        machine.enable_recovery()
    machine.run_until_console(BOOT_MARKER)
    if not args.no_trace:
        # A bounded ring is plenty for last-N branch history and keeps
        # long runs cheap.
        machine.enable_trace(capacity=4096)
    target = info.start + args.addr_offset

    flip_state = {}
    fault_line = None
    fault = fault_from_args(args)
    if fault is None:
        def flip(m):
            flip_state["tsc"] = m.cpu.cycles
            m.flip_bit(target + args.byte, args.bit)

        machine.arm_breakpoint(target, flip)
    else:
        spec = site_spec(info, target, fault, workload=workload)
        model = arm_fault(kernel, machine, spec, flip_state)
        fault_line = model.describe(spec)
        print("%s (trigger: %s+%#x)"
              % (fault_line, args.function, args.addr_offset),
              file=sys.stderr)
    # The static pre-classifier reasons about instruction-stream
    # corruption only; other models have no prediction to compare.
    want_static = not args.no_static and args.model in (None, "instr")
    result = machine.run(max_cycles=60_000_000)
    print("run status: %s (exit %r)" % (result.status, result.exit_code))
    if fault is not None and "tsc" not in flip_state:
        print("note: fault never delivered (not activated)")
    if not result.crashes:
        print("no crash dump recorded; console tail:")
        print(result.console[-400:])
        if want_static:
            print("STATIC (no crash to compare):")
            for line in static_verdict_section(
                    kernel, args.function, target, args.byte,
                    args.bit):
                print("  " + line)
        return 1
    for index, crash in enumerate(result.crashes):
        if index:
            print()
        print(annotate_crash(kernel, crash, machine=machine,
                             cfg_context=not args.no_cfg,
                             trace=result.trace,
                             trace_depth=args.trace_depth))
        if fault_line is not None:
            print(fault_line)
        if want_static:
            latency = None
            if flip_state.get("tsc") is not None:
                latency = max(0, crash.tsc - flip_state["tsc"])
            print("STATIC:")
            for line in static_verdict_section(
                    kernel, args.function, target, args.byte,
                    args.bit, crash=crash, latency=latency):
                print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
