#!/usr/bin/env python3
"""Measure delta-campaign reuse on a one-function edit; emit BENCH_delta.json.

Runs the same seeded campaign slice three ways around a minimal,
size-preserving kernel source edit (one immediate in ``sys_stat`` —
a syscall no shipped workload ever issues):

* **base** — the campaign on the unedited kernel, journaled: the
  carry source;
* **scratch** — the full campaign on the rebuilt kernel (the cost a
  naive re-run pays);
* **delta** — the same campaign planned against the base journal:
  records the static differ proves unchanged are carried forward,
  only impacted sites boot kernels.

The acceptance criteria: the delta run must serialize
**bit-identically** to the from-scratch run (the benchmark refuses to
report timings otherwise), the re-run fraction must stay at or below
``--max-fraction`` (default 0.5), and the measured wall-clock speedup
of delta over scratch must be >= 1.

Run from the repo root::

    PYTHONPATH=src python3 benchmarks/bench_delta.py [--smoke]
        [--output PATH]
"""

import argparse
import json
import os
import sys
import tempfile
import time

#: The one-function edit: bump an immediate inside ``sys_stat``
#: (imm8 both before and after, so no function moves and the data
#: section is untouched).  ``sys_stat`` is reachable by no shipped
#: workload, so the execution-cone rules carry nearly everything.
SYS_STAT_EDIT = (
    ("fs/vfs+ext2.c",
     "put_user(buf_user + 8, nblocks);",
     "put_user(buf_user + 9, nblocks);"),
)


def run_benchmarks(campaign="C", seed=2003, stride=8, max_specs=None):
    from repro.injection.runner import InjectionHarness
    from repro.kernel.build import build_kernel
    from repro.profiling.sampler import profile_kernel
    from repro.userland.build import build_all_programs
    from repro.userland.programs import WORKLOADS

    kernel = build_kernel()
    binaries = build_all_programs()
    profile = profile_kernel(kernel, binaries, WORKLOADS)
    workdir = tempfile.mkdtemp(prefix="bench_delta_")
    base_journal = os.path.join(workdir, "base.journal.jsonl")

    record = {"tool": "bench_delta", "campaign": campaign,
              "seed": seed, "byte_stride": stride,
              "max_specs": max_specs,
              "edit": [list(edit) for edit in SYS_STAT_EDIT]}

    base_harness = InjectionHarness(kernel, binaries, profile)
    start = time.perf_counter()
    base = base_harness.run_campaign(campaign, seed=seed,
                                     byte_stride=stride,
                                     max_specs=max_specs,
                                     journal_path=base_journal)
    record["base_s"] = round(time.perf_counter() - start, 3)
    record["n_specs"] = len(base.results)

    new_kernel = build_kernel(source_edits=SYS_STAT_EDIT)

    scratch_harness = InjectionHarness(new_kernel, binaries, profile)
    start = time.perf_counter()
    scratch = scratch_harness.run_campaign(campaign, seed=seed,
                                           byte_stride=stride,
                                           max_specs=max_specs)
    record["scratch_s"] = round(time.perf_counter() - start, 3)
    record["boots_scratch"] = scratch_harness.boots
    baseline = [r.to_dict() for r in scratch.results]

    # Fresh harness: the delta run pays its own golden boots, so the
    # speedup below is end-to-end, not warm-cache flattery.
    delta_harness = InjectionHarness(new_kernel, binaries, profile)
    start = time.perf_counter()
    delta = delta_harness.run_campaign(
        campaign, seed=seed, byte_stride=stride, max_specs=max_specs,
        delta_from=base_journal, delta_base_kernel=kernel)
    record["delta_s"] = round(time.perf_counter() - start, 3)
    record["boots_delta"] = delta_harness.boots

    if [r.to_dict() for r in delta.results] != baseline:
        raise RuntimeError(
            "delta results are not bit-identical to from-scratch; "
            "refusing to report timings")

    plan = delta.meta["delta"]
    record["changed"] = plan["diff"]["changed"]
    record["carried"] = plan["carried"]
    record["live"] = plan["live"]
    record["rerun_fraction"] = plan["rerun_fraction"]
    record["live_reasons"] = plan["reasons"]
    record["speedup_delta_vs_scratch"] = round(
        record["scratch_s"] / record["delta_s"], 3)
    record["bit_identical"] = True
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_delta.json")
    parser.add_argument("--campaign", default="C")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--stride", type=int, default=8)
    parser.add_argument("--max-specs", type=int, default=None)
    parser.add_argument("--max-fraction", type=float, default=0.5,
                        help="re-run fraction floor enforced on exit")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller slice (CI)")
    args = parser.parse_args(argv)

    max_specs = 36 if args.smoke else args.max_specs
    record = run_benchmarks(campaign=args.campaign, seed=args.seed,
                            stride=args.stride, max_specs=max_specs)
    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    print("wrote %s" % args.output, file=sys.stderr)
    status = 0
    if record["rerun_fraction"] > args.max_fraction:
        print("GATE FAILED: re-run fraction %.4f exceeds %.2f"
              % (record["rerun_fraction"], args.max_fraction),
              file=sys.stderr)
        status = 1
    if record["speedup_delta_vs_scratch"] < 1.0:
        print("GATE FAILED: delta run slower than from-scratch "
              "(speedup %.3f)" % record["speedup_delta_vs_scratch"],
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
