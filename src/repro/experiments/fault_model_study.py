"""Fault-model study: outcome profiles across pluggable fault models.

The paper's campaigns flip single instruction-stream bits; this
exhibit runs the fault-model framework
(:mod:`repro.injection.faultmodels`) and cross-tabulates, per model —
memory-state flips, register-at-trap flips, intermittent multi-bit
flips, and device-level disk faults — the activation rate, outcome
distribution and fsck severity, all on the shared plan / inject /
classify / journal pipeline so the distributions are directly
comparable with campaigns A-C.

The disk model additionally runs the **graceful-degradation
ablation**: the same fault plan against the fail-stop kernel, a
kernel whose IDE driver retries with backoff (``disk_retries``), and
the recovery (oops-kill-continue) kernel, pricing each rung's
downtime.

Run standalone::

    python -m repro.experiments.fault_model_study

Tier-1 checks that every model activates
(``tests/test_fault_models.py::TestEndToEnd``) and that serial,
parallel and resumed runs are bit-identical
(``tests/test_injection_determinism.py::TestFaultModelDeterminism``).
"""

import argparse
import sys
from collections import Counter

from repro.experiments.recovery_study import (
    baseline_downtime,
    recovered_downtime,
)
from repro.injection.outcomes import (
    CRASH_HANG_OUTCOMES,
    CRASH_RECOVERED,
    FAIL_SILENCE_VIOLATION,
    OUTCOME_ORDER,
)

DEFAULT_KINDS = ("mem", "reg_trap", "intermittent", "disk")

#: The graceful-degradation rungs the disk model is ablated over.
ABLATION_VARIANTS = (("", "fail-stop"), ("retry", "driver retry"),
                     ("recovery", "recovery kernel"))


def _digest(results, variant=""):
    """Cross-tab one campaign's results."""
    activated = [r for r in results if r.activated]
    events = [r for r in results if r.outcome in CRASH_HANG_OUTCOMES]
    downtime = 0
    for result in events:
        if variant == "recovery" and result.outcome == CRASH_RECOVERED:
            downtime += recovered_downtime(result)
        else:
            downtime += baseline_downtime(result)
    return {
        "injected": len(results),
        "activated": len(activated),
        "activation_rate": (len(activated) / len(results)
                            if results else 0.0),
        "outcomes": dict(Counter(r.outcome for r in results)),
        "severity": dict(Counter(r.severity for r in activated
                                 if r.severity)),
        "fs_status": dict(Counter(r.fs_status for r in activated
                                  if r.fs_status)),
        "crash_hang": len(events),
        "downtime": downtime,
        "mean_downtime": downtime / len(events) if events else 0.0,
    }


def study(ctx, kinds=DEFAULT_KINDS):
    """Run every fault-model campaign; return the measured digest."""
    out = {"kinds": list(kinds), "models": {}, "ablation": {}}
    for kind in kinds:
        results = ctx.fault_campaign(kind).results
        out["models"][kind] = _digest(results)
    if "disk" in kinds:
        for variant, label in ABLATION_VARIANTS:
            results = ctx.fault_campaign("disk", variant).results
            out["ablation"][label] = _digest(results, variant=variant)
    return out


def availability_rows(ctx, kinds=DEFAULT_KINDS):
    """Per-fault-model rows for the §7.1 availability model.

    Returns ``[(label, mean_downtime_s, crash_hang_events), ...]`` —
    the mean downtime a crash/hang event under each fault model costs
    on the fail-stop kernel, plus the disk model's retry and recovery
    ablation rungs.
    """
    digest = study(ctx, kinds=kinds)
    rows = []
    for kind in kinds:
        entry = digest["models"][kind]
        rows.append(("%s faults" % kind, entry["mean_downtime"],
                     entry["crash_hang"]))
    for variant, label in ABLATION_VARIANTS[1:]:
        entry = digest["ablation"].get(label)
        if entry:
            rows.append(("disk faults, %s" % label,
                         entry["mean_downtime"], entry["crash_hang"]))
    return rows


def run(ctx, kinds=DEFAULT_KINDS):
    digest = study(ctx, kinds=kinds)
    lines = ["Fault-model study: outcome profiles per fault model"]
    lines.append("")
    lines.append("  model         inject  activ  act%   "
                 + "  ".join("%-5.5s" % o for o in OUTCOME_ORDER))
    for kind in kinds:
        entry = digest["models"][kind]
        outcomes = entry["outcomes"]
        lines.append("  %-12s  %6d  %5d  %3.0f%%   %s"
                     % (kind, entry["injected"], entry["activated"],
                        100 * entry["activation_rate"],
                        "  ".join("%5d" % outcomes.get(o, 0)
                                  for o in OUTCOME_ORDER)))
    lines.append("")
    lines.append("fsck severity over activated runs:")
    for kind in kinds:
        entry = digest["models"][kind]
        severity = entry["severity"] or {}
        fs_status = entry["fs_status"] or {}
        lines.append("  %-12s  severity %s   fsck %s"
                     % (kind,
                        dict(sorted(severity.items())) or "{}",
                        dict(sorted(fs_status.items())) or "{}"))
    if digest["ablation"]:
        lines.append("")
        lines.append("Graceful degradation (disk-fault plan, three"
                     " rungs):")
        lines.append("  rung             crash/hang  downtime"
                     "  mean s/event")
        for _variant, label in ABLATION_VARIANTS:
            entry = digest["ablation"][label]
            lines.append("  %-15s  %10d  %7ds  %11.0f"
                         % (label, entry["crash_hang"],
                            entry["downtime"], entry["mean_downtime"]))
        fail_stop = digest["ablation"]["fail-stop"]
        retry = digest["ablation"]["driver retry"]
        masked = fail_stop["crash_hang"] - retry["crash_hang"]
        fsv = FAIL_SILENCE_VIOLATION
        fsv_delta = (fail_stop["outcomes"].get(fsv, 0)
                     - retry["outcomes"].get(fsv, 0))
        lines.append("  driver retry masks %d crash/hang event(s) and"
                     " %d fail-silence violation(s) of the fail-stop"
                     " rung" % (max(0, masked), max(0, fsv_delta)))
    return "\n".join(lines)


def main(argv=None):
    from repro.experiments.context import SCALES, ExperimentContext
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--results-dir", default=None,
                        help="campaign JSON cache directory")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    ctx = ExperimentContext(scale=args.scale, seed=args.seed,
                            results_dir=args.results_dir,
                            verbose=True, jobs=args.jobs)
    print(run(ctx))
    return 0


if __name__ == "__main__":
    sys.exit(main())
