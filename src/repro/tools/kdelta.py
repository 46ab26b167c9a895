#!/usr/bin/env python3
"""Diff two kernel builds and plan/run incremental delta campaigns.

    python3 -m repro.tools.kdelta diff --recovery [--json]
    python3 -m repro.tools.kdelta diff --edit UNIT OLD NEW [--json]
    python3 -m repro.tools.kdelta plan C --from J.jsonl --edit ... [opts]
    python3 -m repro.tools.kdelta run C --from J.jsonl --edit ... \\
        [--journal OUT.jsonl] [--save OUT.json] [opts]
    python3 -m repro.tools.kdelta equal A.json B.json

``diff`` rebuilds the kernel with the given source edits applied and
prints the function-level difference against the unedited build:
changed / moved / impacted name sets, the fingerprint-opaque count and
any global carry blockers (data-section change, added/removed
functions).  ``plan`` additionally loads a prior campaign journal (run
against the *unedited* kernel) and prints the delta plan — how many
records carry forward, how many sites stay live and why.  ``run``
executes the plan: carried records are pre-seeded into the new journal
with provenance and only the live remainder boots kernels; ``--save``
writes an ordinary ``CampaignResults`` JSON.  ``equal`` exits non-zero
unless two results files are bit-identical — the CI gate that a delta
run equals the from-scratch run.

Source edits come from ``--edit UNIT OLD NEW`` (repeatable, literal
substring replacement in one kernel unit) and/or ``--recovery``, the
canonical size-preserving rebuild that inverts the ``oops_recoverable``
gate (see :data:`repro.staticanalysis.delta.RECOVERY_GATE_EDIT`).
"""

import argparse
import json
import sys

from repro.staticanalysis.delta import (
    RECOVERY_GATE_EDIT,
    diff_kernels,
    plan_delta,
)
from repro.tools.faultcli import (
    add_campaign_options,
    build_harness,
    scale_params,
)


def _add_edit_options(parser):
    parser.add_argument("--edit", nargs=3, action="append",
                        metavar=("UNIT", "OLD", "NEW"),
                        help="apply one source edit (repeatable)")
    parser.add_argument("--recovery", action="store_true",
                        help="apply the canonical recovery-gate edit")


def _edits(args, parser):
    edits = [tuple(edit) for edit in (args.edit or [])]
    if args.recovery:
        edits.extend(RECOVERY_GATE_EDIT)
    if not edits:
        parser.error("no source edits: pass --edit UNIT OLD NEW "
                     "and/or --recovery")
    return tuple(edits)


def _add_plan_options(parser):
    add_campaign_options(parser)
    parser.add_argument("--from", dest="source", required=True,
                        metavar="JOURNAL",
                        help="prior campaign journal (run against the "
                             "unedited kernel)")
    _add_edit_options(parser)


def _build_kernels(edits):
    from repro.kernel.build import build_kernel
    print("building base + edited kernels...", file=sys.stderr)
    base = build_kernel()
    new = build_kernel(source_edits=edits)
    return base, new


def _print_diff(diff, as_json):
    summary = diff.summary()
    if as_json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
        return
    print("changed:   %s" % (", ".join(summary["changed"]) or "-"))
    print("moved:     %s" % (", ".join(summary["moved"]) or "-"))
    print("added:     %s" % (", ".join(summary["added"]) or "-"))
    print("removed:   %s" % (", ".join(summary["removed"]) or "-"))
    print("impacted:  %s" % (", ".join(summary["impacted"]) or "-"))
    print("unchanged: %d function(s), %d fingerprint-opaque"
          % (summary["unchanged"], summary["opaque"]))
    print("data:      %s" % ("CHANGED" if summary["data_changed"]
                             else "unchanged"))
    if summary["trap_impacted"]:
        print("trap path: %s" % ", ".join(summary["trap_impacted"]))
    for reason in summary["global_reasons"]:
        print("GLOBAL:    %s (nothing carries)" % reason)


def cmd_diff(args):
    edits = _edits(args, args.parser)
    base, new = _build_kernels(edits)
    diff = diff_kernels(base, new)
    _print_diff(diff, args.json)
    return 0 if not diff.global_reasons else 1


def _plan(args):
    edits = _edits(args, args.parser)
    base, new = _build_kernels(edits)
    harness = build_harness(new, profiled=base)
    stride, cap = scale_params(args)
    plan = plan_delta(harness, base, args.source, args.campaign,
                      seed=args.seed, byte_stride=stride,
                      max_specs=cap)
    return base, harness, plan, stride, cap


def _print_plan(plan, as_json):
    summary = plan.summary()
    if as_json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
        return
    print("campaign %s seed %d stride %d: %d specs"
          % (summary["campaign"], summary["seed"],
             summary["byte_stride"], summary["n_specs"]))
    print("carried %d, live %d (re-run fraction %.4f)"
          % (summary["carried"], summary["live"],
             summary["rerun_fraction"]))
    for reason, count in sorted(summary["reasons"].items()):
        print("  live because %-16s %4d" % (reason + ":", count))
    print("changed: %s" % (", ".join(summary["diff"]["changed"])
                           or "-"))


def cmd_plan(args):
    _, _, plan, _, _ = _plan(args)
    _print_plan(plan, args.json)
    return 0


def _progress(done, total, result):
    if done % 25 == 0 or done == total:
        print("  %d/%d (%s)" % (done, total, result.outcome),
              file=sys.stderr, flush=True)


def cmd_run(args):
    edits = _edits(args, args.parser)
    base, new = _build_kernels(edits)
    harness = build_harness(new, profiled=base)
    stride, cap = scale_params(args)
    results = harness.run_campaign(
        args.campaign, seed=args.seed, byte_stride=stride,
        max_specs=cap, jobs=args.jobs, journal_path=args.journal,
        progress=_progress, delta_from=args.source,
        delta_base_kernel=base)
    delta = results.meta["delta"]
    print("delta campaign %s: %d results, %d carried, %d live "
          "(re-run fraction %.4f), %d boots"
          % (args.campaign, len(results), delta["carried"],
             delta["live"], delta["rerun_fraction"], harness.boots))
    if args.save:
        results.save(args.save)
        print("results -> %s" % args.save, file=sys.stderr)
    return 0


def cmd_equal(args):
    from repro.tools.kfabric import cmd_equal as fabric_equal
    return fabric_equal(args)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser(
        "diff", help="fingerprint-diff the edited kernel")
    _add_edit_options(p_diff)
    p_diff.add_argument("--json", action="store_true")
    p_diff.set_defaults(func=cmd_diff)

    p_plan = sub.add_parser(
        "plan", help="print the carry/live split of a delta campaign")
    _add_plan_options(p_plan)
    p_plan.add_argument("--json", action="store_true")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser(
        "run", help="execute a delta campaign (live sites only)")
    _add_plan_options(p_run)
    p_run.add_argument("--journal", default=None,
                       help="delta journal path (carried records are "
                            "pre-seeded into it)")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--save", default=None,
                       help="write CampaignResults JSON")
    p_run.set_defaults(func=cmd_run)

    p_equal = sub.add_parser(
        "equal", help="gate two results files on bit-identity")
    p_equal.add_argument("first")
    p_equal.add_argument("second")
    p_equal.set_defaults(func=cmd_equal)

    args = parser.parse_args(argv)
    args.parser = parser
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
