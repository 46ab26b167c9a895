#!/usr/bin/env python3
"""Plan, run, merge and compare distributed campaign shards.

    python3 -m repro.tools.kfabric plan A [--shards N] [options]
    python3 -m repro.tools.kfabric run A --shard i/N --journal P [opts]
    python3 -m repro.tools.kfabric merge J1 J2 ... [--save OUT] [opts]
    python3 -m repro.tools.kfabric campaign A [--shards N] [options]
    python3 -m repro.tools.kfabric equal A.json B.json

``plan`` prints the deterministic shard table of a campaign plan —
every participating host computes the identical table from (campaign,
seed, stride, cap), so the shard fingerprint is the only coordination
needed.  ``run --shard i/N`` executes exactly one shard and appends to
its journal (resumable: rerunning a killed shard picks up where the
journal ends), which is the unit a CI matrix or ``parallel kfabric run
A --shard {}/8 ::: $(seq 0 7)`` distributes.  ``merge`` combines shard
journals exactly-once into a canonical campaign journal and/or a
results JSON; ``campaign`` does plan + pooled run + merge in one
process via the crash-tolerant coordinator; ``equal`` exits non-zero
unless two results files are bit-identical (the CI gate).

``--store DIR`` points any command at a shared boot-snapshot store so
a kernel/workload pair boots once per store, not once per shard.
"""

import argparse
import json
import sys

from repro.injection.fabric import (
    FabricConfig,
    FabricCoordinator,
    MergeError,
    merge_shard_journals,
    plan_shards,
    run_shard,
)
from repro.injection.engine import plan_fingerprint
from repro.injection.runner import CampaignResults
from repro.tools.faultcli import (
    add_campaign_options,
    build_harness,
    scale_params,
)


def _add_plan_options(parser):
    add_campaign_options(parser)
    parser.add_argument("--store", default=None,
                        help="boot-snapshot store directory (shared "
                             "across shards: one boot per "
                             "kernel/workload pair)")


def _parse_shard(text, parser):
    try:
        index, count = text.split("/")
        index, count = int(index), int(count)
    except ValueError:
        parser.error("--shard wants i/N (e.g. 0/3), not %r" % text)
    if not 0 <= index < count:
        parser.error("shard index %d outside 0..%d" % (index, count - 1))
    return index, count


def _plan(harness, args):
    stride, cap = scale_params(args)
    functions, specs = harness.plan_specs(
        args.campaign, seed=args.seed, byte_stride=stride,
        max_specs=cap)
    plan_fp = plan_fingerprint(args.campaign, specs, args.seed, stride)
    return specs, stride, plan_fp


def _progress(done, total, result):
    if done % 25 == 0 or done == total:
        print("  %d/%d (%s)" % (done, total, result.outcome),
              file=sys.stderr, flush=True)


def _save_results(path, campaign, results, seed, stride, plan_fp,
                  extra_meta=None):
    meta = {"campaign": campaign, "seed": seed, "byte_stride": stride,
            "injected": len(results), "fingerprint": plan_fp}
    if extra_meta:
        meta.update(extra_meta)
    CampaignResults(campaign, results, meta).save(path)
    print("results -> %s" % path, file=sys.stderr)


def cmd_plan(args):
    harness = build_harness(store=args.store)
    specs, stride, plan_fp = _plan(harness, args)
    shards = plan_shards(plan_fp, len(specs), args.shards)
    if args.json:
        json.dump({
            "campaign": args.campaign, "seed": args.seed,
            "byte_stride": stride, "n_specs": len(specs),
            "plan_fingerprint": plan_fp,
            "shards": [{"shard": "%d/%d" % (s.index, s.count),
                        "fingerprint": s.fingerprint,
                        "n_specs": len(s.indices)} for s in shards],
        }, sys.stdout, indent=2)
        print()
        return 0
    print("campaign %s seed %d stride %d: %d specs, plan %s"
          % (args.campaign, args.seed, stride, len(specs), plan_fp))
    for shard in shards:
        print("  shard %d/%d  %s  %4d specs"
              % (shard.index, shard.count, shard.fingerprint,
                 len(shard.indices)))
    return 0


def cmd_run(args):
    index, count = _parse_shard(args.shard, args.parser)
    harness = build_harness(store=args.store)
    specs, stride, plan_fp = _plan(harness, args)
    shard = plan_shards(plan_fp, len(specs), count)[index]
    print("shard %d/%d of plan %s: %d of %d specs -> %s"
          % (index, count, plan_fp, len(shard.indices), len(specs),
             args.journal), file=sys.stderr)
    results, meta = run_shard(
        harness, args.campaign, specs, args.seed, stride, shard,
        args.journal, jobs=args.jobs, resume=not args.fresh,
        progress=_progress)
    print("shard done: %d results (%d resumed, %d boots)"
          % (len(results), meta.get("resumed_results", 0),
             harness.boots), file=sys.stderr)
    if args.save:
        if count != 1:
            args.parser.error("--save wants the full campaign; only "
                              "--shard 0/1 runs produce one")
        _save_results(args.save, args.campaign, results, args.seed,
                      stride, plan_fp, extra_meta={"engine": meta})
    return 0


def cmd_merge(args):
    try:
        merged = merge_shard_journals(args.journals)
    except MergeError as exc:
        print("merge FAILED: %s" % exc, file=sys.stderr)
        return 1
    print("merged %d journal(s): plan %s, %d/%d results, "
          "%d replayed record(s) deduplicated"
          % (merged.journals, merged.plan_fingerprint,
             len(merged.results), merged.n_specs, merged.replayed))
    if merged.missing:
        preview = ", ".join(map(str, merged.missing[:8]))
        print("missing %d indices (%s%s)"
              % (len(merged.missing), preview,
                 ", ..." if len(merged.missing) > 8 else ""))
    if args.out:
        merged.write_journal(args.out)
        print("canonical journal -> %s" % args.out, file=sys.stderr)
    if args.save:
        try:
            ordered = merged.ordered()
        except MergeError as exc:
            print("merge FAILED: %s" % exc, file=sys.stderr)
            return 1
        _save_results(args.save, merged.campaign, ordered,
                      merged.seed, None, merged.plan_fingerprint,
                      extra_meta={"replayed": merged.replayed,
                                  "journals": merged.journals})
    if args.expect_complete and merged.missing:
        return 1
    return 0


def cmd_campaign(args):
    harness = build_harness(store=args.store)
    stride, cap = scale_params(args)
    config = FabricConfig(pool=args.pool, chaos_kills=args.chaos,
                          chaos_seed=args.seed,
                          lease_timeout=args.lease_timeout)
    coordinator = FabricCoordinator(harness, config)
    results = coordinator.run_campaign(
        args.campaign, seed=args.seed, byte_stride=stride,
        max_specs=cap, shard_count=args.shards, workdir=args.workdir)
    engine = results.meta["engine"]
    print("campaign %s via fabric: %d results, %d shards, pool %d, "
          "%d worker failure(s), %d stolen, %d boots"
          % (args.campaign, len(results), args.shards, args.pool,
             engine["worker_failures"], engine["stolen_shards"],
             harness.boots))
    if args.save:
        results.save(args.save)
        print("results -> %s" % args.save, file=sys.stderr)
    return 0


def cmd_equal(args):
    first = CampaignResults.load(args.first)
    second = CampaignResults.load(args.second)
    a = [r.to_dict() for r in first.results]
    b = [r.to_dict() for r in second.results]
    if a == b:
        print("identical: %d results" % len(a))
        return 0
    if len(a) != len(b):
        print("DIFFER: %d vs %d results" % (len(a), len(b)))
        return 1
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            fields = sorted(k for k in left
                            if left.get(k) != right.get(k))
            print("DIFFER: first at index %d (fields: %s)"
                  % (index, ", ".join(fields)))
            break
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print the shard table")
    _add_plan_options(p_plan)
    p_plan.add_argument("--shards", type=int, default=3)
    p_plan.add_argument("--json", action="store_true")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run one shard of a campaign")
    _add_plan_options(p_run)
    p_run.add_argument("--shard", required=True, metavar="i/N",
                       help="which slice of the plan to run")
    p_run.add_argument("--journal", required=True,
                       help="shard journal path (appended/resumed)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel workers inside the shard")
    p_run.add_argument("--fresh", action="store_true",
                       help="overwrite the journal instead of resuming")
    p_run.add_argument("--save", default=None,
                       help="write CampaignResults JSON (0/1 only)")
    p_run.set_defaults(func=cmd_run)

    p_merge = sub.add_parser("merge",
                             help="merge shard journals exactly-once")
    p_merge.add_argument("journals", nargs="+")
    p_merge.add_argument("--out", default=None,
                         help="write the canonical merged journal")
    p_merge.add_argument("--save", default=None,
                         help="write CampaignResults JSON (complete "
                              "merges only)")
    p_merge.add_argument("--expect-complete", action="store_true",
                         help="exit non-zero if any index is missing")
    p_merge.set_defaults(func=cmd_merge)

    p_campaign = sub.add_parser(
        "campaign", help="plan + pooled run + merge in one process")
    _add_plan_options(p_campaign)
    p_campaign.add_argument("--shards", type=int, default=3)
    p_campaign.add_argument("--pool", type=int, default=2)
    p_campaign.add_argument("--chaos", type=int, default=0,
                            help="SIGKILL this many shard workers "
                                 "mid-run (they are retried)")
    p_campaign.add_argument("--lease-timeout", type=float,
                            default=120.0)
    p_campaign.add_argument("--workdir", required=True,
                            help="shard journal/heartbeat directory")
    p_campaign.add_argument("--save", default=None,
                            help="write CampaignResults JSON")
    p_campaign.set_defaults(func=cmd_campaign)

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
