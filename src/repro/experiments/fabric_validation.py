"""Fabric equivalence: serial vs N-shard vs chaos-killed shards.

The campaign fabric (:mod:`repro.injection.fabric`) promises that *how*
a campaign executes never leaks into *what* it measures: the same
seeded plan run on one host, split across N content-addressed shards,
or run with shard workers SIGKILLed mid-run and retried must come out
**bit-identical** once the shard journals are merged.  This exhibit
executes the same campaign slice three ways and diffs the serialized
results:

* **serial baseline** — the plain one-process engine (PR 1);
* **N-shard fabric** — :class:`~repro.injection.fabric.FabricCoordinator`
  dispatching shards to a local pool, merging their journals;
* **chaos** — the same fabric with chaos mode armed: a seeded pick of
  shard workers SIGKILL themselves right after fsyncing a journal
  record, forcing lease revocation, retry-with-resume and the merger's
  replay handling to all fire on the critical path.

It also scores the boot-snapshot store: the serial baseline boots the
kernel per workload, the cold fabric run boots once per pair and
freezes the state, and the chaos run — warm store — must boot **zero**
times (`harness.boots == 0`), which is the acceptance criterion's
"boot executed once per kernel/workload pair, not once per shard".

Tier-1 holds each of these properties:
``tests/test_fabric.py::TestCoordinator`` checks fabric == serial and
chaos == serial with a real SIGKILL and worker failure, and
``tests/test_golden_builders.py::test_cold_store_fabric_builds_on_pool_cores``
checks that a warm-store fabric run boots nothing.

Run standalone::

    python -m repro.experiments.fabric_validation
"""

import argparse
import os
import sys
import tempfile

from repro.injection.fabric import (
    FabricConfig,
    FabricCoordinator,
    SnapshotStore,
)
from repro.injection.runner import InjectionHarness

DEFAULT_KEY = "A"
DEFAULT_SHARDS = 3

#: Contexts whose scale has no preset (the report's stub context) get
#: a minimal slice, (byte stride, max specs): the exhibit still proves
#: three-way equivalence, just on a handful of injections.
_FALLBACK_SLICE = (40, 9)


def _result_dicts(results):
    return [r.to_dict() for r in results]


def study(ctx, key=DEFAULT_KEY, shards=DEFAULT_SHARDS, chaos_kills=1,
          pool=2, workdir=None):
    """Run the three-way equivalence experiment; returns a digest."""
    from repro.experiments.context import SCALES
    stride, max_specs = SCALES.get(ctx.scale, {}).get(key,
                                                      _FALLBACK_SLICE)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="fabric_validation_")
    store = SnapshotStore(os.path.join(workdir, "snapshots"))

    # 1. Serial baseline: the plain engine, no fabric, no store.
    serial_harness = InjectionHarness(ctx.kernel, ctx.binaries,
                                      ctx.profile)
    serial = serial_harness.run_campaign(key, seed=ctx.seed,
                                         byte_stride=stride,
                                         max_specs=max_specs)
    baseline = _result_dicts(serial.results)

    # 2. N-shard fabric, cold store: boots once per workload pair and
    #    freezes the post-boot state for everyone after it.
    fabric_harness = InjectionHarness(ctx.kernel, ctx.binaries,
                                      ctx.profile, snapshot_store=store)
    coordinator = FabricCoordinator(
        fabric_harness, FabricConfig(pool=pool))
    fabric = coordinator.run_campaign(
        key, seed=ctx.seed, byte_stride=stride, max_specs=max_specs,
        shard_count=shards, workdir=os.path.join(workdir, "cold"))

    # 3. Chaos run, warm store: SIGKILL shard workers mid-run, retry
    #    and resume their journals; zero boots anywhere.
    chaos_harness = InjectionHarness(ctx.kernel, ctx.binaries,
                                     ctx.profile, snapshot_store=store)
    chaos_coordinator = FabricCoordinator(
        chaos_harness, FabricConfig(pool=pool, chaos_kills=chaos_kills,
                                    chaos_seed=ctx.seed))
    chaos = chaos_coordinator.run_campaign(
        key, seed=ctx.seed, byte_stride=stride, max_specs=max_specs,
        shard_count=shards, workdir=os.path.join(workdir, "chaos"))

    fabric_meta = fabric.meta["engine"]
    chaos_meta = chaos.meta["engine"]
    return {
        "key": key,
        "shards": shards,
        "n_specs": len(serial.results),
        "plan_fingerprint": serial.meta["fingerprint"],
        "fabric_identical": _result_dicts(fabric.results) == baseline,
        "chaos_identical": _result_dicts(chaos.results) == baseline,
        "serial_boots": serial_harness.boots,
        "fabric_boots": fabric_harness.boots,
        "chaos_boots": chaos_harness.boots,
        "store_entries": store.misses,
        "chaos_killed": chaos_meta["chaos_killed"],
        "chaos_worker_failures": chaos_meta["worker_failures"],
        "chaos_stolen": chaos_meta["stolen_shards"],
        "fabric_mode": fabric_meta["mode"],
        "serial_completions": (fabric_meta["serial_completions"]
                               + chaos_meta["serial_completions"]),
    }


def _verdict(flag):
    return "identical" if flag else "DIVERGED"


def run(ctx, key=DEFAULT_KEY, shards=DEFAULT_SHARDS):
    digest = study(ctx, key=key, shards=shards)
    lines = ["Campaign fabric equivalence (campaign %s, %d injections,"
             " %d shards, plan %s)"
             % (digest["key"], digest["n_specs"], digest["shards"],
                digest["plan_fingerprint"])]
    lines.append("")
    lines.append("  serial vs %d-shard fabric:          %s"
                 % (digest["shards"],
                    _verdict(digest["fabric_identical"])))
    lines.append("  serial vs chaos (SIGKILL + retry):  %s"
                 % _verdict(digest["chaos_identical"]))
    lines.append("  chaos shards killed: %s (%d worker failures, "
                 "%d shards stolen/resumed)"
                 % (digest["chaos_killed"] or "none",
                    digest["chaos_worker_failures"],
                    digest["chaos_stolen"]))
    lines.append("")
    lines.append("Boot-snapshot store (kernel boots per run):")
    lines.append("  serial (no store):   %d" % digest["serial_boots"])
    lines.append("  fabric (cold store): %d  -> %d entr%s frozen"
                 % (digest["fabric_boots"], digest["store_entries"],
                    "y" if digest["store_entries"] == 1 else "ies"))
    lines.append("  chaos (warm store):  %d" % digest["chaos_boots"])
    return "\n".join(lines)


def main(argv=None):
    from repro.experiments.context import SCALES, ExperimentContext
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--results-dir", default=None,
                        help="campaign JSON cache directory")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    ctx = ExperimentContext(scale=args.scale, seed=args.seed,
                            results_dir=args.results_dir,
                            verbose=True, jobs=args.jobs)
    print(run(ctx, shards=args.shards))
    return 0


if __name__ == "__main__":
    sys.exit(main())
