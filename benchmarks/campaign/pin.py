#!/usr/bin/env python3
"""Characterize the benchmark's spec pools and pin their digests.

    PYTHONPATH=src python3 benchmarks/campaign/pin.py [--pins-only]

Runs every spec of each pool (see workloads.py) three times, serially,
under the interpreter — the repo's reference execution — each time on a
fresh harness, and writes ``pinned.json``:

* ``fields``: the result fields a digest covers;
* ``families``: per pool, one row per spec —
  ``[digest, guest program, outcome, cost in ms]``, where cost is the
  median of the three timed ``run_spec`` calls (golden runs and
  calibration are warmed first, so they are not in any spec's cost);
* ``pins``: the run digest and outcome census every workload must
  produce at seed 2003 and at the held-out seed, full and ``--smoke``.

The three repeats must agree on every digest, or nothing is written.
``--pins-only`` keeps the pool tables and recomputes the pins (after a
sample size changes).  Re-pin only for a change that is meant to alter
campaign results.  Takes about 25 minutes on a 2-core Xeon.
"""

import argparse
import json
import os
import re
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from workloads import (  # noqa: E402
    FAMILIES,
    HELD_OUT_SEED,
    PINNED_PATH,
    POOL_SEED,
    WORKLOADS,
    expected,
    load_pinned,
    pin_key,
    sample_indices,
    spec_digest,
)

REPEATS = 3


def characterize(family, kernel, binaries, profile, fields):
    """One timed serial pass over *family*'s pool.

    Returns ``[(digest, guest, outcome, seconds), ...]`` in plan order.
    """
    from repro.injection.runner import InjectionHarness
    harness = InjectionHarness(kernel, binaries, profile,
                               recovery=family.recovery)
    _, specs = harness.plan_specs(family.campaign, seed=POOL_SEED,
                                  byte_stride=family.byte_stride)
    for spec in specs:
        harness.assign_workload(spec)
    harness.crash_overhead()
    rows = []
    for spec in specs:
        start = time.perf_counter()
        result = harness.run_spec(spec).to_dict()
        seconds = time.perf_counter() - start
        rows.append((spec_digest(result, fields), result["workload"],
                     result["outcome"], seconds))
    return rows


def pool_table(family, kernel, binaries, profile, fields):
    passes = [characterize(family, kernel, binaries, profile, fields)
              for _ in range(REPEATS)]
    first = [row[:3] for row in passes[0]]
    for other in passes[1:]:
        if [row[:3] for row in other] != first:
            raise RuntimeError("pool %s is not deterministic across "
                               "repeats; refusing to pin" % family.key)
    entry = dict(family.params(), n_specs=len(first))
    entry["specs"] = [
        list(row) + [round(1000 * statistics.median(
            p[i][3] for p in passes))]
        for i, row in enumerate(first)]
    return entry


def pins(pinned):
    out = {}
    for workload in WORKLOADS.values():
        pool = pinned["families"][workload.family.key]
        out[workload.name] = {}
        for seed in (POOL_SEED, HELD_OUT_SEED):
            for smoke in (False, True):
                indices = sample_indices(pool, workload.sample_size(smoke),
                                         seed)
                digest, census = expected(pool, indices)
                out[workload.name][pin_key(seed, smoke)] = {
                    "digest": digest, "census": census}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pins-only", action="store_true")
    args = parser.parse_args(argv)
    if args.pins_only:
        pinned = load_pinned()
    else:
        from repro.injection.outcomes import InjectionResult
        from repro.kernel.build import build_kernel
        from repro.profiling.sampler import profile_kernel
        from repro.userland.build import build_all_programs
        from repro.userland.programs import WORKLOADS as GUESTS
        kernel = build_kernel()
        binaries = build_all_programs()
        profile = profile_kernel(kernel, binaries, GUESTS)
        fields = list(InjectionResult.__slots__)
        pinned = {"fields": fields, "families": {}}
        for family in FAMILIES.values():
            start = time.perf_counter()
            pinned["families"][family.key] = pool_table(
                family, kernel, binaries, profile, fields)
            print("pool %s: %d specs in %.0fs" % (
                family.key, pinned["families"][family.key]["n_specs"],
                time.perf_counter() - start), file=sys.stderr)
    pinned["pins"] = pins(pinned)
    text = json.dumps(pinned, indent=1, sort_keys=True)
    # One line per innermost list: a pool row, or the field names.
    text = re.sub(r"\[\n\s+([^\[\]{}]*?)\n\s+\]",
                  lambda m: "[%s]" % re.sub(r",\n\s+", ", ", m.group(1)),
                  text)
    with open(PINNED_PATH, "w") as fh:
        fh.write(text + "\n")
    print("wrote %s" % PINNED_PATH, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
