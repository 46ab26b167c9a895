"""Delta-campaign equivalence: carried-forward vs from-scratch.

The delta planner (:mod:`repro.staticanalysis.delta`) promises that a
campaign re-run after a kernel rebuild can carry forward every journal
record the static differ proves unchanged and still come out
**bit-identical** to running the whole campaign from scratch on the
new kernel.  This exhibit exercises the promise on the canonical
rebuild the rest of the repo cares about — inverting the
``oops_recoverable`` gate (:data:`RECOVERY_GATE_EDIT`), a
size-preserving one-function edit sitting squarely on the trap path:

* **base** — the campaign slice on the unedited kernel, journaled;
* **delta** — the same slice planned against the rebuilt kernel with
  the base journal as carry source: carried records are pre-seeded
  with provenance, only live sites boot kernels;
* **scratch** — the same slice on the rebuilt kernel with no carry.

Because the edit changes trap delivery, most *activated* records go
live again ("trap-path") — the interesting measurement here is not
the re-run fraction (tier-1
``tests/test_delta_campaign.py::test_cold_path_delta_reruns_little``
gates that on a cold-path edit) but that the split is *sound*:
whatever the planner dares to carry, the merged results must
serialize identically to the from-scratch run.  Tier-1
``tests/test_delta_campaign.py::test_recovery_delta_equals_scratch``
checks exactly that on this edit, with at least one site live and
every carried record stamped with provenance, and
``test_delta_composes_with_enrichment`` checks that one is carried.

Run standalone::

    python -m repro.experiments.delta_validation
"""

import argparse
import os
import sys
import tempfile

from repro.injection.runner import InjectionHarness
from repro.staticanalysis.delta import RECOVERY_GATE_EDIT

DEFAULT_KEY = "A"

#: Contexts whose scale has no preset (the report's stub context) get
#: a minimal slice, (byte stride, max specs): equivalence is proved on
#: a handful of injections.
_FALLBACK_SLICE = (40, 9)


def _result_dicts(results):
    return [r.to_dict() for r in results]


def study(ctx, key=DEFAULT_KEY, source_edits=RECOVERY_GATE_EDIT,
          workdir=None):
    """Run base, delta and scratch; returns a digest."""
    from repro.experiments.context import SCALES
    from repro.kernel.build import build_kernel
    stride, max_specs = SCALES.get(ctx.scale, {}).get(key,
                                                      _FALLBACK_SLICE)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="delta_validation_")

    # 1. Base campaign on the unedited kernel, journaled — the carry
    #    source.
    base_journal = os.path.join(workdir, "base.journal.jsonl")
    base_harness = InjectionHarness(ctx.kernel, ctx.binaries,
                                    ctx.profile)
    base = base_harness.run_campaign(key, seed=ctx.seed,
                                     byte_stride=stride,
                                     max_specs=max_specs,
                                     journal_path=base_journal)

    # 2. The rebuild: same sources with the edit applied.
    new_kernel = build_kernel(source_edits=source_edits)
    new_harness = InjectionHarness(new_kernel, ctx.binaries,
                                   ctx.profile)

    # 3. Delta run: carried records pre-seeded, live remainder boots.
    delta = new_harness.run_campaign(
        key, seed=ctx.seed, byte_stride=stride, max_specs=max_specs,
        journal_path=os.path.join(workdir, "delta.journal.jsonl"),
        delta_from=base_journal, delta_base_kernel=ctx.kernel)

    # 4. Scratch run: the ground truth on the rebuilt kernel.
    scratch = new_harness.run_campaign(key, seed=ctx.seed,
                                       byte_stride=stride,
                                       max_specs=max_specs)

    plan = delta.meta["delta"]
    stamped = carried_provenance(
        os.path.join(workdir, "delta.journal.jsonl"))
    return {
        "key": key,
        "n_specs": len(scratch.results),
        "changed": plan["diff"]["changed"],
        "trap_impacted": plan["diff"]["trap_impacted"],
        "carried": plan["carried"],
        "live": plan["live"],
        "rerun_fraction": plan["rerun_fraction"],
        "reasons": plan["reasons"],
        "provenance_stamped": stamped,
        "identical": _result_dicts(delta.results)
                     == _result_dicts(scratch.results),
        "base_outcomes": _pie(base.results),
        "delta_outcomes": _pie(delta.results),
    }


def _pie(results):
    from collections import Counter
    return dict(Counter(r.outcome for r in results))


def carried_provenance(journal_path):
    """Count journal records carrying a well-formed provenance block."""
    import json
    wanted = ("source_journal", "base_kernel", "new_kernel")
    count = 0
    with open(journal_path) as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            carried = record.get("carried")
            if carried and all(carried.get(k) for k in wanted):
                count += 1
    return count


def _verdict(flag):
    return "identical" if flag else "DIVERGED"


def run(ctx, key=DEFAULT_KEY):
    digest = study(ctx, key=key)
    lines = ["Delta-campaign equivalence (campaign %s, %d injections,"
             " recovery-gate rebuild)" % (digest["key"],
                                          digest["n_specs"])]
    lines.append("")
    lines.append("  changed function(s): %s"
                 % (", ".join(digest["changed"]) or "none"))
    lines.append("  carried %d record(s), re-ran %d "
                 "(re-run fraction %.4f)"
                 % (digest["carried"], digest["live"],
                    digest["rerun_fraction"]))
    for reason, count in sorted(digest["reasons"].items()):
        lines.append("    live because %-16s %4d"
                     % (reason + ":", count))
    lines.append("")
    lines.append("  delta vs from-scratch: %s"
                 % _verdict(digest["identical"]))
    lines.append("  carried records stamped with provenance: %d"
                 % digest["provenance_stamped"])
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
