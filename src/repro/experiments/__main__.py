"""Run the reproduction from the command line.

    python -m repro.experiments [scale] [output.md] [--results-dir DIR]
                                [--jobs N] [--resume]

Runs every exhibit at the chosen scale (tiny/quick/standard/full) and
writes the paper-vs-measured report.  ``--jobs`` runs the injection
campaigns in process-isolated parallel workers; ``--resume`` restarts
an interrupted campaign from its journal in the results directory.
"""

import argparse
import sys

from repro.experiments import ExperimentContext, build_report
from repro.experiments.comparison import build_comparison
from repro.experiments.context import SCALES
from repro.injection.engine import JournalMismatch


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", default="quick",
                        choices=sorted(SCALES))
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--results-dir", default="results",
                        help="campaign JSON cache directory")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel injection workers (default 1)")
    parser.add_argument("--resume", action="store_true",
                        help="resume interrupted campaigns from their "
                             "journals")
    args = parser.parse_args(argv)

    ctx = ExperimentContext(scale=args.scale, seed=args.seed,
                            verbose=True, results_dir=args.results_dir,
                            jobs=args.jobs, resume=args.resume)
    try:
        comparison = build_comparison(ctx)
        report = build_report(ctx)
    except JournalMismatch as exc:
        print("error: %s" % exc, file=sys.stderr)
        print("(the journal belongs to a different plan: delete it or "
              "rerun without --resume)", file=sys.stderr)
        return 2
    with open(args.output, "w") as fh:
        fh.write(comparison)
        fh.write("\n\n---\n\n")
        fh.write(report)
    print("wrote %s" % args.output, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
