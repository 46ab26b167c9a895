"""Flight-recorder divergence measurements vs static predictions.

The traced campaigns (:meth:`ExperimentContext.traced_campaign`) attach
the golden-vs-injected trace diff to every activated result: the first
architectural divergence after the flip, the empirical flip->divergence
and divergence->trap distances, and the ordered subsystem spread the
corrupted run touched.  This exhibit is the *dynamic ground truth* the
symbolic propagation analyzer (PR 4) is held against:

* **measurement coverage** — what share of activated crashes get a
  measured flip-to-divergence latency at all (the flight recorder's
  recall as an oracle);
* **static latency cross-check** — how often the trace-measured
  flip-to-trap distance falls inside the static ``[lo, hi]``
  instruction bound (the empirical counterpart of the
  ``static_propagation`` containment score);
* **spread cross-check** — how often the observed post-divergence
  subsystem spread intersects the statically reachable set;
* the empirical **propagation-distance distribution** (instructions
  from flip to first visible divergence) — the paper's Figure 7 axis
  re-measured at event granularity instead of from dump timestamps.

Tier-1 ``tests/test_static_exhibit.py::TestFsSliceGate`` scores the
fs slice of a tiny traced campaign A with :func:`score`: >= 95% of
dumped crashes must carry a measured flip-to-divergence latency, and
the trace-measured latency must fall within the static bounds at least
as often as the ``static_propagation`` containment requires (>= 70%).

Run standalone::

    python -m repro.experiments.trace_validation
"""

import argparse
import sys
from collections import Counter

from repro.injection.outcomes import (
    CRASH_DUMPED,
    LATENCY_BUCKETS,
    NOT_ACTIVATED,
    latency_bucket,
)
from repro.staticanalysis.propagation import (
    PropagationAnalyzer,
    WILD_SUBSYSTEM,
    latency_within_bounds,
)

DEFAULT_KEYS = ("A",)


def measured_flip_to_trap(result):
    """Trace-measured flip->trap distance in cycles, or ``None``.

    The sum of the two diff legs (flip->divergence plus
    divergence->trap); unlike ``result.latency`` it is measured from
    the event stream, not the dump timestamp, and is not
    crash-overhead corrected — :func:`latency_within_bounds` already
    allows trap-entry slack.
    """
    f2d = result.trace_flip_to_divergence_cycles
    d2t = result.trace_divergence_to_trap_cycles
    if f2d is None or d2t is None:
        return None
    return f2d + d2t


def _spread_hit(verdict, result):
    """Does the observed spread intersect the predicted reachable set?"""
    observed = set(result.trace_subsystems or ())
    if not observed:
        return False
    if WILD_SUBSYSTEM in verdict.subsystems:
        return True
    predicted = set(verdict.subsystems) | {result.subsystem}
    return bool(observed & predicted)


def study(ctx, keys=DEFAULT_KEYS):
    """Score the trace measurements against the static verdicts."""
    results = []
    for key in keys:
        results.extend(ctx.traced_campaign(key).results)
    digest = score(PropagationAnalyzer(ctx.kernel), results)
    digest["keys"] = list(keys)
    return digest


def score(analyzer, results):
    """Score the trace measurements of traced *results* against their
    static verdicts; returns the digest :func:`run` renders."""
    activated = [r for r in results if r.outcome != NOT_ACTIVATED]
    diverged = [r for r in activated if r.trace_diverged]
    crashed = [r for r in activated if r.outcome == CRASH_DUMPED]
    measured = [r for r in crashed
                if r.trace_flip_to_divergence_cycles is not None]

    verdicts = {
        id(r): analyzer.analyze_site(r.function, r.addr, r.byte_offset,
                                     r.bit)
        for r in crashed
    }
    timed = [(verdicts[id(r)], r, measured_flip_to_trap(r))
             for r in crashed
             if measured_flip_to_trap(r) is not None]
    latency_hits = sum(
        1 for v, r, cycles in timed
        if latency_within_bounds(cycles, v.latency_lo, v.latency_hi))
    spread_scored = [r for r in crashed if r.trace_subsystems]
    spread_hits = sum(1 for r in spread_scored
                      if _spread_hit(verdicts[id(r)], r))

    # Empirical Figure 7 at event granularity: instructions from flip
    # to first visible divergence, bucketed on the paper's axis.
    distance_hist = Counter()
    for r in diverged:
        instrs = r.trace_flip_to_divergence_instrs
        if instrs is not None:
            distance_hist[latency_bucket(instrs)] += 1

    spread_sizes = sorted(len(r.trace_subsystems or ())
                          for r in diverged)
    complete = sum(1 for r in activated if r.trace_complete)

    return {
        "total": len(results),
        "activated": len(activated),
        "diverged": len(diverged),
        "crashed": len(crashed),
        "measured": len(measured),
        "timed": len(timed),
        "latency_hits": latency_hits,
        "spread_scored": len(spread_scored),
        "spread_hits": spread_hits,
        "distance_hist": dict(distance_hist),
        "median_spread": (spread_sizes[len(spread_sizes) // 2]
                          if spread_sizes else 0),
        "complete": complete,
    }


def _rate(hits, total):
    return "-" if not total else "%d/%d (%.0f%%)" % (hits, total,
                                                     100 * hits / total)


def run(ctx, keys=DEFAULT_KEYS):
    digest = study(ctx, keys=keys)
    lines = ["Flight-recorder divergence vs static predictions"
             " (campaigns %s, %d injections)"
             % ("+".join(digest["keys"]), digest["total"])]
    lines.append("")
    lines.append("  activated runs that visibly diverged:            %s"
                 % _rate(digest["diverged"], digest["activated"]))
    lines.append("  dumped crashes with measured flip->divergence:   %s"
                 % _rate(digest["measured"], digest["crashed"]))
    lines.append("  trace latency inside static [lo, hi] bound:      %s"
                 % _rate(digest["latency_hits"], digest["timed"]))
    lines.append("  observed spread intersects predicted reachable:  %s"
                 % _rate(digest["spread_hits"], digest["spread_scored"]))
    lines.append("  complete traces (no ring wrap):                  %s"
                 % _rate(digest["complete"], digest["activated"]))
    lines.append("  median post-divergence spread: %d subsystems"
                 % digest["median_spread"])
    lines.append("")
    lines.append("Flip -> first-divergence distance (instructions,"
                 " paper Figure 7 axis):")
    hist = digest["distance_hist"]
    total = sum(hist.values()) or 1
    for _, _, label in LATENCY_BUCKETS:
        count = hist.get(label, 0)
        bar = "#" * int(round(40 * count / total))
        lines.append("  %-8s %5d  %s" % (label, count, bar))
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
