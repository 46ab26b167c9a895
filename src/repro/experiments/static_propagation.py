"""Symbolic error-propagation verdicts vs dynamic outcomes.

The propagation analyzer (:mod:`repro.staticanalysis.propagation`)
predicts, for every campaign site, a *trap set* (which exception
classes the corruption can raise), a *crash-latency bound* in
instructions along the shortest/longest corrupted paths, and the
*reachable subsystem set* the corruption can spread to.  This exhibit
cross-tabulates those symbolic verdicts against the measured campaign
outcomes — the static counterparts of the paper's Figure 7 (crash
latency) and Figure 8 (cross-subsystem propagation):

* **trap containment** — among dumped crashes, how often the actual
  trap class (page fault, GPF, invalid opcode, divide error) is inside
  the predicted set;
* **latency containment** — among crashes with a measured
  activation-to-crash latency, how often it falls inside the static
  ``[lower, upper]`` instruction bound (lower bound is cycle-safe:
  every instruction costs at least one cycle; the upper bound allows
  the worst-case cycles-per-instruction plus trap-entry slack);
* **spread containment** — among attributable crashes, how often the
  crashing subsystem is inside the statically reachable set;
* per-trap-class **precision/recall** over dumped crashes;
* the predicted-silent share of the plan (sites the solver proves can
  only fail silently — candidates for deprioritization).

Tier-1 ``tests/test_static_exhibit.py::TestFsSliceGate`` scores the
fs slice of a tiny campaign A with :func:`score`: >= 80% of dumped fs
crashes must have their actual trap class within the predicted set,
and >= 70% of crashes with a measured latency must fall inside the
static bound.

Run standalone::

    python -m repro.experiments.static_propagation
"""

import argparse
import sys
from collections import Counter

from repro.injection.outcomes import CRASH_DUMPED, NOT_ACTIVATED
from repro.staticanalysis.propagation import (
    PropagationAnalyzer,
    SiteVerdict,
    TRAP_NONE,
    WILD_SUBSYSTEM,
    latency_within_bounds,
    trap_of_cause,
)

DEFAULT_KEYS = ("A", "B", "C")

#: Trap classes scored individually (TRAP_NONE has no crash to score).
_SCORED_TRAPS = ("page_fault", "gpf", "invalid_opcode", "divide_error")


def verdict_for(analyzer, result):
    """The static verdict for a result's site.

    Plans run with ``--static-verdicts`` record the prediction on the
    result itself; anything else (including cached campaigns) is
    scored post-hoc from the site coordinates every result carries —
    both paths go through the same solver, so the verdicts agree.
    """
    if result.pred_traps is not None:
        return SiteVerdict(
            result.pred_seed or "unknown", result.pred_traps,
            result.pred_latency_lo, result.pred_latency_hi,
            result.pred_subsystems or (), False)
    return analyzer.analyze_site(result.function, result.addr,
                                 result.byte_offset, result.bit)


def _trap_hit(verdict, result):
    """Is the crash's actual trap class inside the predicted set?

    Causes outside the static vocabulary (``kernel_panic`` reached via
    a sanity check, watchdog-detected hangs) map to ``other`` and count
    as contained — the solver claims which *hardware traps* can fire,
    not which software checks might trip first.
    """
    actual = trap_of_cause(result.crash_cause)
    return actual == "other" or actual in verdict.traps


def _spread_hit(verdict, result):
    """Is the crashing subsystem inside the reachable set?

    A predicted wild jump can land anywhere, so ``(wild)`` in the
    reachable set covers every destination.
    """
    if WILD_SUBSYSTEM in verdict.subsystems:
        return True
    destination = result.crash_subsystem or WILD_SUBSYSTEM
    return (destination in verdict.subsystems
            or destination == result.subsystem)


def study(ctx, keys=DEFAULT_KEYS):
    """Score the static verdicts against the campaigns' outcomes."""
    results = []
    for key in keys:
        results.extend(ctx.campaign(key).results)
    digest = score(PropagationAnalyzer(ctx.kernel), results)
    digest["keys"] = list(keys)
    return digest


def score(analyzer, results):
    """Score the static verdict of each of *results* against its
    outcome; returns the digest :func:`run` renders."""
    pairs = [(verdict_for(analyzer, r), r) for r in results]
    crashed = [(v, r) for v, r in pairs if r.outcome == CRASH_DUMPED]
    trap_hits = sum(1 for v, r in crashed if _trap_hit(v, r))
    timed = [(v, r) for v, r in crashed if r.latency is not None]
    latency_hits = sum(
        1 for v, r in timed
        if latency_within_bounds(r.latency, v.latency_lo, v.latency_hi))
    attributable = [(v, r) for v, r in crashed
                    if r.crash_subsystem is not None]
    spread_hits = sum(1 for v, r in attributable if _spread_hit(v, r))

    # Static Figure 7: predicted trap set vs actual crash cause.
    crosstab = {}
    for verdict, result in crashed:
        signature = "|".join(sorted(verdict.traps)) or "(empty)"
        crosstab.setdefault(signature, Counter())[
            result.crash_cause or "?"] += 1

    scores = {}
    for trap in _SCORED_TRAPS:
        claimed = [r for v, r in crashed if trap in v.traps]
        actual = [r for v, r in crashed
                  if trap_of_cause(r.crash_cause) == trap]
        hits = sum(1 for r in claimed
                   if trap_of_cause(r.crash_cause) == trap)
        scores[trap] = {
            "claimed": len(claimed),
            "actual": len(actual),
            "precision": hits / len(claimed) if claimed else None,
            "recall": hits / len(actual) if actual else None,
        }

    activated = [(v, r) for v, r in pairs if r.outcome != NOT_ACTIVATED]
    silent_only = [(v, r) for v, r in activated
                   if v.traps == frozenset((TRAP_NONE,))]
    silent_ok = sum(1 for v, r in silent_only
                    if r.outcome != CRASH_DUMPED)
    bounded = sum(1 for v, _ in pairs if v.latency_hi is not None)

    return {
        "total": len(pairs),
        "crashed": len(crashed),
        "trap_hits": trap_hits,
        "timed": len(timed),
        "latency_hits": latency_hits,
        "attributable": len(attributable),
        "spread_hits": spread_hits,
        "crosstab": crosstab,
        "scores": scores,
        "silent_claimed": len(silent_only),
        "silent_ok": silent_ok,
        "bounded_share": bounded / len(pairs) if pairs else 0.0,
    }


def _rate(hits, total):
    return "-" if not total else "%d/%d (%.0f%%)" % (hits, total,
                                                     100 * hits / total)


def run(ctx, keys=DEFAULT_KEYS):
    digest = study(ctx, keys=keys)
    lines = ["Symbolic propagation verdicts vs dynamic outcomes"
             " (campaigns %s, %d injections)"
             % ("+".join(digest["keys"]), digest["total"])]
    lines.append("")
    lines.append("  trap containment (crash class in predicted set): %s"
                 % _rate(digest["trap_hits"], digest["crashed"]))
    lines.append("  latency containment (measured in static bound):  %s"
                 % _rate(digest["latency_hits"], digest["timed"]))
    lines.append("  spread containment (crash subsystem reachable):  %s"
                 % _rate(digest["spread_hits"], digest["attributable"]))
    lines.append("  predicted silent-only holding (no crash dump):   %s"
                 % _rate(digest["silent_ok"], digest["silent_claimed"]))
    lines.append("  sites with a finite latency upper bound:         "
                 "%.1f%%" % (100 * digest["bounded_share"]))
    lines.append("")

    causes = sorted({c for row in digest["crosstab"].values()
                     for c in row})
    if causes:
        lines.append("Predicted trap set vs actual crash cause"
                     " (static Figure 7):")
        header = "  %-34s" % "predicted traps" + "".join(
            "  %10s" % c.replace("_", " ")[:10] for c in causes)
        lines.append(header)
        for signature in sorted(digest["crosstab"]):
            row = digest["crosstab"][signature]
            lines.append("  %-34s" % signature[:34] + "".join(
                "  %10d" % row.get(c, 0) for c in causes))
        lines.append("")

    lines.append("Per-trap-class scores over dumped crashes:")
    lines.append("  %-16s %8s %8s %10s %10s"
                 % ("trap class", "claimed", "actual", "precision",
                    "recall"))
    for trap in _SCORED_TRAPS:
        score = digest["scores"][trap]
        lines.append("  %-16s %8d %8d %10s %10s" % (
            trap, score["claimed"], score["actual"],
            "-" if score["precision"] is None
            else "%.2f" % score["precision"],
            "-" if score["recall"] is None
            else "%.2f" % score["recall"]))
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
