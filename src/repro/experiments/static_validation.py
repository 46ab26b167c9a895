"""Static pre-classifier vs dynamic campaign outcomes (validation).

The static-analysis layer (:mod:`repro.staticanalysis`) predicts, for
every campaign site ``(instruction, byte, bit)``, what the flip will do
before any machine boots.  This exhibit cross-tabulates those
predictions against the *measured* outcomes of campaigns A/B/C and
reports per-class precision/recall, answering the engineering question
the paper's §6 raises implicitly: how much of a fault-injection
campaign's budget is spent learning what a compiler-grade analysis
already knows?

Each prediction class makes a falsifiable claim about activated runs:

=====================  =============================================
Prediction             Claim (among activated injections)
=====================  =============================================
PRED_DEAD              benign: outcome is NOT_MANIFESTED
PRED_INVALID_OPCODE    crash whose cause is *invalid opcode*
PRED_LENGTH_CHANGE     manifested (anything but NOT_MANIFESTED)
PRED_BRANCH_REVERSAL   manifested (wrong path taken)
PRED_UNKNOWN           none (reported, not scored)
=====================  =============================================

PRED_DEAD is the load-bearing one — ``--prune-dead`` drops those sites
from the plan — so tier-1 ``tests/test_static_predict.py::
TestDynamicValidation::test_predicted_dead_sites_do_not_manifest`` runs
a slice of covered predicted-dead fs sites (:func:`dead_slice_specs`)
through the real harness and fails unless at least 5 of them activate
and >= 90% of the activated runs are NOT_MANIFESTED.

Run standalone::

    python -m repro.experiments.static_validation
"""

import argparse
import sys
from collections import Counter

from repro.injection.campaigns import InjectionSpec
from repro.injection.outcomes import (
    CAUSE_INVALID_OPCODE,
    NOT_ACTIVATED,
    NOT_MANIFESTED,
    OUTCOME_ORDER,
)
from repro.staticanalysis.predict import (
    PRED_BRANCH_REVERSAL,
    PRED_CLASSES,
    PRED_DEAD,
    PRED_INVALID_OPCODE,
    PRED_LENGTH_CHANGE,
    PRED_UNKNOWN,
    PreClassifier,
)

DEFAULT_KEYS = ("A", "B", "C")


def _claim_holds(pred, result):
    """Does *result* (an activated run) satisfy *pred*'s claim?"""
    if pred == PRED_DEAD:
        return result.outcome == NOT_MANIFESTED
    if pred == PRED_INVALID_OPCODE:
        return result.crash_cause == CAUSE_INVALID_OPCODE
    if pred in (PRED_LENGTH_CHANGE, PRED_BRANCH_REVERSAL):
        return result.outcome != NOT_MANIFESTED
    return None                      # PRED_UNKNOWN makes no claim


def _positive(pred, result):
    """Does *result* belong to *pred*'s positive set (recall basis)?"""
    return _claim_holds(pred, result)


def classify_results(kernel, results):
    """Attach a prediction to every result; returns [(pred, result)].

    Results planned with ``preclassify`` already carry ``pred_class``;
    older cached campaigns are classified post-hoc from the site
    coordinates every result records.
    """
    pre = PreClassifier(kernel)
    out = []
    for result in results:
        pred = result.pred_class
        if pred is None:
            pred = pre.classify_site(result.function, result.addr,
                                     result.byte_offset, result.bit)
        out.append((pred, result))
    return out


def study(ctx, keys=DEFAULT_KEYS):
    """Cross-tabulate predictions vs outcomes over the campaigns.

    Returns a dict with the crosstab (prediction -> outcome counter),
    per-class precision/recall over activated runs, and the share of
    the campaign a static pass could have skipped or front-loaded.
    """
    merged = []
    for key in keys:
        merged.extend(ctx.campaign(key).results)
    pairs = classify_results(ctx.kernel, merged)

    crosstab = {pred: Counter() for pred in PRED_CLASSES}
    for pred, result in pairs:
        crosstab[pred][result.outcome] += 1

    activated = [(pred, r) for pred, r in pairs
                 if r.outcome != NOT_ACTIVATED]
    scores = {}
    for pred in PRED_CLASSES:
        if pred == PRED_UNKNOWN:
            continue
        claimed = [r for p, r in activated if p == pred]
        hits = sum(1 for r in claimed if _claim_holds(pred, r))
        positives = sum(1 for p, r in activated if _positive(pred, r))
        found = sum(1 for p, r in activated
                    if p == pred and _positive(pred, r))
        scores[pred] = {
            "claimed": len(claimed),
            "precision": hits / len(claimed) if claimed else None,
            "positives": positives,
            "recall": found / positives if positives else None,
        }

    total = len(pairs)
    dead = sum(1 for p, _ in pairs if p == PRED_DEAD)
    bounded = sum(1 for p, _ in pairs if p != PRED_UNKNOWN)
    return {
        "keys": list(keys),
        "total": total,
        "crosstab": crosstab,
        "scores": scores,
        "skippable_share": dead / total if total else 0.0,
        "bounded_share": bounded / total if total else 0.0,
    }


def dead_slice_specs(ctx, subsystem="fs", limit=10):
    """Covered, predicted-dead injection specs from *subsystem*.

    A random campaign slice can easily contain zero activated
    PRED_DEAD sites (they are ~0.3% of the space), so this enumerates
    them directly: walk the subsystem's instructions,
    classify every (byte, bit), and keep the dead sites the golden
    coverage says will actually execute.
    """
    kernel = ctx.kernel
    harness = ctx.harness
    pre = PreClassifier(kernel)
    specs = []
    for info in sorted(kernel.functions, key=lambda f: f.start):
        if info.subsystem != subsystem:
            continue
        _, _, instrs, _ = pre._function_state(info.name)
        for addr in sorted(instrs):
            ins = instrs[addr]
            for byte_offset in range(ins.length):
                for bit in range(8):
                    pred = pre.classify_site(info.name, addr,
                                             byte_offset, bit)
                    if pred != PRED_DEAD:
                        continue
                    spec = InjectionSpec(
                        campaign="static", function=info.name,
                        subsystem=info.subsystem, instr_addr=addr,
                        instr_len=ins.length, byte_offset=byte_offset,
                        bit=bit, mnemonic=ins.op,
                        pred_class=PRED_DEAD)
                    if harness.assign_workload(spec):
                        specs.append(spec)
                        if len(specs) >= limit:
                            return specs
    return specs


def run(ctx, keys=DEFAULT_KEYS):
    digest = study(ctx, keys=keys)
    lines = ["Static pre-classifier vs dynamic outcomes"
             " (campaigns %s, %d injections)"
             % ("+".join(keys), digest["total"])]
    lines.append("")

    outcomes = [o for o in OUTCOME_ORDER
                if any(digest["crosstab"][p].get(o)
                       for p in PRED_CLASSES)]
    header = "  %-22s" % "prediction" + "".join(
        "  %12s" % o.replace("_", " ")[:12] for o in outcomes)
    lines.append(header)
    for pred in PRED_CLASSES:
        row = digest["crosstab"][pred]
        if not row:
            continue
        lines.append("  %-22s" % pred + "".join(
            "  %12d" % row.get(o, 0) for o in outcomes))
    lines.append("")

    lines.append("Per-class scores over activated runs"
                 " (claim in module docstring):")
    lines.append("  %-22s %8s %10s %10s" % ("prediction", "claimed",
                                            "precision", "recall"))
    for pred, score in digest["scores"].items():
        lines.append("  %-22s %8d %10s %10s" % (
            pred, score["claimed"],
            "-" if score["precision"] is None
            else "%.2f" % score["precision"],
            "-" if score["recall"] is None
            else "%.2f" % score["recall"]))
    lines.append("")
    lines.append("Campaign budget a static pass bounds: %.1f%%"
                 " (prunable as provably dead: %.1f%%)"
                 % (100 * digest["bounded_share"],
                    100 * digest["skippable_share"]))
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
