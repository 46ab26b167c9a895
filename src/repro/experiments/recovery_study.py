"""Recovery-kernel study: fail-stop vs oops-kill-continue (§7.1 ext.).

The paper's availability ladder (watchdog reboot / fsck / reformat)
prices every crash at minutes of downtime because the measured kernel
is fail-stop: any kernel oops halts the machine.  This exhibit re-runs
the injection campaigns against the *recovery* kernel — exception
fixup on user accesses, oops-kill-continue, in-kernel soft-lockup
watchdog — and measures how many of those crashes the kernel survives
by killing the offending task instead, and what that does to the
downtime bill.

Run standalone::

    python -m repro.experiments.recovery_study

Tier-1 ``tests/test_recovery.py::TestRecoveryCampaign::
test_fs_campaign_has_recovered_share`` checks that the recovery kernel
survives at least one crash of a campaign-A fs slice.
"""

import argparse
import sys

from repro.analysis.availability import allowed_failures_per_year
from repro.analysis.stats import recovered_counts, recovery_rate
from repro.injection.outcomes import (
    CRASH_HANG_OUTCOMES,
    CRASH_RECOVERED,
    RECOVERED_CLASSES,
    RECOVERED_LATER_CRASH,
)
from repro.injection.severity import (
    RECOVERED_DOWNTIME,
    SEVERITY_DOWNTIME,
    SEVERITY_NORMAL,
)

DEFAULT_KEYS = ("A", "B", "C")


def baseline_downtime(result):
    """Downtime (s) a fail-stop crash/hang event costs (§7.1 ladder)."""
    severity = result.severity or SEVERITY_NORMAL
    return SEVERITY_DOWNTIME[severity]


def recovered_downtime(result):
    """Downtime (s) charged to a CRASH_RECOVERED run.

    A recovered oops whose disk survived intact costs only the task
    restart (:data:`RECOVERED_DOWNTIME`).  Severe/most-severe damage
    still pays the full ladder price, as does a run that recovered once
    and then went down anyway (*later crash*): the machine rebooted in
    the end, so recovery bought nothing but log lines.
    """
    severity = result.severity or SEVERITY_NORMAL
    if result.recovered_class == RECOVERED_LATER_CRASH:
        return SEVERITY_DOWNTIME[severity]
    if severity != SEVERITY_NORMAL:
        return SEVERITY_DOWNTIME[severity]
    return RECOVERED_DOWNTIME


def study(ctx, keys=DEFAULT_KEYS):
    """Run baseline + recovery campaigns; return the measured digest.

    Returns a dict with one entry per campaign plus ``total``:
    activated counts, crash/hang counts, recovered share, sub-class
    distribution, and the mean downtime per crash event under the
    fail-stop and recovery kernels.
    """
    out = {"campaigns": {}, "keys": list(keys)}
    total = {
        "activated": 0, "crash_hang": 0, "recovered": 0,
        "classes": {name: 0 for name in RECOVERED_CLASSES},
        "baseline_downtime": 0, "baseline_events": 0,
        "recovery_downtime": 0, "recovery_events": 0,
    }
    for key in keys:
        base = ctx.campaign(key).results
        rec = ctx.recovery_campaign(key).results
        base_events = [r for r in base
                       if r.outcome in CRASH_HANG_OUTCOMES]
        rec_events = [r for r in rec
                      if r.outcome in CRASH_HANG_OUTCOMES]
        activated, recovered, _ = recovery_rate(rec)
        classes = recovered_counts(rec)
        entry = {
            "activated": activated,
            "baseline_crash_hang": len(base_events),
            "recovery_crash_hang": len(rec_events),
            "recovered": recovered,
            # Containment rate: share of crash/hang events the kernel
            # survived (not share of all activated errors).
            "recovered_share": (recovered / len(rec_events)
                                if rec_events else 0.0),
            "classes": {name: classes.get(name, 0)
                        for name in RECOVERED_CLASSES},
            "baseline_downtime": sum(baseline_downtime(r)
                                     for r in base_events),
            "recovery_downtime": sum(
                recovered_downtime(r) if r.outcome == CRASH_RECOVERED
                else baseline_downtime(r) for r in rec_events),
        }
        out["campaigns"][key] = entry
        total["activated"] += activated
        total["crash_hang"] += len(rec_events)
        total["recovered"] += recovered
        for name in RECOVERED_CLASSES:
            total["classes"][name] += entry["classes"][name]
        total["baseline_downtime"] += entry["baseline_downtime"]
        total["baseline_events"] += len(base_events)
        total["recovery_downtime"] += entry["recovery_downtime"]
        total["recovery_events"] += len(rec_events)
    total["recovered_share"] = (total["recovered"] / total["crash_hang"]
                                if total["crash_hang"] else 0.0)
    total["baseline_mean_downtime"] = (
        total["baseline_downtime"] / total["baseline_events"]
        if total["baseline_events"] else 0.0)
    total["recovery_mean_downtime"] = (
        total["recovery_downtime"] / total["recovery_events"]
        if total["recovery_events"] else 0.0)
    out["total"] = total
    return out


def measured_recovery(ctx, keys=DEFAULT_KEYS):
    """(recovered share of crash events, mean recovery-mode downtime).

    The hook the §7.1 availability model uses for its "with kernel
    recovery" scenario row.
    """
    total = study(ctx, keys=keys)["total"]
    return total["recovered_share"], total["recovery_mean_downtime"]


def run(ctx, keys=DEFAULT_KEYS):
    digest = study(ctx, keys=keys)
    total = digest["total"]
    lines = ["Recovery study: fail-stop kernel vs recovery kernel"
             " (campaigns %s)" % "+".join(keys)]
    lines.append("")
    lines.append("  campaign  crash/hang(base)  crash/hang(rec)"
                 "  recovered  share")
    for key in keys:
        entry = digest["campaigns"][key]
        lines.append("  %-8s  %16d  %15d  %9d  %4.0f%%"
                     % (key, entry["baseline_crash_hang"],
                        entry["recovery_crash_hang"],
                        entry["recovered"],
                        100 * entry["recovered_share"]))
    lines.append("")
    lines.append("Recovered sub-classes (of %d recovered runs):"
                 % total["recovered"])
    for name in RECOVERED_CLASSES:
        count = total["classes"][name]
        share = count / total["recovered"] if total["recovered"] else 0.0
        lines.append("  %-28s %4d  (%.0f%%)" % (name, count, 100 * share))
    lines.append("")
    lines.append("Downtime bill over the crash/hang population:")
    lines.append("  fail-stop kernel: %6d s over %d events"
                 " (mean %.0f s/event)"
                 % (total["baseline_downtime"], total["baseline_events"],
                    total["baseline_mean_downtime"]))
    lines.append("  recovery kernel:  %6d s over %d events"
                 " (mean %.0f s/event)"
                 % (total["recovery_downtime"], total["recovery_events"],
                    total["recovery_mean_downtime"]))
    saved = total["baseline_downtime"] - total["recovery_downtime"]
    if total["baseline_downtime"]:
        lines.append("  recovery saves %d s (%.0f%% of the bill)"
                     % (saved,
                        100 * saved / total["baseline_downtime"]))
    if total["recovery_mean_downtime"] > 0:
        per_year = allowed_failures_per_year(
            0.99999, total["recovery_mean_downtime"])
        lines.append("")
        lines.append("At five nines, the recovery kernel's mean %.0f s"
                     "/event allows %.1f crash events/yr"
                     % (total["recovery_mean_downtime"], per_year))
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
