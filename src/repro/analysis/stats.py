"""Aggregation of injection results into the paper's statistics."""

from collections import Counter, defaultdict

from repro.injection.outcomes import (
    CRASH_DUMPED,
    CRASH_HANG_OUTCOMES,
    CRASH_RECOVERED,
    CRASH_UNKNOWN,
    FAIL_SILENCE_VIOLATION,
    HANG,
    NOT_MANIFESTED,
    latency_bucket,
    LATENCY_BUCKETS,
)

SUBSYSTEM_ORDER = ("arch", "fs", "kernel", "mm")


def activation_stats(results):
    """(injected, activated) counts."""
    injected = len(results)
    activated = sum(1 for r in results if r.activated)
    return injected, activated


def subsystem_outcome_table(results):
    """Rows of the paper's Figure 4 left-hand tables.

    Returns a list of dicts per target subsystem (plus a Total row):
    injected, activated, not_manifested, fsv, crash_hang, and the number
    of distinct functions injected.
    """
    per = defaultdict(lambda: Counter())
    funcs = defaultdict(set)
    for result in results:
        row = per[result.subsystem]
        funcs[result.subsystem].add(result.function)
        row["injected"] += 1
        if not result.activated:
            continue
        row["activated"] += 1
        if result.outcome == NOT_MANIFESTED:
            row["not_manifested"] += 1
        elif result.outcome == FAIL_SILENCE_VIOLATION:
            row["fsv"] += 1
        elif result.outcome in CRASH_HANG_OUTCOMES:
            row["crash_hang"] += 1
    rows = []
    total = Counter()
    total_funcs = set()
    for name in SUBSYSTEM_ORDER:
        if name not in per and name not in funcs:
            continue
        row = dict(per[name])
        row["subsystem"] = name
        row["functions"] = len(funcs[name])
        rows.append(row)
        total.update(per[name])
        total_funcs.update((name, f) for f in funcs[name])
    total_row = dict(total)
    total_row["subsystem"] = "Total"
    total_row["functions"] = len(total_funcs)
    rows.append(total_row)
    return rows


def outcome_pie(results):
    """Overall distribution over activated errors (Figure 4 pies).

    Returns Counter over {not_manifested, fail_silence_violation,
    crash_dumped, crash_unknown, hang} plus key ``activated``.
    """
    pie = Counter()
    for result in results:
        if not result.activated:
            continue
        pie["activated"] += 1
        pie[result.outcome] += 1
    return pie


def crash_hang_count(results):
    """Total crash/hang outcomes (the paper's combined column)."""
    return sum(1 for r in results if r.outcome in CRASH_HANG_OUTCOMES)


def crash_cause_distribution(results, dumped_only=True):
    """Counter of crash causes (Figure 6).

    Recovered crashes carry a dump too, so they contribute their cause
    exactly like fatal dumped crashes.
    """
    causes = Counter()
    for result in results:
        if result.outcome in (CRASH_DUMPED, CRASH_RECOVERED) \
                and result.crash_cause:
            causes[result.crash_cause] += 1
        elif not dumped_only and result.outcome in (CRASH_UNKNOWN, HANG):
            causes["unknown"] += 1
    return causes


def latency_histogram(results, by_subsystem=False):
    """Histogram of dumped-crash latencies (Figure 7).

    Returns Counter of bucket label -> count, or, with *by_subsystem*,
    dict subsystem -> Counter.
    """
    if by_subsystem:
        out = defaultdict(Counter)
        for result in results:
            if result.outcome == CRASH_DUMPED and result.latency is not None:
                out[result.subsystem][latency_bucket(result.latency)] += 1
        return dict(out)
    histogram = Counter()
    for result in results:
        if result.outcome == CRASH_DUMPED and result.latency is not None:
            histogram[latency_bucket(result.latency)] += 1
    return histogram


def latency_fraction_within(results, cycles=10):
    """Fraction of dumped crashes within *cycles* of activation."""
    latencies = [r.latency for r in results
                 if r.outcome == CRASH_DUMPED and r.latency is not None]
    if not latencies:
        return 0.0
    return sum(1 for v in latencies if v < cycles) / len(latencies)


def per_function_crash_shares(results):
    """Per-subsystem: which functions produce the crashes (§6.1 finding).

    Returns dict subsystem -> list of (function, crashes, share).
    """
    per = defaultdict(Counter)
    for result in results:
        if result.outcome in CRASH_HANG_OUTCOMES:
            per[result.subsystem][result.function] += 1
    out = {}
    for subsystem, counter in per.items():
        total = sum(counter.values())
        out[subsystem] = [(name, count, count / total)
                          for name, count in counter.most_common()]
    return out


def latency_by_propagation(results):
    """Median crash latency, split by whether the crash escaped.

    §7.3 observes that long-latency crashes indicate propagation; this
    makes the link quantitative.  Returns
    ``{"contained": (n, median), "escaped": (n, median)}``.
    """
    contained = []
    escaped = []
    for result in results:
        if result.outcome != CRASH_DUMPED or result.latency is None:
            continue
        destination = result.crash_subsystem or "(wild)"
        if destination == result.subsystem:
            contained.append(result.latency)
        else:
            escaped.append(result.latency)

    def median(values):
        if not values:
            return None
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    return {"contained": (len(contained), median(contained)),
            "escaped": (len(escaped), median(escaped))}


def severity_counts(results):
    """Counter over severities of crashes (plus no-crash-but-damaged)."""
    counter = Counter()
    for result in results:
        if result.severity:
            counter[result.severity] += 1
    return counter


def most_severe_cases(results):
    """The paper's Table 5: every most-severe (reformat) case."""
    return [r for r in results if r.severity == "most_severe"]


def recovered_counts(results):
    """Counter over recovered sub-classes of CRASH_RECOVERED runs.

    Keys are the :data:`~repro.injection.outcomes.RECOVERED_CLASSES`
    labels; every recovered run has exactly one (the classifier always
    sets ``recovered_class``).
    """
    counter = Counter()
    for result in results:
        if result.outcome == CRASH_RECOVERED:
            counter[result.recovered_class] += 1
    return counter


def recovery_rate(results):
    """(activated, recovered, share): how many activated errors the
    recovery kernel contained by killing the task instead of halting.

    Share is recovered / activated (0.0 when nothing activated).
    """
    activated = sum(1 for r in results if r.activated)
    recovered = sum(1 for r in results if r.outcome == CRASH_RECOVERED)
    share = recovered / activated if activated else 0.0
    return activated, recovered, share


def bucket_labels():
    """The Figure 7 latency bucket labels, in order."""
    return [label for _, _, label in LATENCY_BUCKETS]
