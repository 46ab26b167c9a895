#!/usr/bin/env python3
"""Compare two campaign-benchmark records.

    python3 benchmarks/campaign/compare.py A.json B.json

*A* and *B* are ``run.py --repeat N --out FILE`` records, *A* the
parent.  For every end-to-end metric and workload it prints each side's
median and quartiles and a verdict, using the bounds of BENCHMARK.json:

* ``unresolved`` — a side's spread (quartile distance over median)
  exceeds the bound, unless every B run reads better (``better``) or
  worse (``worse``) than every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own spread and B
  wins at least nine tenths of the run pairs (runs paired in order);
* ``unchanged`` — otherwise.

Per-layer metrics present in both records get medians, no verdict.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Verdict of B against A for one metric (see module docstring)."""
    sign = 1 if better == "higher" else -1
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread = max(spread_a, (qb[2] - qb[0]) / qb[1])
    gain = sign * (qb[1] - qa[1]) / qa[1]
    if spread > bound:
        if min(sign * x for x in b) > max(sign * y for y in a):
            return "better"
        if max(sign * x for x in b) < min(sign * y for y in a):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y > sign * x)
    if gain > spread_a and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def samples(record, source):
    """{(workload, metric): [values in run order]}."""
    out = {}
    for run in record["runs"]:
        for metric, value in run.get(source, {}).items():
            if value is not None:
                out.setdefault((run["workload"], metric), []).append(value)
    return out


def compare(a, b, spec):
    """Rows of (workload, metric, unit, A quartiles, B quartiles,
    verdict) for every metric both records measured."""
    rows = []
    sources = (("metrics", spec["end_to_end"]),
               ("per_layer", spec["per_layer"]))
    for source, declared in sources:
        sa, sb = samples(a, source), samples(b, source)
        for workload in sorted({w for w, _ in sa}):
            for metric in declared:
                key = (workload, metric["name"])
                if key not in sa or key not in sb:
                    continue
                result = "-"
                if "bound" in metric:
                    result = verdict(sa[key], sb[key], metric["better"],
                                     metric["bound"])
                rows.append((workload, metric["name"], metric["unit"],
                             quartiles(sa[key]), quartiles(sb[key]),
                             result))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    print("%-22s %-24s %-6s %-30s %-30s %s" % (
        "workload", "metric", "unit", "A median [q1, q3]",
        "B median [q1, q3]", "verdict"))
    for workload, metric, unit, qa, qb, result in compare(
            records[0], records[1], spec):
        print("%-22s %-24s %-6s %-30s %-30s %s" % (
            workload, metric, unit,
            "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
            "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]), result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
