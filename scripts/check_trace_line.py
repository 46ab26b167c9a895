#!/usr/bin/env python3
"""Check the result line of a traced campaign-benchmark run.

    python3 benchmarks/campaign/run.py --smoke --trace 1 | tee trace.txt
    python3 scripts/check_trace_line.py trace.txt

The last line of the run's standard output must parse as strict JSON
(no ``NaN`` or ``Infinity``), report ``correct``, and hold every
``per_layer`` metric that BENCHMARK.json declares as a finite number
for each of its workloads (key ``<workload>/<metric>``).  A metric reads
``null`` when the layer it measures lost its wrap target, and the run
still exits 0, so this check is what catches it.  Exits 1 and names
every failure otherwise.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reject(constant):
    raise ValueError("non-finite number %s" % constant)


def check(line, spec, workloads):
    """Failure messages for the result *line* (empty when it passes)."""
    try:
        result = json.loads(line, parse_constant=_reject)
    except ValueError as exc:
        return ["last line is not strict JSON: %s" % exc]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    failures = []
    if result.get("correct") is not True:
        failures.append("correct is %r" % (result.get("correct"),))
    metrics = result.get("metrics") or {}
    for workload in workloads:
        for metric in spec["per_layer"]:
            key = "%s/%s" % (workload, metric["name"])
            value = (metrics.get(key) or {}).get("value")
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                failures.append("%s is %r" % (key, value))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("output", help="the run's standard output")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    with open(args.output) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    failures = check(lines[-1] if lines else "", spec, workloads)
    for failure in failures:
        print("trace line FAILED: %s" % failure, file=sys.stderr)
    if failures:
        return 1
    print("trace line OK: %d per-layer metrics finite on %s"
          % (len(spec["per_layer"]), ", ".join(workloads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
