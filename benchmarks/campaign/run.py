#!/usr/bin/env python3
"""Campaign benchmark: injections/s and set-up time on seeded campaign
workloads, plus a traced per-layer run.

    python3 benchmarks/campaign/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--repeat N] [--smoke] [--out FILE]

Run from anywhere; the repo root is found from this file.  Without
``--workload`` every workload runs.  Each workload run starts fresh
child processes (child.py):

* ``--trace 0``: two children set up side by side, and their two
  set-up times are the run's set-up samples.  Once both are set up,
  one of them runs the campaign in a fresh fork, alone on the host,
  and again only while another campaign is expected to end within
  ``--seconds``.  Prints the end-to-end metrics of BENCHMARK.json:
  ``setup_s`` (median set-up), ``inj_per_s`` (planned specs / median
  campaign wall), ``total_s`` (``setup_s`` + median campaign wall),
  ``peak_rss_mb`` (median over the campaigns).  Every time in them is
  host-normalized: meter.py samples the host's speed on every CPU
  during the run, and each set-up and campaign time is put on the
  scale of the reference speed (``meter.normalized``).  The wall-clock
  values are printed beside them and kept in the record.
* ``--trace 1``: one child sets up, runs the campaign untraced, then
  traced, with its processes writing spans under
  ``out/spans/<workload>/``; prints the per-layer metrics of
  BENCHMARK.json merged from those spans.

Every campaign's results are checked spec by spec against pinned.json;
``failed_frac`` (harness errors plus missing results over planned specs)
is printed with the metrics.  ``--repeat N`` runs every workload N
times, repeat r with seed ``--seed`` + r, reversing the workload order
on every other repeat; ``--out`` writes the full record (run stamp,
host probe, every sample) for compare.py.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
The exit status is 1 when any result is incorrect, 2 when the
repository cannot be set up.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
METER = os.path.join(HERE, "meter.py")

sys.path.insert(0, HERE)

import meter  # noqa: E402
from spans import layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Each workload run must finish within this many seconds.
DEADLINE_S = 170.0
#: Iterations of the host probe loop: about 0.5 s on a 2-core Xeon
#: under CPython 3.11.  Timed before and after every workload run so a
#: run slowed by a contended host can be told apart; not a metric.
PROBE_ITERATIONS = 5_500_000


class ChildFailed(RuntimeError):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_probe():
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x + i * i) & 0xFFFF
    return time.perf_counter() - start


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")) \
            or shutil.which("git") is None:
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status",
                                 "--porcelain"], capture_output=True,
                                text=True, check=True,
                                timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def run_stamp():
    sha, dirty = git_state()
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


class Children:
    """The processes of one workload run: host meters and child.py.

    Each process gets its own process group and each child its own
    scratch directory; on exit every group is killed and waited for
    (forked workers are not our children to wait on) and the scratch
    directories are removed.
    """

    def __init__(self, workload, seed, smoke, deadline):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"),
                        self.env.get("PYTHONPATH")) if p)
        self.procs = []
        self.scratch = []
        self.meter_dir = None

    def __enter__(self):
        return self

    def _mkdtemp(self, prefix):
        path = tempfile.mkdtemp(prefix=prefix, dir=OUT)
        self.scratch.append(path)
        return path

    def start_meters(self):
        """One host meter per CPU, sampling into ``self.meter_dir``."""
        self.meter_dir = self._mkdtemp("meter-")
        for cpu in sorted(os.sched_getaffinity(0)):
            self.procs.append(subprocess.Popen(
                [sys.executable, METER, "--cpu", str(cpu), "--out",
                 os.path.join(self.meter_dir, "%d.txt" % cpu)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                start_new_session=True))

    def start(self, setup_only=False, seconds=None, trace_dir=None):
        scratch = self._mkdtemp("child-")
        argv = [sys.executable, CHILD, "--workload", self.workload.name,
                "--seed", str(self.seed), "--scratch", scratch,
                "--result", os.path.join(scratch, "result.json")]
        if self.smoke:
            argv.append("--smoke")
        if setup_only:
            argv.append("--setup-only")
        if seconds is not None:
            argv += ["--seconds", repr(seconds)]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir]
        proc = subprocess.Popen(
            argv + ["--spawned", repr(time.perf_counter())],
            stdin=subprocess.DEVNULL if setup_only else subprocess.PIPE,
            stdout=sys.stderr, env=self.env, start_new_session=True)
        proc.scratch = scratch
        proc.role = "setup" if setup_only else "campaign"
        self.procs.append(proc)
        return proc

    def wait(self, proc):
        """The child's result, once it has exited with status 0."""
        try:
            code = proc.wait(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            raise ChildFailed("%s child for %s %s" % (
                proc.role, self.workload.name,
                "timed out" if code is None else "exited %s" % code))
        with open(os.path.join(proc.scratch, "result.json")) as fh:
            return json.load(fh)

    def __exit__(self, *exc):
        for proc in self.procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            if proc.stdin is not None:
                proc.stdin.close()
        # The leaders are reaped; wait for the rest of each group, such
        # as forked workers, which are not ours to wait on.
        for proc in self.procs:
            for _ in range(500):
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
        for path in self.scratch:
            shutil.rmtree(path, ignore_errors=True)
        return False


def end_to_end(setups, walls, campaigns, planned):
    """The end-to-end metrics from set-up times, campaign wall times and
    the campaigns' records."""
    setup_s = statistics.median(setups)
    campaign_s = statistics.median(walls)
    return {
        "setup_s": setup_s,
        "inj_per_s": planned / campaign_s,
        "total_s": setup_s + campaign_s,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"]
                                         for c in campaigns),
        "failed_frac": (sum(c["check"]["failed"] for c in campaigns)
                        / (planned * len(campaigns))),
    }


def run_workload(workload, seed, seconds, trace, smoke, deadline):
    """One workload run: its samples, metrics and checks."""
    run = {"workload": workload.name, "seed": seed,
           "params": workload.params(smoke), "stamp": run_stamp(),
           "host_probe_s": [host_probe()]}
    trace_dir = None
    if trace:
        trace_dir = os.path.join(OUT, "spans", workload.name)
        shutil.rmtree(trace_dir, ignore_errors=True)
    with Children(workload, seed, smoke, deadline) as children:
        children.start_meters()
        bench = children.start(seconds=seconds, trace_dir=trace_dir)
        # The set-ups of a run are timed side by side, two at a time;
        # the campaigns start once the partner has ended.
        partners = [] if trace or smoke else [
            children.start(setup_only=True)]
        setups = [children.wait(p) for p in partners]
        try:
            bench.stdin.write(b"go\n")
            bench.stdin.close()
        except BrokenPipeError:
            pass                # it failed; wait() reports how
        result = children.wait(bench)
        samples = meter.read(children.meter_dir)
    setups.insert(0, result)
    campaigns = result["campaigns"]
    run["host_probe_s"].append(host_probe())
    run["setup_samples"] = [s["setup_s"] for s in setups]
    run["campaign_samples"] = [c["campaign_s"] for c in campaigns]

    def chunk(window):
        value = meter.chunk_s(samples, *window)
        if value is None:
            raise ChildFailed("no host meter sample for %s"
                              % workload.name)
        return value

    run["host_chunk_s"] = {
        "setup": [chunk(s["setup_window"]) for s in setups],
        "campaign": [chunk(c["window"]) for c in campaigns]}
    setup_n = [meter.normalized(s, c) for s, c in zip(
        run["setup_samples"], run["host_chunk_s"]["setup"])]
    walls_n = [meter.normalized(s, c) for s, c in zip(
        run["campaign_samples"], run["host_chunk_s"]["campaign"])]
    untraced = slice(0, 1) if trace else slice(None)
    run["metrics"] = end_to_end(setup_n, walls_n[untraced],
                                campaigns[untraced], result["planned"])
    run["wall_metrics"] = end_to_end(
        run["setup_samples"], run["campaign_samples"][untraced],
        campaigns[untraced], result["planned"])
    if trace:
        traced = campaigns[1]
        layer = layer_metrics(merge(trace_dir), traced["targets"],
                              workload.workers, traced["engine"])
        layer["trace.overhead"] = ((setup_n[0] + walls_n[1])
                                   / (setup_n[0] + walls_n[0]))
        run["targets"] = traced["targets"]
        run["per_layer"] = layer
        run["checks"] = {
            "run_spec_spans_equal_planned":
                layer["runner.run_spec_n"] == result["planned"],
            "unexplained_le_0.05":
                layer["trace.unexplained_frac"] is not None
                and layer["trace.unexplained_frac"] <= 0.05,
        }
    if "prep_s" in result:
        run["prep_s"] = result["prep_s"]
    run["engine"] = campaigns[0]["engine"]
    run["check"] = campaigns[0]["check"]
    run["planned"] = result["planned"] * len(campaigns)
    run["failed"] = sum(c["check"]["failed"] for c in campaigns)
    run["correct"] = all(c["check"]["correct"] for c in campaigns)
    return run


def report(run, spec):
    check = run["check"]
    print("%s seed %d: %s, %d specs x %d, digest %s, %s" % (
        run["workload"], run["seed"],
        "correct" if run["correct"] else "INCORRECT",
        run["params"]["specs"], len(run["campaign_samples"]),
        check["digest"][:16],
        " ".join("%s=%d" % kv for kv in sorted(check["census"].items()))))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "ratio"
    for name, value in run["metrics"].items():
        wall = run["wall_metrics"][name]
        print("  %-22s %12.4f %-6s%s" % (
            name, value, units[name],
            "" if wall == value else "  (wall clock %.4f)" % wall))
    for name, value in sorted(run.get("per_layer", {}).items()):
        print("  %-30s %s" % (name, "null" if value is None
                               else "%.6g" % value))
    for name, ok in sorted(run.get("checks", {}).items()):
        print("  check %-28s %s" % (name, "ok" if ok else "FAILED"))
    sys.stdout.flush()


def summary(runs, spec, trace):
    """The last line: metrics of BENCHMARK.json, medians over repeats,
    keyed ``<workload>/<metric>`` when more than one workload ran."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = "per_layer" if trace else "metrics"
    names = list(dict.fromkeys(r["workload"] for r in runs))
    metrics = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for metric in declared:
            values = [r[source][metric["name"]] for r in mine]
            value = (None if None in values
                     else statistics.median(values))
            key = metric["name"] if len(names) == 1 else \
                "%s/%s" % (name, metric["name"])
            metrics[key] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["planned"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="8 specs per workload, one set-up and one "
                             "campaign each")
    parser.add_argument("--out", help="write the full record here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no repro package under %s/src; run from a checkout of "
              "the repository" % ROOT, file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None \
        else args.seconds
    names = args.workload or list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)
    runs = []
    try:
        for repeat in range(args.repeat):
            order = names if repeat % 2 == 0 else names[::-1]
            for name in order:
                run = run_workload(WORKLOADS[name], args.seed + repeat,
                                   seconds, args.trace, args.smoke,
                                   time.perf_counter() + DEADLINE_S)
                runs.append(run)
                report(run, spec)
    except ChildFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    record = {"benchmark": "campaign", "trace": args.trace,
              "smoke": args.smoke, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result = summary(runs, spec, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
