"""Spans recorded from the benchmark's own files, merged into per-layer
metrics.

:func:`install` wraps the public entry points of each layer (see
:data:`TARGETS`) on their modules and classes.  The traced campaign
process calls it before the campaign forks any worker, so forked engine
workers and fabric shard workers inherit the wrappers and the open span
stack: a span opened in a worker names its parent in the process that
forked it.

Each span records its name, start, end, parent, pid and request id (the
``run_spec`` span's spec address, inherited by everything under it).
A process appends its finished spans to ``<dir>/<pid>.jsonl`` whenever
its last locally opened span closes, because forked workers leave
through ``os._exit`` and would lose anything buffered.  :func:`merge`
reads every file back and :func:`layer_metrics` turns the spans into
per-layer self times and counts.

A target that no longer exists is skipped and every metric that needs
it reads ``None``; the trace never fails the run it observes.
"""

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time
from collections import defaultdict

#: (module, attribute path) of every wrapped call.  The span name is
#: the attribute path.
TARGETS = (
    ("repro.injection.runner", "InjectionHarness.plan_specs"),
    ("repro.injection.runner", "InjectionHarness.golden"),
    ("repro.injection.runner", "InjectionHarness.crash_overhead"),
    ("repro.injection.runner", "InjectionHarness.run_spec"),
    ("repro.machine.machine", "Machine.run"),
    ("repro.machine.machine", "Machine.run_until_console"),
    ("repro.machine.machine", "MachineSnapshot.clone"),
    ("repro.injection.runner", "grade_severity"),
    ("repro.injection.severity", "fsck"),
    ("repro.injection.engine", "CampaignJournal.record"),
    ("repro.injection.fabric", "SnapshotStore.load"),
    ("repro.injection.fabric", "run_shard"),
    ("repro.injection.fabric", "write_heartbeat"),
    ("repro.injection.fabric", "merge_shard_journals"),
)

#: The benchmark's own span around the one campaign call.
CAMPAIGN = "bench.campaign"

RUN_SPEC = "InjectionHarness.run_spec"
MACHINE_RUN = "Machine.run"
BOOT = "Machine.run_until_console"
CALIBRATE = "InjectionHarness.crash_overhead"
GRADE = "grade_severity"

TRANSLATE_COUNTERS = ("blocks", "hits", "single_steps", "invalidations")


class Tracer:
    """Per-process span recorder writing ``<directory>/<pid>.jsonl``."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.pid = os.getpid()
        self.stack = []     # open spans, including ones opened pre-fork
        self.local = 0      # how many of ``stack`` this process opened
        self.finished = []
        self.counter = 0
        self.targets = {}   # attribute path -> wrapped?
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # The parent's unflushed spans are the parent's to write.
        self.pid = os.getpid()
        self.finished = []
        self.local = 0

    def open(self, name, req=None):
        self.counter += 1
        parent = self.stack[-1] if self.stack else None
        if req is None and parent is not None:
            req = parent["req"]
        span = {"id": "%d-%d" % (self.pid, self.counter), "name": name,
                "pid": self.pid,
                "parent": parent["id"] if parent is not None else None,
                "req": req, "start": time.perf_counter()}
        self.stack.append(span)
        self.local += 1
        return span

    def close(self, span, attrs=None):
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        self.stack.remove(span)
        self.local -= 1
        self.finished.append(span)
        if self.local == 0:
            self.flush()

    def flush(self):
        path = os.path.join(self.directory, "%d.jsonl" % self.pid)
        with open(path, "a") as fh:
            for span in self.finished:
                fh.write(json.dumps(span) + "\n")
        self.finished = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)


# -- wrappers ---------------------------------------------------------------

def _request_id(args):
    """Identify a run_spec call by its spec's address, byte and bit."""
    try:
        spec = args[1]
        return "%x+%d/%d" % (spec.instr_addr, spec.byte_offset, spec.bit)
    except (AttributeError, IndexError, TypeError):
        return None


def _run_attrs(instret_before, result):
    """Instructions retired and translation telemetry of a Machine.run."""
    attrs = {}
    try:
        attrs["instret"] = result.instret - instret_before
        if result.translation:
            attrs["translation"] = {k: result.translation.get(k, 0)
                                    for k in TRANSLATE_COUNTERS}
    except (AttributeError, TypeError):
        pass
    return attrs


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        req = _request_id(args) if name == RUN_SPEC else None
        span = tracer.open(name, req=req)
        attrs = None
        try:
            if name == MACHINE_RUN:
                before = getattr(getattr(args[0], "cpu", None),
                                 "instret", 0)
                result = fn(*args, **kwargs)
                attrs = _run_attrs(before, result)
            else:
                result = fn(*args, **kwargs)
                if name == "SnapshotStore.load":
                    attrs = {"hit": result is not None}
            return result
        finally:
            tracer.close(span, attrs)
    return wrapper


def _resolve(module_name, path):
    """(owner, attribute) for *path* in *module_name*, or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def install(tracer, targets=TARGETS):
    """Wrap every target that exists; record which ones did not."""
    for module_name, path in targets:
        owner, attr = _resolve(module_name, path)
        tracer.targets[path] = owner is not None
        if owner is not None:
            setattr(owner, attr, _wrap(tracer, path, getattr(owner, attr)))
    return tracer.targets


# -- merge ------------------------------------------------------------------

def merge(directory):
    """Every span written under *directory*, with ``self`` time filled.

    A span's self time is its duration minus the union of its
    children's intervals clipped to it; children may run in other
    processes and overlap each other.
    """
    spans = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name)) as fh:
            for line in fh:
                try:
                    spans.append(json.loads(line))
                except ValueError:
                    break       # torn tail of a killed process
    children = children_index(spans)
    for span in spans:
        covered = covered_time(span, children.get(span["id"], ()))
        span["self"] = span["end"] - span["start"] - covered
    return spans


def children_index(spans):
    """{parent id: [child spans]}; root spans sit under ``None``."""
    index = defaultdict(list)
    for span in spans:
        index[span["parent"]].append(span)
    return index


def covered_time(span, children):
    """Length of the union of *children*'s intervals inside *span*."""
    intervals = sorted((max(c["start"], span["start"]),
                        min(c["end"], span["end"])) for c in children)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tail_percentile(n):
    """The highest of the usual percentiles with >= 10 samples beyond
    it, or None when there are too few samples for any."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return None


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[rank]


#: Metric-name prefix -> wrap targets the metrics need.  A metric whose
#: targets are missing reads None.
REQUIRES = {
    "plan.": ("InjectionHarness.plan_specs",),
    "runner.golden": ("InjectionHarness.golden",),
    "runner.boots": (BOOT,),
    "runner.calibrate": (CALIBRATE, BOOT),
    "runner.": (RUN_SPEC,),
    "machine.clone": ("MachineSnapshot.clone",),
    "machine.run": (MACHINE_RUN, RUN_SPEC),
    "cpu.": (MACHINE_RUN, RUN_SPEC),
    "translate.": (MACHINE_RUN,),
    "severity.fsck": ("fsck",),
    "severity.reboot": (GRADE, MACHINE_RUN),
    "severity.": (GRADE,),
    "engine.journal": ("CampaignJournal.record",),
    "engine.worker_busy": (RUN_SPEC,),
    "fabric.thaw": ("SnapshotStore.load",),
    "fabric.store": ("SnapshotStore.load",),
    "fabric.heartbeat": ("write_heartbeat",),
    "fabric.merge": ("merge_shard_journals",),
    "fabric.": ("run_shard",),
}


def _required(metric):
    best = ""
    for prefix in REQUIRES:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return REQUIRES.get(best, ())


def layer_metrics(spans, targets, workers, engine_meta=None):
    """Per-layer metrics of one traced campaign run.

    *workers* is the number of processes executing specs concurrently
    (1 serial, ``jobs``, or the fabric pool size).
    """
    by_id = {s["id"]: s for s in spans}
    kids = children_index(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def dur(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def parent_name(span):
        parent = by_id.get(span["parent"])
        return parent["name"] if parent is not None else None

    campaign = by_name[CAMPAIGN][0]
    wall = dur(campaign)
    m = {}
    m["build.kernel_s"] = total("bench.build_kernel")
    m["build.userland_s"] = total("bench.build_userland")
    m["profiling.profile_s"] = total("bench.profile_kernel")
    m["plan.plan_s"] = total("InjectionHarness.plan_specs")
    m["runner.golden_s"] = total("InjectionHarness.golden")
    m["runner.boots"] = len(by_name[BOOT])
    m["runner.calibrate_s"] = total(CALIBRATE)
    # A calibration boots a machine itself; a cached constant does not.
    calibrations = [s for s in by_name[CALIBRATE]
                    if any(c["name"] == BOOT for c in kids.get(s["id"], ()))]
    m["runner.calibrate_n"] = len(calibrations)
    specs = by_name[RUN_SPEC]
    durations = [dur(s) for s in specs]
    m["runner.run_spec_n"] = len(specs)
    m["runner.classify_s"] = sum(s["self"] for s in specs)
    m["runner.spec_p50_s"] = (statistics.median(durations)
                              if durations else 0.0)
    tail = tail_percentile(len(durations))
    m["runner.spec_tail_pct"] = tail
    m["runner.spec_tail_s"] = (percentile(durations, tail)
                               if tail is not None else None)
    clones = by_name["MachineSnapshot.clone"]
    m["machine.clone_s"] = sum(dur(s) for s in clones)
    m["machine.clone_n"] = len(clones)
    runs = by_name[MACHINE_RUN]
    injected = [s for s in runs if parent_name(s) == RUN_SPEC]
    m["machine.run_s"] = sum(s["self"] for s in injected)
    m["cpu.instret"] = sum(s.get("attrs", {}).get("instret", 0)
                           for s in injected)
    m["cpu.sim_mips"] = (m["cpu.instret"] / m["machine.run_s"] / 1e6
                         if m["machine.run_s"] else 0.0)
    translated = defaultdict(int)
    for span in runs:
        for key, value in span.get("attrs", {}).get(
                "translation", {}).items():
            translated[key] += value
    for key in TRANSLATE_COUNTERS:
        m["translate.%s" % key] = translated[key]
    lookups = translated["hits"] + translated["single_steps"]
    m["translate.hit_frac"] = (translated["hits"] / lookups
                               if lookups else 0.0)
    m["severity.grade_s"] = total(GRADE)
    m["severity.grade_n"] = len(by_name[GRADE])
    m["severity.fsck_s"] = total("fsck")
    reboots = [s for s in runs if parent_name(s) == GRADE]
    m["severity.reboot_s"] = sum(dur(s) for s in reboots)
    m["severity.reboot_n"] = len(reboots)
    m["engine.worker_busy_frac"] = sum(durations) / (workers * wall)
    m["engine.journal_s"] = total("CampaignJournal.record")
    m["engine.journal_n"] = len(by_name["CampaignJournal.record"])
    m["engine.worker_failures"] = (engine_meta or {}).get(
        "worker_failures", 0)
    loads = by_name["SnapshotStore.load"]
    m["fabric.thaw_s"] = sum(dur(s) for s in loads)
    m["fabric.store_hits"] = sum(1 for s in loads
                                 if s.get("attrs", {}).get("hit"))
    m["fabric.heartbeat_s"] = total("write_heartbeat")
    m["fabric.merge_s"] = total("merge_shard_journals")
    shards = [dur(s) for s in by_name["run_shard"]]
    m["fabric.shard_max_s"] = max(shards) if shards else 0.0
    m["fabric.shard_mean_s"] = statistics.mean(shards) if shards else 0.0
    m["fabric.shard_imbalance"] = (m["fabric.shard_max_s"]
                                   / m["fabric.shard_mean_s"]
                                   if shards else 0.0)
    m["fabric.worker_busy_frac"] = sum(shards) / (workers * wall)
    # Shares of the campaign wall for layers only some workloads use.
    for name in ("engine.journal", "fabric.thaw", "fabric.heartbeat",
                 "fabric.merge"):
        m["%s_frac" % name] = m["%s_s" % name] / wall
    top = kids.get(campaign["id"], ())
    m["trace.unexplained_frac"] = 1 - covered_time(campaign, top) / wall
    for metric in m:
        if not all(targets.get(t, False) for t in _required(metric)):
            m[metric] = None
    return m
