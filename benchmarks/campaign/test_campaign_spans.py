"""Span recording and merge: self time, parents across pids, missing
wrap targets.

    PYTHONPATH=src python3 -m pytest benchmarks/campaign -q
"""

import json
import os
import sys
import time
import types

from spans import (
    CAMPAIGN,
    Tracer,
    covered_time,
    install,
    layer_metrics,
    merge,
    tail_percentile,
)


def _write(directory, pid, spans):
    with open(os.path.join(directory, "%d.jsonl" % pid), "a") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _span(sid, name, start, end, parent=None, pid=1, attrs=None):
    span = {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "pid": pid, "req": None}
    if attrs:
        span["attrs"] = attrs
    return span


def test_self_time_subtracts_union_of_children_clipped_to_parent(tmp_path):
    _write(tmp_path, 1, [
        _span("p", "outer", 0.0, 10.0),
        _span("a", "x", 1.0, 3.0, parent="p"),
        _span("b", "x", 2.0, 5.0, parent="p"),      # overlaps a
        _span("c", "x", 8.0, 12.0, parent="p"),     # runs past outer
    ])
    spans = {s["id"]: s for s in merge(str(tmp_path))}
    assert spans["p"]["self"] == 10.0 - (4.0 + 2.0)
    assert spans["a"]["self"] == 2.0


def test_covered_time_of_no_children_is_zero():
    assert covered_time(_span("p", "x", 0.0, 1.0), []) == 0.0


def test_forked_child_span_names_parent_in_other_pid(tmp_path):
    tracer = Tracer(str(tmp_path))
    with tracer.span("root"):
        with tracer.span("before_fork"):
            pass
        with tracer.span("outer"):
            pid = os.fork()
            if pid == 0:
                try:
                    with tracer.span("inner"):
                        time.sleep(0.05)
                finally:
                    os._exit(0)     # no atexit: the close flushed
            os.waitpid(pid, 0)
    spans = merge(str(tmp_path))
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    # The child never rewrites the parent's unflushed spans.
    assert len(by_name["before_fork"]) == 1
    inner, = by_name["inner"]
    outer, = by_name["outer"]
    assert inner["pid"] == pid != outer["pid"]
    assert inner["parent"] == outer["id"]
    duration = outer["end"] - outer["start"]
    assert outer["self"] < duration - 0.04
    assert sorted(os.listdir(str(tmp_path))) == sorted(
        ["%d.jsonl" % os.getpid(), "%d.jsonl" % pid])


def test_install_wraps_existing_targets_and_reports_missing(tmp_path):
    module = types.ModuleType("fake_layer")

    class Thing:
        def work(self, value):
            return value * 2

    module.Thing = Thing
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer(str(tmp_path))
        targets = install(tracer, (
            ("fake_layer", "Thing.work"),
            ("fake_layer", "Thing.gone"),
            ("fake_layer_that_does_not_exist", "anything"),
        ))
        assert Thing().work(21) == 42
    finally:
        del sys.modules["fake_layer"]
    assert targets == {"Thing.work": True, "Thing.gone": False,
                       "anything": False}
    names = [s["name"] for s in merge(str(tmp_path))]
    assert names == ["Thing.work"]


def _campaign_spans():
    return [
        _span("c", CAMPAIGN, 0.0, 10.0),
        _span("s1", "InjectionHarness.run_spec", 0.0, 4.0, parent="c"),
        _span("k1", "MachineSnapshot.clone", 0.0, 0.5, parent="s1"),
        _span("r1", "Machine.run", 0.5, 2.5, parent="s1",
              attrs={"instret": 3_000_000}),
        _span("g1", "grade_severity", 2.5, 4.0, parent="s1"),
        _span("b1", "Machine.run", 3.0, 4.0, parent="g1",
              attrs={"instret": 5}),
        _span("s2", "InjectionHarness.run_spec", 4.0, 9.6, parent="c",
              pid=2),
        _span("k2", "MachineSnapshot.clone", 4.0, 4.5, parent="s2",
              pid=2),
        _span("r2", "Machine.run", 4.5, 9.5, parent="s2", pid=2,
              attrs={"instret": 7_000_000}),
    ]


def _metrics(tmp_path, targets):
    _write(tmp_path, 1, _campaign_spans())
    return layer_metrics(merge(str(tmp_path)), targets, workers=1)


ALL = {"InjectionHarness.run_spec": True, "Machine.run": True,
       "MachineSnapshot.clone": True, "grade_severity": True}


def test_layer_metrics_attribute_injected_runs_and_reboots(tmp_path):
    m = _metrics(tmp_path, ALL)
    assert m["runner.run_spec_n"] == 2
    assert m["machine.run_s"] == 7.0            # injected runs only
    assert m["cpu.instret"] == 10_000_000
    assert abs(m["cpu.sim_mips"] - 10 / 7.0) < 1e-9
    assert m["severity.reboot_n"] == 1 and m["severity.reboot_s"] == 1.0
    assert m["severity.grade_n"] == 1
    assert abs(m["runner.classify_s"] - 0.1) < 1e-9
    assert abs(m["trace.unexplained_frac"] - 0.04) < 1e-9


def test_metrics_of_a_missing_target_read_null(tmp_path):
    targets = dict(ALL, **{"MachineSnapshot.clone": False})
    m = _metrics(tmp_path, targets)
    assert m["machine.clone_s"] is None and m["machine.clone_n"] is None
    assert m["machine.run_s"] == 7.0
    assert m["fabric.store_hits"] is None       # never installed


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
