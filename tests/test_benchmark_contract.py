"""The campaign benchmark's hold on the program.

``benchmarks/campaign/spans.py`` wraps each entry of ``TARGETS`` by its
module and attribute path to attribute a traced campaign's wall time to
layers; a target that no longer resolves silently turns the metrics
that need it into ``null``.  Renaming or moving one of those callables
must therefore fail here, not in a traced benchmark run.  The traced
run's result line itself is checked by ``scripts/check_trace_line.py``.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(*path):
    """The module at *path* under the repository root, by file."""
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(path[-1])[0], os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("benchmarks", "campaign", "spans.py")
checker = load("scripts", "check_trace_line.py")


@pytest.mark.parametrize("module_name, path", spans.TARGETS,
                         ids=[path for _, path in spans.TARGETS])
def test_wrap_target_resolves_to_a_callable(module_name, path):
    owner, attr = spans._resolve(module_name, path)
    assert owner is not None, "%s.%s is gone" % (module_name, path)
    assert callable(getattr(owner, attr))


class TestTraceLineCheck:
    """``scripts/check_trace_line.py``, which CI runs on the last line
    of a traced smoke run of the benchmark."""

    SPEC = {"per_layer": [{"name": "runner.boots"},
                          {"name": "fabric.heartbeat_frac"}]}
    WORKLOADS = ("w1", "w2")

    def line(self, correct=True, value=0.5):
        metrics = {"%s/%s" % (w, m["name"]): {"unit": "u", "value": 3}
                   for w in self.WORKLOADS for m in self.SPEC["per_layer"]}
        metrics["w2/fabric.heartbeat_frac"]["value"] = value
        return json.dumps({"correct": correct, "metrics": metrics})

    def check(self, line, workloads=WORKLOADS):
        return checker.check(line, self.SPEC, list(workloads))

    def test_finite_metrics_pass(self):
        assert self.check(self.line()) == []

    @pytest.mark.parametrize("value", [None, float("nan"), float("inf"),
                                       "0.5", True])
    def test_missing_or_non_finite_metric_fails(self, value):
        assert self.check(self.line(value=value))

    def test_incorrect_run_fails(self):
        assert self.check(self.line(correct=False))

    def test_a_missing_workload_fails(self):
        assert self.check(self.line(), workloads=("w1", "w3"))

    def test_a_line_that_is_no_result_fails(self):
        assert self.check("benchmark failed: boom")
