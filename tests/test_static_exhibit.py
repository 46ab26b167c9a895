"""The static_propagation exhibit and the ksymoops STATIC section."""

from types import SimpleNamespace

import pytest

from repro.analysis.oops import static_verdict_section
from repro.experiments import static_propagation, trace_validation
from repro.experiments.static_propagation import (
    _rate,
    _spread_hit,
    _trap_hit,
    verdict_for,
)
from repro.injection.outcomes import InjectionResult
from repro.staticanalysis.propagation import (
    PropagationAnalyzer,
    SiteVerdict,
)


def _result(**overrides):
    fields = dict(campaign="A", function="getblk", subsystem="fs",
                  addr=0x1000, byte_offset=0, bit=0,
                  outcome="crash_dumped", crash_cause="null_pointer",
                  crash_subsystem="fs", latency=10)
    fields.update(overrides)
    return InjectionResult(**fields)


def _verdict(traps=("page_fault", "gpf", "silent"), lo=2, hi=None,
             subsystems=("fs",)):
    return SiteVerdict("CORRUPT_VALUE", traps, lo, hi, subsystems,
                       False)


class TestScoringHelpers:
    def test_trap_hit_inside_predicted_set(self):
        assert _trap_hit(_verdict(), _result(crash_cause="null_pointer"))
        assert not _trap_hit(_verdict(),
                             _result(crash_cause="invalid_opcode"))

    def test_out_of_vocabulary_cause_counts_as_contained(self):
        assert _trap_hit(_verdict(traps=("silent",)),
                         _result(crash_cause="kernel_panic"))

    def test_spread_hit_reachable_and_wild(self):
        assert _spread_hit(_verdict(subsystems=("fs", "mm")),
                           _result(crash_subsystem="mm"))
        assert not _spread_hit(_verdict(subsystems=("fs",)),
                               _result(subsystem="mm",
                                       crash_subsystem="kernel"))
        # a predicted wild jump covers any destination
        assert _spread_hit(_verdict(subsystems=("(wild)",)),
                           _result(crash_subsystem=None))

    def test_rate_formatting(self):
        assert _rate(0, 0) == "-"
        assert _rate(3, 4) == "3/4 (75%)"

    def test_verdict_for_prefers_recorded_prediction(self, kernel):
        analyzer = PropagationAnalyzer(kernel)
        recorded = _result(pred_traps=["gpf"], pred_latency_lo=7,
                           pred_latency_hi=9, pred_subsystems=["fs"],
                           pred_seed="CORRUPT_VALUE")
        verdict = verdict_for(analyzer, recorded)
        assert verdict.traps == frozenset(("gpf",))
        assert (verdict.latency_lo, verdict.latency_hi) == (7, 9)

    def test_verdict_for_computes_post_hoc(self, kernel):
        analyzer = PropagationAnalyzer(kernel)
        info = next(f for f in kernel.functions if f.name == "getblk")
        bare = _result(function="getblk", addr=info.start)
        verdict = verdict_for(analyzer, bare)
        assert verdict.traps


@pytest.fixture(scope="module")
def fs_slice(traced_harness):
    """The fs results of a tiny traced campaign A (seed 2003, stride
    40, 120 specs).  Tracing leaves outcomes and latencies
    bit-identical, so both exhibits score the same results; neither
    reads the fsck grade."""
    results = traced_harness.run_campaign(
        "A", seed=2003, byte_stride=40, max_specs=120,
        grade=False).results
    return [r for r in results if r.subsystem == "fs"]


class TestFsSliceGate:
    def test_propagation_verdicts_contain_the_crashes(self, kernel,
                                                      fs_slice):
        digest = static_propagation.score(PropagationAnalyzer(kernel),
                                          fs_slice)
        assert digest["crashed"] >= 5, digest
        assert digest["trap_hits"] / digest["crashed"] >= 0.80, digest
        assert digest["timed"] >= 1, digest
        assert digest["latency_hits"] / digest["timed"] >= 0.70, digest

    def test_trace_measures_and_bounds_the_crashes(self, kernel,
                                                   fs_slice):
        digest = trace_validation.score(PropagationAnalyzer(kernel),
                                        fs_slice)
        assert digest["crashed"] >= 5, digest
        assert digest["measured"] / digest["crashed"] >= 0.95, digest
        assert digest["timed"] >= 1, digest
        assert digest["latency_hits"] / digest["timed"] >= 0.70, digest


class TestKsymoopsStaticSection:
    def test_prediction_only_lines(self, kernel):
        info = next(f for f in kernel.functions
                    if f.name == "sync_buffers")
        lines = static_verdict_section(kernel, "sync_buffers",
                                       info.start, 0, 5)
        text = "\n".join(lines)
        assert "predicted traps:" in text
        assert "latency bound:" in text
        assert "reachable:" in text

    def test_actual_crash_and_latency_comparison(self, kernel):
        info = next(f for f in kernel.functions
                    if f.name == "sync_buffers")
        crash = SimpleNamespace(vector=14, cr2=0x10)  # null pointer
        lines = static_verdict_section(kernel, "sync_buffers",
                                       info.start, 0, 5, crash=crash,
                                       latency=25)
        text = "\n".join(lines)
        assert "actual trap:" in text
        assert "actual latency:   25 cycles" in text
