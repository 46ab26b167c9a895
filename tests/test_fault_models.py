"""Pluggable fault models: planning, delivery, schema, degradation."""

import json

import pytest

from repro.injection.campaigns import InjectionSpec
from repro.injection.faultmodels import (
    CAMPAIGN_KEYS,
    FAULT_KINDS,
    describe_fault,
    plan_fault_model_campaign,
    resolve_model,
)
from repro.injection.outcomes import (
    HARNESS_ERROR,
    NOT_ACTIVATED,
    NOT_MANIFESTED,
)


def _base_spec(**kwargs):
    fields = dict(campaign="A", function="sys_getpid",
                  subsystem="kernel", instr_addr=0x100000, instr_len=2,
                  byte_offset=0, bit=3, mnemonic="mov")
    fields.update(kwargs)
    return InjectionSpec(**fields)


class TestSpecSchema:
    def test_fault_model_round_trips(self):
        fault = {"kind": "mem", "v": 1, "region": "stack",
                 "offset": 8, "bits": [0, 5]}
        spec = _base_spec(fault_model=fault)
        clone = InjectionSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.fault_model == fault

    def test_pre_framework_dict_loads_with_none_model(self):
        data = _base_spec().to_dict()
        del data["fault_model"]          # a v1 journal has no such key
        spec = InjectionSpec.from_dict(data)
        assert spec.fault_model is None

    def test_unknown_keys_are_tolerated(self):
        data = _base_spec().to_dict()
        data["some_future_field"] = {"x": 1}
        spec = InjectionSpec.from_dict(data)
        assert spec.function == "sys_getpid"

    def test_unknown_kind_rejected(self):
        spec = _base_spec(fault_model={"kind": "quantum", "v": 1})
        with pytest.raises(ValueError):
            resolve_model(spec)

    def test_newer_version_rejected(self):
        spec = _base_spec(fault_model={"kind": "mem", "v": 99,
                                       "region": "stack", "offset": 0,
                                       "bits": [0]})
        with pytest.raises(ValueError):
            resolve_model(spec)

    def test_default_spec_has_no_model(self):
        assert resolve_model(_base_spec()) is None
        assert describe_fault(_base_spec()) is None

    def test_describe_names_model_and_target(self):
        spec = _base_spec(fault_model={"kind": "reg_trap", "v": 1,
                                       "reg": 2, "bit": 17})
        assert describe_fault(spec) == \
            "FAULT: reg flip edx bit 17 @ trap entry"

    def test_bad_model_is_contained_as_harness_error(self, harness):
        from repro.injection.engine import run_spec_contained
        spec = _base_spec(fault_model={"kind": "quantum", "v": 1})
        result = run_spec_contained(harness, spec, False, 2003)
        assert result.outcome == HARNESS_ERROR
        assert "quantum" in result.repro["traceback"]


class TestPlanning:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_plan_is_deterministic(self, kernel, profile, kind):
        first = plan_fault_model_campaign(kernel, profile, kind)
        second = plan_fault_model_campaign(kernel, profile, kind)
        assert [s.to_dict() for s in first] == \
            [s.to_dict() for s in second]
        assert first, "empty plan for %s" % kind

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_specs_carry_versioned_model(self, kernel, profile, kind):
        for spec in plan_fault_model_campaign(kernel, profile, kind,
                                              max_specs=10):
            assert spec.campaign == CAMPAIGN_KEYS[kind]
            assert spec.fault_model["kind"] == kind
            assert spec.fault_model["v"] == 1
            assert resolve_model(spec) is not None

    def test_unknown_kind_has_no_planner(self, kernel, profile):
        with pytest.raises(ValueError):
            plan_fault_model_campaign(kernel, profile, "quantum")

    def test_harness_plans_reject_functions_and_unknown_keys(
            self, harness):
        functions = harness.plan_specs("A")[0][:1]
        with pytest.raises(ValueError, match="own trigger"):
            harness.plan_specs("D", functions=functions)
        with pytest.raises(ValueError, match="unknown campaign key"):
            harness.plan_specs("disk")


class TestEndToEnd:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_model_runs_and_activates(self, harness, kind):
        results = harness.run_campaign(CAMPAIGN_KEYS[kind], max_specs=4,
                                       grade=False)
        assert len(results) == 4
        assert results.meta["functions"] == \
            sorted({r.function for r in results.results})
        activated = [r for r in results.results if r.activated]
        assert activated, "%s never delivered a fault" % kind
        for result in results.results:
            assert result.fault_model == kind
            assert result.fault_target
            if not result.activated:
                assert result.outcome == NOT_ACTIVATED

    def test_results_journal_round_trip(self, harness):
        results = harness.run_campaign("D", max_specs=3, grade=False)
        for result in results.results:
            data = json.loads(json.dumps(result.to_dict()))
            from repro.injection.outcomes import InjectionResult
            clone = InjectionResult.from_dict(data)
            assert clone.fault_model == result.fault_model
            assert clone.fault_target == result.fault_target


class TestGracefulDegradation:
    """The disk-retry ablation: same plan, fail-stop vs retrying driver."""

    @pytest.fixture(scope="class")
    def failstop(self, harness):
        return harness.run_campaign("D", grade=False)

    @pytest.fixture(scope="class")
    def retried(self, retry_harness):
        return retry_harness.run_campaign("D", grade=False)

    def test_plans_are_identical(self, failstop, retried):
        assert [r.mnemonic for r in failstop.results] == \
            [r.mnemonic for r in retried.results]

    def test_transient_faults_are_masked_by_retry(self, failstop,
                                                  retried):
        masked = 0
        for before, after in zip(failstop.results, retried.results):
            if before.mnemonic != "disk:transient":
                continue
            assert after.activated     # the fault still fired...
            if before.outcome != NOT_MANIFESTED \
                    and after.outcome == NOT_MANIFESTED:
                masked += 1            # ...but the driver absorbed it
        assert masked > 0

    def test_retry_never_makes_an_outcome_worse(self, failstop,
                                                retried):
        bad_before = sum(1 for r in failstop.results
                         if r.outcome not in (NOT_ACTIVATED,
                                              NOT_MANIFESTED))
        bad_after = sum(1 for r in retried.results
                        if r.outcome not in (NOT_ACTIVATED,
                                             NOT_MANIFESTED))
        assert bad_after < bad_before
