"""Extension campaign R: register corruption at an instruction trigger."""

import pytest

from repro.injection.campaigns import select_targets
from repro.injection.engine import plan_fingerprint
from repro.injection.faultmodels import plan_register_campaign


class TestPlan:
    def test_plan_is_deterministic_and_bounded(self, kernel, profile):
        first = plan_register_campaign(kernel, profile, seed=5)
        second = plan_register_campaign(kernel, profile, seed=5)
        assert [s.to_dict() for s in first] \
            == [s.to_dict() for s in second]
        from collections import Counter
        per_function = Counter(s.function for s in first)
        assert max(per_function.values()) <= 6

    def test_esp_excluded_by_default(self, kernel, profile):
        specs = plan_register_campaign(kernel, profile)
        assert all(s.fault_model["reg"] != 4 for s in specs)

    def test_reg_names(self, kernel, profile):
        functions = select_targets(kernel, profile, "A")[:2]
        specs = plan_register_campaign(kernel, profile,
                                       functions=functions)
        assert all(s.mnemonic in ("reg:eax", "reg:ecx", "reg:edx",
                                  "reg:ebx", "reg:ebp", "reg:esi",
                                  "reg:edi") for s in specs)

    @pytest.mark.parametrize("seed, caps, fingerprint", [
        (2003, {}, "8955169ea005b8e8"),
        (5, {}, "219d099bb5362878"),
        (2003, {"max_per_function": 3, "max_specs": 40},
         "8b9ebb2b87dccaa9"),
    ])
    def test_fingerprint_is_pinned(self, harness, seed, caps,
                                   fingerprint):
        """Campaign R plans spec for spec as it always has, so its
        journals keep their fingerprint and still resume."""
        _, specs = harness.plan_specs("R", seed=seed, **caps)
        assert plan_fingerprint("R", specs, seed, 1) == fingerprint


class TestRun:
    def test_small_run_classifies(self, harness):
        results = harness.run_campaign("R", max_specs=12,
                                       grade=False).results
        assert len(results) == 12
        outcomes = {r.outcome for r in results}
        assert outcomes <= {"not_activated", "not_manifested",
                            "fail_silence_violation", "crash_dumped",
                            "crash_unknown", "hang"}
        for result in results:
            assert result.campaign == "R"
            assert result.mnemonic.startswith("reg:")

    def test_high_bit_of_ebp_usually_fatal(self, harness, kernel,
                                           profile):
        """Flipping ebp's top bit mid-function dereferences wild memory."""
        specs = plan_register_campaign(kernel, profile, per_function=30)
        target = next(s for s in specs if s.fault_model["reg"] == 5)
        target.bit = target.fault_model["bit"] = 31
        result = harness.run_spec(target, grade=False)
        if result.activated:
            assert result.outcome in ("crash_dumped", "crash_unknown",
                                      "hang", "fail_silence_violation",
                                      "not_manifested")


class TestCampaign:
    """Campaign R runs through ``run_campaign`` like every campaign."""

    @pytest.fixture(scope="class")
    def serial(self, harness):
        return harness.run_campaign("R", max_specs=6, grade=False)

    def test_equals_the_planned_specs_run_one_by_one(self, kernel,
                                                      profile, harness,
                                                      serial):
        specs = plan_register_campaign(kernel, profile)[:6]
        expected = [harness.run_spec(s, grade=False).to_dict()
                    for s in specs]
        assert [r.to_dict() for r in serial.results] == expected

    def test_parallel_matches_serial(self, harness, serial):
        parallel = harness.run_campaign("R", max_specs=6, grade=False,
                                        jobs=2)
        assert parallel.meta["engine"]["mode"] == "parallel"
        assert ([r.to_dict() for r in parallel.results]
                == [r.to_dict() for r in serial.results])
