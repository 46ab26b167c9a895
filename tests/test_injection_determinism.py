"""Whole-pipeline determinism: same seed, same outcomes, bit for bit."""

import json

import pytest


def test_campaign_slice_is_deterministic(harness):
    from repro.injection.campaigns import plan_campaign, select_targets
    functions = select_targets(harness.kernel, harness.profile, "C")
    specs = plan_campaign(harness.kernel, "C", functions)[:25]

    def run_once():
        rows = []
        for spec in specs:
            result = harness.run_spec(spec, grade=False)
            rows.append((result.outcome, result.crash_cause,
                         result.latency, result.crash_eip,
                         result.run_cycles))
        return rows

    first = run_once()
    second = run_once()
    assert first == second


class TestTracedCampaignDeterminism:
    """Serial, parallel and resumed traced campaigns must agree.

    The trace-derived divergence metrics ride the same engine paths as
    every other result field (worker pickling, journal JSON,
    resume-from-journal), so all three execution modes must produce
    them bit-identically.
    """

    # The tiny-scale campaign-A plan: its head is known to contain
    # activated runs and dumped crashes (the C slice the engine tests
    # share is all not-activated, which would leave nothing to check).
    CAMPAIGN = dict(seed=2003, byte_stride=40, max_specs=8,
                    grade=False)

    def trace_metrics(self, campaign_results):
        return [
            (r.trace_diverged, r.trace_divergence_cycle,
             r.trace_divergence_eip,
             r.trace_flip_to_divergence_cycles,
             r.trace_flip_to_divergence_instrs,
             r.trace_divergence_to_trap_cycles,
             r.trace_subsystems, r.trace_dropped_events,
             r.trace_complete)
            for r in campaign_results.results
        ]

    @pytest.fixture(scope="class")
    def serial(self, traced_harness):
        return traced_harness.run_campaign("A", **self.CAMPAIGN)

    def test_traced_campaign_measures_something(self, serial):
        metrics = self.trace_metrics(serial)
        assert any(m[0] for m in metrics)  # at least one divergence

    def test_parallel_matches_serial(self, traced_harness, serial):
        parallel = traced_harness.run_campaign("A", jobs=2,
                                               **self.CAMPAIGN)
        assert self.trace_metrics(parallel) == self.trace_metrics(serial)
        assert ([r.to_dict() for r in parallel.results]
                == [r.to_dict() for r in serial.results])

    def test_resume_matches_serial(self, traced_harness, serial,
                                   tmp_path):
        journal_path = str(tmp_path / "traced.jsonl")

        def interrupt(done, total, result):
            if done == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            traced_harness.run_campaign("A", journal_path=journal_path,
                                        progress=interrupt,
                                        **self.CAMPAIGN)
        resumed = traced_harness.run_campaign("A",
                                              journal_path=journal_path,
                                              resume=True,
                                              **self.CAMPAIGN)
        assert resumed.meta["engine"]["resumed_results"] == 3
        assert self.trace_metrics(resumed) == self.trace_metrics(serial)


class TestFaultModelDeterminism:
    """One campaign per pluggable fault model, three execution modes.

    Every model's parameters ride the spec's ``fault_model`` dict
    through worker pickling, journal JSON and resume; serial, parallel
    and interrupted-then-resumed runs must agree bit for bit.
    """

    CAMPAIGN = dict(seed=2003, max_specs=5, grade=False)

    @staticmethod
    def _run(harness, kind, **kwargs):
        from repro.injection.faultmodels import CAMPAIGN_KEYS
        merged = dict(TestFaultModelDeterminism.CAMPAIGN)
        merged.update(kwargs)
        return harness.run_campaign(CAMPAIGN_KEYS[kind], **merged)

    @pytest.fixture(scope="class")
    def serials(self, harness):
        from repro.injection.faultmodels import FAULT_KINDS
        return {kind: self._run(harness, kind) for kind in FAULT_KINDS}

    @pytest.mark.parametrize("kind",
                             ("disk", "intermittent", "mem", "reg_trap"))
    def test_parallel_matches_serial(self, harness, serials, kind):
        parallel = self._run(harness, kind, jobs=2)
        assert ([r.to_dict() for r in parallel.results]
                == [r.to_dict() for r in serials[kind].results])

    @pytest.mark.parametrize("kind",
                             ("disk", "intermittent", "mem", "reg_trap"))
    def test_translated_matches_serial(self, interpreted_harness,
                                       serials, kind):
        # The serial runs go through the default translated fast
        # path: the same campaign on the interpreter (the oracle)
        # must reproduce them bit for bit, fault model included.
        interpreted = self._run(interpreted_harness, kind)
        assert ([r.to_dict() for r in interpreted.results]
                == [r.to_dict() for r in serials[kind].results])

    @pytest.mark.parametrize("kind",
                             ("disk", "intermittent", "mem", "reg_trap"))
    def test_resume_matches_serial(self, harness, serials, kind,
                                   tmp_path):
        journal_path = str(tmp_path / ("%s.jsonl" % kind))

        def interrupt(done, total, result):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._run(harness, kind, journal_path=journal_path,
                      progress=interrupt)
        resumed = self._run(harness, kind, journal_path=journal_path,
                            resume=True)
        assert resumed.meta["engine"]["resumed_results"] == 2
        assert ([r.to_dict() for r in resumed.results]
                == [r.to_dict() for r in serials[kind].results])


def test_pre_framework_journal_resumes(harness, tmp_path):
    """A v1 journal (no schema_version, no fault fields) resumes cleanly.

    Simulated by journaling a default instruction-flip campaign and
    stripping every post-v1 artifact from the file; the plan
    fingerprint is unchanged (the default model adds nothing to it),
    so newer code must load the old records and only run the rest.
    """
    campaign = dict(seed=2003, byte_stride=40, max_specs=6, grade=False)
    serial = harness.run_campaign("A", **campaign)
    journal_path = str(tmp_path / "v1.jsonl")

    def interrupt(done, total, result):
        if done == 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        harness.run_campaign("A", journal_path=journal_path,
                             progress=interrupt, **campaign)
    lines = open(journal_path).read().splitlines()
    header = json.loads(lines[0])
    assert header.pop("schema_version") is not None
    rewritten = [json.dumps(header)]
    for line in lines[1:]:
        record = json.loads(line)
        record["result"].pop("fault_model", None)
        record["result"].pop("fault_target", None)
        rewritten.append(json.dumps(record))
    with open(journal_path, "w") as fh:
        fh.write("\n".join(rewritten) + "\n")

    resumed = harness.run_campaign("A", journal_path=journal_path,
                                   resume=True, **campaign)
    assert resumed.meta["engine"]["resumed_results"] == 3
    assert ([r.to_dict() for r in resumed.results]
            == [r.to_dict() for r in serial.results])


def test_extrapolated_records_are_not_results(harness, tmp_path):
    """Old journals may hold records guessed from another site.

    Such a record carries an ``extrapolated`` block and the outcome of
    its class pilot, not of a run.  Every journal reader skips it:
    resume re-runs its index, a shard merge lists it as missing and a
    delta campaign's source loader omits its coordinates.
    """
    from repro.injection.fabric import merge_shard_journals
    from repro.injection.outcomes import NOT_ACTIVATED, NOT_MANIFESTED
    from repro.staticanalysis.delta import load_journal_results
    campaign = dict(seed=2003, byte_stride=3, max_specs=8, grade=False)
    journal_path = str(tmp_path / "old.jsonl")
    serial = harness.run_campaign("C", journal_path=journal_path,
                                  **campaign)
    guessed = [1, 4, 6]
    lines = open(journal_path).read().splitlines()
    rewritten = lines[:1]
    for line in lines[1:]:
        record = json.loads(line)
        if record["index"] in guessed:
            result = record["result"]
            result["outcome"] = (NOT_MANIFESTED
                                 if result["outcome"] == NOT_ACTIVATED
                                 else NOT_ACTIVATED)
            record["extrapolated"] = {"pilot_index": 0,
                                      "class_fp": "0" * 16,
                                      "n_members": 2}
        rewritten.append(json.dumps(record))
    with open(journal_path, "w") as fh:
        fh.write("\n".join(rewritten) + "\n")

    assert merge_shard_journals([journal_path]).missing == guessed
    _, by_coords = load_journal_results(journal_path)
    coords = [(r.function, r.addr, r.byte_offset, r.bit, r.fault_model)
              for r in serial.results]
    assert set(by_coords) == {c for i, c in enumerate(coords)
                              if i not in guessed}
    resumed = harness.run_campaign("C", journal_path=journal_path,
                                   resume=True, **campaign)
    assert (resumed.meta["engine"]["resumed_results"]
            == len(serial.results) - len(guessed))
    assert ([r.to_dict() for r in resumed.results]
            == [r.to_dict() for r in serial.results])
