"""The fault-tolerant campaign engine.

Serial, parallel and killed-and-resumed executions of the same plan
must produce identical results; harness faults must surface as
HARNESS_ERROR outcomes with repro bundles instead of aborting the
campaign; worker deaths must cost one retried experiment, never the
run.
"""

import json
import os
import signal
import time

import pytest

from repro.injection.campaigns import plan_campaign, select_targets
from repro.injection.engine import (
    KIND_WORKER_DIED,
    KIND_WORKER_TIMEOUT,
    CampaignJournal,
    JournalMismatch,
)
from repro.injection.outcomes import HARNESS_ERROR

#: One small, fully deterministic campaign slice shared by every test.
CAMPAIGN = dict(seed=7, byte_stride=3, max_specs=6, grade=False)


def run_campaign(harness, **overrides):
    kwargs = dict(CAMPAIGN)
    kwargs.update(overrides)
    return harness.run_campaign("C", **kwargs)


def result_dicts(campaign_results):
    return [r.to_dict() for r in campaign_results.results]


def core_meta(campaign_results):
    """Campaign metadata minus the per-run execution telemetry."""
    return {k: v for k, v in campaign_results.meta.items()
            if k != "engine"}


def planned_specs(harness):
    functions = select_targets(harness.kernel, harness.profile, "C")
    return plan_campaign(harness.kernel, "C", functions,
                         seed=CAMPAIGN["seed"],
                         byte_stride=CAMPAIGN["byte_stride"]
                         )[:CAMPAIGN["max_specs"]]


def match(spec, target):
    return (spec.instr_addr == target.instr_addr
            and spec.byte_offset == target.byte_offset
            and spec.bit == target.bit)


@pytest.fixture(scope="module")
def expected(harness):
    """The reference serial execution of the shared campaign slice."""
    return run_campaign(harness)


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self, harness,
                                                 expected):
        parallel = run_campaign(harness, jobs=3)
        assert result_dicts(parallel) == result_dicts(expected)
        assert core_meta(parallel) == core_meta(expected)
        assert parallel.meta["engine"]["mode"] == "parallel"
        assert parallel.meta["engine"]["worker_failures"] == 0

    def test_single_job_reports_serial_mode(self, expected):
        engine = expected.meta["engine"]
        assert engine["mode"] == "serial"
        assert engine["degraded"] is False


class TestJournalAndResume:
    def test_interrupted_campaign_resumes_exactly(self, harness,
                                                  expected, tmp_path):
        journal_path = str(tmp_path / "campaign.jsonl")

        def interrupt(done, total, result):
            if done == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(harness, journal_path=journal_path,
                         progress=interrupt)
        # the journal survived the interrupt with the completed work
        lines = open(journal_path).read().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert len(lines) == 1 + 3
        resumed = run_campaign(harness, journal_path=journal_path,
                               resume=True)
        assert result_dicts(resumed) == result_dicts(expected)
        assert resumed.meta["engine"]["resumed_results"] == 3
        # no duplicate or missing spec indices across both runs
        indices = [json.loads(line)["index"]
                   for line in open(journal_path).read().splitlines()[1:]]
        assert sorted(indices) == list(range(CAMPAIGN["max_specs"]))

    def test_torn_trailing_write_is_tolerated(self, harness, expected,
                                              tmp_path):
        journal_path = str(tmp_path / "campaign.jsonl")
        run_campaign(harness, journal_path=journal_path)
        with open(journal_path, "a") as fh:
            fh.write('{"type": "result", "index": 1, "resu')  # torn
        resumed = run_campaign(harness, journal_path=journal_path,
                               resume=True)
        assert result_dicts(resumed) == result_dicts(expected)

    def test_writer_sigkilled_mid_record_truncates_and_resumes(
            self, harness, expected, tmp_path):
        """A journal writer killed mid-record leaves a torn line; the
        resume must drop it, physically truncate it, and re-run only
        what the tear ate."""
        import multiprocessing
        journal_path = str(tmp_path / "campaign.jsonl")

        def doomed():
            def tear(done, total, result):
                if done == 2:
                    # Mimic the in-flight write the SIGKILL interrupts:
                    # half a record, no newline, then death.
                    with open(journal_path, "a") as fh:
                        fh.write('{"type": "result", "index": 2, "re')
                        fh.flush()
                    os.kill(os.getpid(), signal.SIGKILL)

            run_campaign(harness, journal_path=journal_path,
                         progress=tear)

        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(target=doomed)
        writer.start()
        writer.join(timeout=120)
        assert writer.exitcode == -signal.SIGKILL
        raw = open(journal_path).read()
        assert not raw.endswith("\n")       # the tear really is there
        resumed = run_campaign(harness, journal_path=journal_path,
                               resume=True)
        assert result_dicts(resumed) == result_dicts(expected)
        assert resumed.meta["engine"]["resumed_results"] == 2
        # the torn bytes were physically truncated, not appended onto
        lines = open(journal_path).read().splitlines()
        assert all(json.loads(line) for line in lines)
        indices = [json.loads(line)["index"] for line in lines[1:]]
        assert sorted(indices) == list(range(CAMPAIGN["max_specs"]))

    def test_journal_load_dedups_replayed_indices(self, harness,
                                                  expected, tmp_path):
        """Duplicate records for one index are legal (retried shards
        replay work) and resolve first-wins, except a HARNESS_ERROR
        placeholder loses to a real replayed result."""
        from repro.injection.engine import (
            harness_error_result,
            plan_fingerprint,
        )
        specs = planned_specs(harness)
        fingerprint = plan_fingerprint("C", specs, CAMPAIGN["seed"],
                                       CAMPAIGN["byte_stride"])
        real = expected.results[1]
        placeholder = harness_error_result(specs[1], "worker_died",
                                           "tb", CAMPAIGN["seed"])
        journal_path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal(journal_path)
        journal.start(fingerprint, "C", CAMPAIGN["seed"], len(specs))
        journal.close()
        with open(journal_path, "a") as fh:
            for result in (placeholder, real, placeholder):
                fh.write(json.dumps({"type": "result", "index": 1,
                                     "result": result.to_dict()})
                         + "\n")
        loaded = CampaignJournal(journal_path).load(fingerprint)
        # HARNESS_ERROR first, real replay second: the replay wins.
        assert loaded[1].to_dict() == real.to_dict()

    def test_duplicate_completion_is_an_error(self, harness, expected):
        """Dedup lives in the journal layer alone; the engine must
        refuse a second completion of the same index outright."""
        from repro.injection.engine import CampaignEngine
        engine = CampaignEngine(harness)
        results = {}
        engine._complete(3, expected.results[3], [None] * 6, results,
                         None, None)
        with pytest.raises(RuntimeError, match="completed twice"):
            engine._complete(3, expected.results[3], [None] * 6,
                             results, None, None)

    def test_resume_rejects_foreign_journal(self, harness, tmp_path):
        journal_path = str(tmp_path / "campaign.jsonl")
        with open(journal_path, "w") as fh:
            fh.write(json.dumps({"type": "header",
                                 "fingerprint": "not-this-plan"}) + "\n")
        with pytest.raises(JournalMismatch):
            run_campaign(harness, journal_path=journal_path,
                         resume=True)

    def test_journal_load_of_missing_file_is_empty(self, tmp_path):
        journal = CampaignJournal(str(tmp_path / "absent.jsonl"))
        assert journal.load("whatever") == {}


class TestHarnessFaultContainment:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_becomes_harness_error_with_repro_bundle(
            self, harness, expected, monkeypatch, jobs):
        target = planned_specs(harness)[3]
        real = harness.run_spec

        def exploding(spec, grade=True):
            if match(spec, target):
                raise RuntimeError("decoder exploded on corrupt opcode")
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", exploding)
        out = run_campaign(harness, jobs=jobs)
        failed = out.results[3]
        assert failed.outcome == HARNESS_ERROR
        assert not failed.activated
        assert "decoder exploded" in failed.repro["traceback"]
        assert failed.repro["seed"] == CAMPAIGN["seed"]
        assert failed.repro["spec"]["function"] == target.function
        assert out.meta["engine"]["harness_errors"] == 1
        # the rest of the campaign is untouched
        others = [d for i, d in enumerate(result_dicts(out)) if i != 3]
        expected_others = [d for i, d in
                           enumerate(result_dicts(expected)) if i != 3]
        assert others == expected_others


class TestWorkerFaultTolerance:
    def test_sigkilled_worker_costs_one_retry_not_the_campaign(
            self, harness, expected, monkeypatch, tmp_path):
        target = planned_specs(harness)[3]
        flag = tmp_path / "already-killed"
        parent = os.getpid()
        real = harness.run_spec

        def kill_once(spec, grade=True):
            if (os.getpid() != parent and match(spec, target)
                    and not flag.exists()):
                flag.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", kill_once)
        out = run_campaign(harness, jobs=2)
        assert result_dicts(out) == result_dicts(expected)
        assert out.meta["engine"]["worker_failures"] == 1
        assert out.meta["engine"]["degraded"] is False

    def test_death_after_delivery_never_reruns_the_spec(
            self, harness, expected, monkeypatch, tmp_path):
        """A worker that dies right after sending its (journaled)
        result must be retired, not re-enqueued: the result is
        harvested from the pipe and the spec runs exactly once."""
        import repro.injection.engine as engine_mod
        target = planned_specs(harness)[3]
        runs = tmp_path / "target-runs"
        parent = os.getpid()
        real_spec = harness.run_spec
        real_main = engine_mod._worker_main

        def counting(spec, grade=True):
            if os.getpid() != parent and match(spec, target):
                with open(runs, "a") as fh:
                    fh.write("x")
            return real_spec(spec, grade=grade)

        class DieAfterSend:
            def __init__(self, conn, specs):
                self._conn = conn
                self._specs = specs

            def recv(self):
                return self._conn.recv()

            def close(self):
                self._conn.close()

            def send(self, payload):
                self._conn.send(payload)
                if match(self._specs[payload[0]], target):
                    os.kill(os.getpid(), signal.SIGKILL)

        def dying_main(h, specs, grade, seed, conn):
            real_main(h, specs, grade, seed,
                      DieAfterSend(conn, specs))

        monkeypatch.setattr(harness, "run_spec", counting)
        monkeypatch.setattr(engine_mod, "_worker_main", dying_main)
        out = run_campaign(harness, jobs=2)
        assert result_dicts(out) == result_dicts(expected)
        assert runs.read_text() == "x"      # ran exactly once
        assert out.meta["engine"]["worker_failures"] == 1
        assert out.meta["engine"]["harness_errors"] == 0

    def test_retries_exhausted_yields_harness_error(self, harness,
                                                    monkeypatch,
                                                    expected):
        import repro.injection.engine as engine_mod
        target = planned_specs(harness)[3]
        parent = os.getpid()
        real = harness.run_spec

        def kill_always(spec, grade=True):
            if os.getpid() != parent and match(spec, target):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", kill_always)
        monkeypatch.setattr(engine_mod, "RETRIES", 1)
        monkeypatch.setattr(engine_mod, "MAX_WORKER_FAILURES", 10)
        out = run_campaign(harness, jobs=2)
        failed = out.results[3]
        assert failed.outcome == HARNESS_ERROR
        assert failed.repro["kind"] == KIND_WORKER_DIED
        assert out.meta["engine"]["worker_failures"] == 2
        others = [d for i, d in enumerate(result_dicts(out)) if i != 3]
        expected_others = [d for i, d in
                           enumerate(result_dicts(expected)) if i != 3]
        assert others == expected_others

    def test_repeated_failures_degrade_to_serial(self, harness,
                                                 monkeypatch, expected):
        import repro.injection.engine as engine_mod
        target = planned_specs(harness)[3]
        parent = os.getpid()
        real = harness.run_spec

        def poison(spec, grade=True):
            if match(spec, target):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("fails in-process too")
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", poison)
        monkeypatch.setattr(engine_mod, "MAX_WORKER_FAILURES", 1)
        out = run_campaign(harness, jobs=2)
        engine = out.meta["engine"]
        assert engine["degraded"] is True
        assert "worker failures" in engine["degraded_reason"]
        # the poisoned spec is contained, everything else completes
        assert out.results[3].outcome == HARNESS_ERROR
        others = [d for i, d in enumerate(result_dicts(out)) if i != 3]
        expected_others = [d for i, d in
                           enumerate(result_dicts(expected)) if i != 3]
        assert others == expected_others


class TestWatchdog:
    """The timeout rung: a lease that outruns ``DEFAULT_TIMEOUT`` is
    revoked, its worker killed and its spec retried in a fresh one."""

    def test_overdue_spec_is_retried_in_a_fresh_worker(
            self, harness, expected, monkeypatch, tmp_path):
        import repro.injection.engine as engine_mod
        target = planned_specs(harness)[3]
        flag = tmp_path / "already-stalled"
        parent = os.getpid()
        real = harness.run_spec

        def stall_once(spec, grade=True):
            if (os.getpid() != parent and match(spec, target)
                    and not flag.exists()):
                flag.write_text("x")
                time.sleep(60)
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", stall_once)
        monkeypatch.setattr(engine_mod, "DEFAULT_TIMEOUT", 1.0)
        monkeypatch.setattr(engine_mod, "MAX_WORKER_FAILURES", 10)
        out = run_campaign(harness, jobs=2)
        assert flag.exists()
        assert result_dicts(out) == result_dicts(expected)
        assert out.meta["engine"]["worker_failures"] == 1
        assert out.meta["engine"]["degraded"] is False

    def test_always_overdue_spec_yields_worker_timeout(
            self, harness, expected, monkeypatch, tmp_path):
        import repro.injection.engine as engine_mod
        target = planned_specs(harness)[3]
        leases = tmp_path / "target-leases"
        parent = os.getpid()
        real = harness.run_spec

        def stall_always(spec, grade=True):
            if os.getpid() != parent and match(spec, target):
                with open(leases, "a") as fh:
                    fh.write("x")
                time.sleep(60)
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", stall_always)
        monkeypatch.setattr(engine_mod, "DEFAULT_TIMEOUT", 1.0)
        monkeypatch.setattr(engine_mod, "MAX_WORKER_FAILURES", 10)
        out = run_campaign(harness, jobs=2)
        failed = out.results[3]
        assert failed.outcome == HARNESS_ERROR
        assert failed.repro["kind"] == KIND_WORKER_TIMEOUT
        assert leases.read_text() == "x" * (engine_mod.RETRIES + 1)
        assert out.meta["engine"]["worker_failures"] \
            == engine_mod.RETRIES + 1
        others = [d for i, d in enumerate(result_dicts(out)) if i != 3]
        expected_others = [d for i, d in
                           enumerate(result_dicts(expected)) if i != 3]
        assert others == expected_others


class TestAtomicSave:
    def test_save_is_atomic_and_leaves_no_temp_files(self, harness,
                                                     expected,
                                                     tmp_path):
        from repro.injection.runner import CampaignResults
        path = tmp_path / "out.json"
        expected.save(str(path))
        loaded = CampaignResults.load(str(path))
        assert result_dicts(loaded) == result_dicts(expected)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_save_preserves_previous_file(self, tmp_path):
        from repro.injection.runner import CampaignResults
        path = tmp_path / "out.json"
        good = CampaignResults("C", [], {"note": "good"})
        good.save(str(path))
        bad = CampaignResults("C", [], {"unserializable": object()})
        with pytest.raises(TypeError):
            bad.save(str(path))
        # the old complete file is still there, not a truncated one
        assert CampaignResults.load(str(path)).meta["note"] == "good"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
