"""The distributed campaign fabric.

Sharding is content-addressed and deterministic; merged shard journals
must be bit-identical to the one-host serial run no matter how the
shards executed — in order, in parallel, overlapping, retried after a
SIGKILL, or torn mid-write.  The boot-snapshot store must eliminate
per-process kernel boots without perturbing a single result.
"""

import json
import os
import pickle
import signal
import time

import pytest

from repro.cpu.translate import code_cache
from repro.injection.campaigns import plan_campaign, select_targets
from repro.injection.engine import CampaignJournal, plan_fingerprint
from repro.injection.fabric import (
    FabricConfig,
    FabricCoordinator,
    MergeError,
    ShardJournal,
    SnapshotStore,
    kernel_fingerprint,
    merge_shard_journals,
    plan_shards,
    read_heartbeat,
    run_shard,
    shard_fingerprint,
    write_heartbeat,
)
from repro.injection.runner import InjectionHarness
from tests.helpers import assert_same_golden, decode_parts

#: The deterministic slice every fabric test shards: an fs-heavy
#: campaign-C plan, small enough that running it a handful of ways
#: stays cheap.
SEED = 7
STRIDE = 3
MAX_SPECS = 6
CAMPAIGN = "C"


@pytest.fixture(scope="module")
def specs(harness):
    functions = select_targets(harness.kernel, harness.profile,
                               CAMPAIGN)
    planned = plan_campaign(harness.kernel, CAMPAIGN, functions,
                            seed=SEED, byte_stride=STRIDE)[:MAX_SPECS]
    for spec in planned:
        harness.assign_workload(spec)
    return planned


@pytest.fixture(scope="module")
def plan_fp(specs):
    return plan_fingerprint(CAMPAIGN, specs, SEED, STRIDE)


@pytest.fixture(scope="module")
def serial(harness, specs):
    """Reference serial execution (list of result dicts)."""
    from repro.injection.engine import CampaignEngine
    results, _ = CampaignEngine(harness).execute(
        CAMPAIGN, specs, SEED, STRIDE, grade=False)
    return [r.to_dict() for r in results]


def same_site(spec, target):
    return (spec.instr_addr == target.instr_addr
            and spec.byte_offset == target.byte_offset
            and spec.bit == target.bit)


def shard_paths(tmp_path, shards):
    return {s.index: str(tmp_path / ("shard_%d.jsonl" % s.index))
            for s in shards}


def run_all_shards(harness, specs, shards, paths, grade=False):
    for shard in shards:
        run_shard(harness, CAMPAIGN, specs, SEED, STRIDE, shard,
                  paths[shard.index], grade=grade)


class TestShardPlanning:
    def test_shards_partition_the_plan(self, plan_fp):
        shards = plan_shards(plan_fp, 10, 3)
        indices = sorted(i for s in shards for i in s.indices)
        assert indices == list(range(10))
        assert [len(s.indices) for s in shards] == [4, 3, 3]

    def test_fingerprints_are_content_addressed(self, plan_fp):
        shards = plan_shards(plan_fp, 10, 3)
        fps = {s.fingerprint for s in shards}
        assert len(fps) == 3                    # distinct per index
        assert plan_fp not in fps               # never the plan's own
        again = plan_shards(plan_fp, 10, 3)
        assert [s.fingerprint for s in again] \
            == [s.fingerprint for s in shards]  # deterministic
        assert shard_fingerprint(plan_fp, 1, 3) \
            == shards[1].fingerprint
        assert shard_fingerprint(plan_fp, 1, 4) \
            != shards[1].fingerprint            # count is bound in

    def test_oversharded_plans_have_empty_shards(self, plan_fp):
        shards = plan_shards(plan_fp, 2, 5)
        assert [len(s.indices) for s in shards] == [1, 1, 0, 0, 0]

    def test_shard_count_must_be_positive(self, plan_fp):
        with pytest.raises(ValueError):
            plan_shards(plan_fp, 10, 0)


class TestMergeEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_merge_of_split_equals_serial(self, harness, specs,
                                          plan_fp, serial, tmp_path,
                                          count):
        """The property the whole fabric rests on:
        merge(split(plan, N)) == serial, bit for bit."""
        shards = plan_shards(plan_fp, len(specs), count)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        merged = merge_shard_journals(sorted(paths.values()))
        assert merged.plan_fingerprint == plan_fp
        assert merged.complete
        assert merged.replayed == 0
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_overlapping_shard_attempts_dedup(self, harness, specs,
                                              plan_fp, serial,
                                              tmp_path):
        """Two complete attempts of the same shard (a retried runner
        whose first journal survived) merge exactly-once."""
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        replay_path = str(tmp_path / "shard_0_retry.jsonl")
        run_shard(harness, CAMPAIGN, specs, SEED, STRIDE, shards[0],
                  replay_path, grade=False)
        merged = merge_shard_journals(sorted(paths.values())
                                      + [replay_path])
        assert merged.replayed == len(shards[0].indices)
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_replayed_records_in_one_journal_dedup(self, harness,
                                                   specs, plan_fp,
                                                   serial, tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        lines = open(paths[1]).read().splitlines()
        with open(paths[1], "a") as fh:
            fh.write(lines[1] + "\n")           # replay one record
        merged = merge_shard_journals(sorted(paths.values()))
        assert merged.replayed == 1
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_torn_trailing_line_is_dropped(self, harness, specs,
                                           plan_fp, serial, tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        with open(paths[0], "a") as fh:
            fh.write('{"type": "result", "index": 4, "res')
        merged = merge_shard_journals(sorted(paths.values()))
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_incomplete_merge_reports_missing(self, harness, specs,
                                              plan_fp, tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_shard(harness, CAMPAIGN, specs, SEED, STRIDE, shards[0],
                  paths[0], grade=False)
        merged = merge_shard_journals([paths[0]])
        assert not merged.complete
        assert merged.missing == list(shards[1].indices)
        with pytest.raises(MergeError, match="missing"):
            merged.ordered()

    def test_empty_and_absent_journals_are_tolerated(self, harness,
                                                     specs, plan_fp,
                                                     serial, tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        absent = str(tmp_path / "never-written.jsonl")
        merged = merge_shard_journals(sorted(paths.values())
                                      + [empty, absent])
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_oversharded_header_only_journals_merge(self, harness,
                                                    specs, plan_fp,
                                                    serial, tmp_path):
        count = len(specs) + 2          # the last two shards are empty
        shards = plan_shards(plan_fp, len(specs), count)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        assert len(open(paths[count - 1]).read().splitlines()) == 1
        merged = merge_shard_journals(sorted(paths.values()))
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_plain_campaign_journal_merges_as_one_shard(
            self, harness, specs, plan_fp, serial, tmp_path):
        from repro.injection.engine import CampaignEngine, EngineConfig
        path = str(tmp_path / "serial.jsonl")
        CampaignEngine(harness, EngineConfig(journal_path=path)) \
            .execute(CAMPAIGN, specs, SEED, STRIDE, grade=False)
        merged = merge_shard_journals([path])
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_canonical_merged_journal_is_loadable(self, harness, specs,
                                                  plan_fp, serial,
                                                  tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        merged = merge_shard_journals(sorted(paths.values()))
        out = str(tmp_path / "canonical.jsonl")
        merged.write_journal(out)
        loaded = CampaignJournal(out).load(plan_fp)
        assert sorted(loaded) == list(range(len(specs)))
        assert [loaded[i].to_dict() for i in range(len(specs))] \
            == serial


class TestMergeRejection:
    def test_foreign_plan_is_rejected(self, harness, specs, plan_fp,
                                      tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        foreign_fp = plan_fingerprint(CAMPAIGN, specs, SEED + 1,
                                      STRIDE)
        foreign = str(tmp_path / "foreign.jsonl")
        journal = ShardJournal(foreign,
                               plan_shards(foreign_fp, len(specs),
                                           2)[0])
        journal.start("sub", CAMPAIGN, SEED + 1, len(specs))
        journal.close()
        with pytest.raises(MergeError, match="belongs to plan"):
            merge_shard_journals(sorted(paths.values()) + [foreign])

    def test_forged_shard_fingerprint_is_rejected(self, harness, specs,
                                                  plan_fp, tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        lines = open(paths[0]).read().splitlines()
        header = json.loads(lines[0])
        header["shard_index"] = 1       # claim another slice
        with open(paths[0], "w") as fh:
            fh.write("\n".join([json.dumps(header)] + lines[1:])
                     + "\n")
        with pytest.raises(MergeError, match="does not derive"):
            merge_shard_journals(sorted(paths.values()))

    def test_record_outside_shard_slice_is_rejected(self, harness,
                                                    specs, plan_fp,
                                                    tmp_path):
        shards = plan_shards(plan_fp, len(specs), 2)
        paths = shard_paths(tmp_path, shards)
        run_all_shards(harness, specs, shards, paths)
        lines = open(paths[0]).read().splitlines()
        record = json.loads(lines[1])
        record["index"] = 1             # shard 0/2 owns even indices
        with open(paths[0], "a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(MergeError, match="does not belong"):
            merge_shard_journals(sorted(paths.values()))

    def test_non_journal_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "noise.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "telemetry"}) + "\n")
        with pytest.raises(MergeError, match="not a campaign journal"):
            merge_shard_journals([path])

    def test_nothing_to_merge_is_an_error(self, tmp_path):
        with pytest.raises(MergeError, match="no journals"):
            merge_shard_journals([str(tmp_path / "absent.jsonl")])


class TestShardJournalResume:
    def test_killed_shard_resumes_its_own_journal(self, harness, specs,
                                                  plan_fp, serial,
                                                  tmp_path):
        """A shard SIGKILLed mid-run (torn record included) is re-run
        against the same journal and only finishes the remainder."""
        import multiprocessing
        shard = plan_shards(plan_fp, len(specs), 2)[0]
        path = str(tmp_path / "shard_0.jsonl")

        def doomed():
            def tear(done, total, result):
                if done == 1:
                    with open(path, "a") as fh:
                        fh.write('{"type": "result", "ind')
                        fh.flush()
                    os.kill(os.getpid(), signal.SIGKILL)

            run_shard(harness, CAMPAIGN, specs, SEED, STRIDE, shard,
                      path, grade=False, progress=tear)

        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=doomed)
        victim.start()
        victim.join(timeout=120)
        assert victim.exitcode == -signal.SIGKILL
        results, meta = run_shard(harness, CAMPAIGN, specs, SEED,
                                  STRIDE, shard, path, grade=False)
        assert meta["resumed_results"] == 1
        other = plan_shards(plan_fp, len(specs), 2)[1]
        other_path = str(tmp_path / "shard_1.jsonl")
        run_shard(harness, CAMPAIGN, specs, SEED, STRIDE, other,
                  other_path, grade=False)
        merged = merge_shard_journals([path, other_path])
        assert [r.to_dict() for r in merged.ordered()] == serial

    def test_shard_journal_rejects_foreign_shard(self, harness, specs,
                                                 plan_fp, tmp_path):
        from repro.injection.engine import JournalMismatch
        shards = plan_shards(plan_fp, len(specs), 2)
        path = str(tmp_path / "shard.jsonl")
        run_shard(harness, CAMPAIGN, specs, SEED, STRIDE, shards[0],
                  path, grade=False)
        with pytest.raises(JournalMismatch):
            run_shard(harness, CAMPAIGN, specs, SEED, STRIDE,
                      shards[1], path, grade=False)


class TestSnapshotStore:
    def test_store_round_trip_eliminates_boots(self, kernel, binaries,
                                               profile, tmp_path):
        store = SnapshotStore(str(tmp_path / "snapshots"))
        cold = InjectionHarness(kernel, binaries, profile,
                                snapshot_store=store)
        golden = cold.golden("fstime")
        assert cold.boots == 1
        assert store.misses == 1
        warm = InjectionHarness(kernel, binaries, profile,
                                snapshot_store=store)
        thawed = warm.golden("fstime")
        assert warm.boots == 0
        assert store.hits == 1
        # the controller's registers and the TLB are snapshot state
        for name in ("tlb", "tlb_gen", "disk_state"):
            assert getattr(thawed.snapshot, name) \
                == getattr(golden.snapshot, name), name
        assert golden.snapshot.tlb and golden.snapshot.disk_state[1]
        # every checkpoint and the first-window map thaw as frozen
        assert len(golden.checkpoints) > 2
        assert len(set(golden.coverage.values())) > 2
        assert_same_golden(thawed, golden)
        assert decode_parts(golden.checkpoints[-1])
        # each thawed decode is the one the kernel's decode memo holds
        memo = code_cache(kernel).decoded
        for snapshot in thawed.checkpoints:
            for part in snapshot.decoded:
                for key, (ins, _) in part.items():
                    assert memo[(ins.addr, isinstance(key, tuple))] is ins

    def test_version_2_entry_is_ignored_and_rebooted(self, kernel,
                                                     binaries, profile,
                                                     tmp_path):
        store = SnapshotStore(str(tmp_path / "snapshots"))
        cold = InjectionHarness(kernel, binaries, profile,
                                snapshot_store=store)
        golden = cold.golden("fstime")
        path = store._path(store.key(kernel, "fstime"))
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        # the version-2 layout: one post-boot snapshot, coverage a set
        payload.update(version=2, coverage=sorted(golden.coverage),
                       snapshot=payload.pop("checkpoints")[0])
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        warm = InjectionHarness(kernel, binaries, profile,
                                snapshot_store=store)
        run = warm.golden("fstime")
        assert warm.boots == 1
        assert store.hits == 0
        assert run.coverage == golden.coverage
        assert len(run.checkpoints) == len(golden.checkpoints)

    def test_warm_store_results_are_bit_identical(self, kernel,
                                                  binaries, profile,
                                                  specs, serial,
                                                  tmp_path):
        from repro.injection.engine import CampaignEngine
        store = SnapshotStore(str(tmp_path / "snapshots"))
        for label in ("cold", "warm"):
            harness = InjectionHarness(kernel, binaries, profile,
                                       snapshot_store=store)
            results, _ = CampaignEngine(harness).execute(
                CAMPAIGN, specs, SEED, STRIDE, grade=False)
            assert [r.to_dict() for r in results] == serial, label
        assert store.hits > 0

    def test_corrupt_entry_falls_back_to_boot(self, kernel, binaries,
                                              profile, tmp_path):
        store = SnapshotStore(str(tmp_path / "snapshots"))
        cold = InjectionHarness(kernel, binaries, profile,
                                snapshot_store=store)
        cold.golden("fstime")
        key = store.key(kernel, "fstime")
        with open(store._path(key), "wb") as fh:
            fh.write(b"not a pickle")
        warm = InjectionHarness(kernel, binaries, profile,
                                snapshot_store=store)
        run = warm.golden("fstime")
        assert warm.boots == 1          # silently re-booted
        assert run.result.status == "shutdown"

    def test_key_binds_kernel_and_config(self, kernel, tmp_path):
        store = SnapshotStore(str(tmp_path))
        base = store.key(kernel, "fstime")
        assert store.key(kernel, "fstime") == base
        assert store.key(kernel, "syscall") != base
        assert store.key(kernel, "fstime", recovery=True) != base
        assert store.key(kernel, "fstime", disk_retries=2) != base
        assert len(kernel_fingerprint(kernel)) == 16

    def test_constants_round_trip(self, kernel, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.load_constant(kernel, "crash_overhead") is None
        store.save_constant(kernel, "crash_overhead", 1234)
        assert store.load_constant(kernel, "crash_overhead") == 1234


class TestCoordinator:
    def test_pooled_run_is_bit_identical(self, harness, serial,
                                         tmp_path):
        coordinator = FabricCoordinator(harness,
                                        FabricConfig(pool=2))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=3,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert [r.to_dict() for r in results.results] == serial
        assert engine["mode"] == "fabric"
        assert engine["worker_failures"] == 0
        assert engine["serial_completions"] == 0
        assert engine["workers_spawned"] == 2

    def test_chaos_sigkill_is_survived_bit_identically(self, harness,
                                                       serial,
                                                       tmp_path):
        coordinator = FabricCoordinator(
            harness, FabricConfig(pool=2, chaos_kills=1,
                                  chaos_seed=SEED))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=3,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert engine["chaos_killed"]           # a shard really died
        assert engine["worker_failures"] >= 1
        assert engine["stolen_shards"] >= 1     # and was resumed
        assert [r.to_dict() for r in results.results] == serial
        assert engine["workers_spawned"] == 3

    def test_repeated_deaths_degrade_to_serial(self, harness, serial,
                                               tmp_path):
        coordinator = FabricCoordinator(
            harness, FabricConfig(pool=2, chaos_kills=3,
                                  chaos_seed=SEED,
                                  max_worker_failures=1))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=3,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert engine["degraded"] is True
        assert [r.to_dict() for r in results.results] == serial

    def test_stalled_lease_is_revoked_and_stolen(self, harness, serial,
                                                 monkeypatch,
                                                 tmp_path):
        """A worker that stops heartbeating loses its lease; the shard
        is re-dispatched and resumes, results unchanged."""
        stall_flag = tmp_path / "stalled-once"
        parent = os.getpid()
        real = harness.run_spec

        def stalling(spec, grade=True):
            if os.getpid() != parent and not stall_flag.exists():
                stall_flag.write_text("x")
                time.sleep(60)
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", stalling)
        coordinator = FabricCoordinator(
            harness, FabricConfig(pool=2, lease_timeout=1.5,
                                  backoff=0.0))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=2,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert engine["stalled_leases"] >= 1
        assert engine["stolen_shards"] >= 1
        assert [r.to_dict() for r in results.results] == serial

    def test_stall_on_a_second_lease_is_revoked_and_stolen(
            self, harness, specs, serial, monkeypatch, tmp_path):
        """The lease clock restarts at every lease: a worker that
        stalls on the second shard it holds loses that lease too."""
        target = specs[3]               # shard 3/4's first spec
        stall_flag = tmp_path / "stalled-once"
        parent = os.getpid()
        real = harness.run_spec

        def stalling(spec, grade=True):
            if os.getpid() != parent and same_site(spec, target) \
                    and not stall_flag.exists():
                stall_flag.write_text("x")
                time.sleep(60)
            return real(spec, grade=grade)

        monkeypatch.setattr(harness, "run_spec", stalling)
        coordinator = FabricCoordinator(
            harness, FabricConfig(pool=2, lease_timeout=1.5,
                                  backoff=0.0))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=4,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert stall_flag.exists()
        assert engine["stalled_leases"] >= 1
        assert engine["stolen_shards"] >= 1
        assert [r.to_dict() for r in results.results] == serial

    def test_death_after_shard_delivery_never_reruns_the_shard(
            self, harness, serial, monkeypatch, tmp_path):
        """A worker that dies right after reporting a shard done is
        retired, not re-leased that shard: the shard runs once."""
        import repro.injection.fabric as fabric_mod
        flag = str(tmp_path / "died-once")
        real_main = fabric_mod._shard_worker_main

        class DieAfterFirstReport:
            def __init__(self, conn):
                self._conn = conn

            def recv(self):
                return self._conn.recv()

            def close(self):
                self._conn.close()

            def send(self, report):
                self._conn.send(report)
                try:
                    os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    return
                os.kill(os.getpid(), signal.SIGKILL)

        def dying_main(*args):
            real_main(*args[:-1], DieAfterFirstReport(args[-1]))

        monkeypatch.setattr(fabric_mod, "_shard_worker_main",
                            dying_main)
        coordinator = FabricCoordinator(harness, FabricConfig(pool=2))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=4,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert os.path.exists(flag)             # a worker really died
        assert [r.to_dict() for r in results.results] == serial
        assert engine["worker_failures"] == 1
        assert engine["workers_spawned"] == 3
        assert engine["replayed_records"] == 0
        assert engine["serial_completions"] == 0

    def test_shard_jobs_fork_inside_pool_workers(self, harness, serial,
                                                 tmp_path):
        """A pool worker may fork the engine workers of its shard."""
        coordinator = FabricCoordinator(
            harness, FabricConfig(pool=2, shard_jobs=2, backoff=0.0))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=2,
            workdir=str(tmp_path / "fabric"), grade=False)
        engine = results.meta["engine"]
        assert engine["worker_failures"] == 0
        assert engine["degraded"] is False
        assert [r.to_dict() for r in results.results] == serial

    def test_fault_model_campaign_shards(self, harness, tmp_path):
        """A fault-model key plans and shards like campaigns A-C."""
        campaign = dict(seed=SEED, max_specs=MAX_SPECS, grade=False)
        expected = harness.run_campaign("D", **campaign)
        results = FabricCoordinator(
            harness, FabricConfig(pool=2)).run_campaign(
            "D", shard_count=3, workdir=str(tmp_path / "fabric"),
            **campaign)
        assert results.meta["engine"]["mode"] == "fabric"
        assert results.meta["fingerprint"] == \
            expected.meta["fingerprint"]
        assert ([r.to_dict() for r in results.results]
                == [r.to_dict() for r in expected.results])

    def test_serial_fallback_without_pool(self, harness, serial,
                                          tmp_path):
        coordinator = FabricCoordinator(harness, FabricConfig(pool=1))
        results = coordinator.run_campaign(
            CAMPAIGN, seed=SEED, byte_stride=STRIDE,
            max_specs=MAX_SPECS, shard_count=3,
            workdir=str(tmp_path / "fabric"), grade=False)
        assert results.meta["engine"]["mode"] == "fabric-serial"
        assert [r.to_dict() for r in results.results] == serial


class TestHeartbeats:
    def test_heartbeat_round_trip(self, tmp_path):
        path = str(tmp_path / "shard_0.heartbeat")
        write_heartbeat(path, 3, 10)
        beat = read_heartbeat(path)
        assert beat["done"] == 3
        assert beat["total"] == 10
        assert beat["time"] > 0
        assert read_heartbeat(str(tmp_path / "absent")) is None
        assert [p.name for p in tmp_path.iterdir()] \
            == ["shard_0.heartbeat"]    # atomic: no temp left behind
