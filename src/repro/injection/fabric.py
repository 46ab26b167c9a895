"""Distributed campaign fabric: shards, coordinator, exactly-once merge.

The paper's characterization rests on >35,000 injections on one rig;
the ROADMAP's north star is millions of sites across many hosts.  This
module is the distribution layer that gets there without giving up the
repo's core invariant — *bit-identical results no matter how the
campaign was executed*:

* **shard planner** — a deterministic campaign plan is split into N
  **content-addressed shards**: shard *i/N* owns the round-robin index
  slice ``{i, i+N, i+2N, ...}`` and is named by a fingerprint derived
  from the plan fingerprint plus ``i/N``.  Any host that can rebuild
  the plan (same kernel, seed, stride) rebuilds the identical shard —
  ``kfabric run --shard i/N`` needs no coordination, just GNU parallel
  or a CI matrix.
* **shard journals** — each shard appends to its own JSONL journal
  whose header binds it to both fingerprints; records carry *global*
  plan indices so journals merge without translation.
* **exactly-once merger** — :func:`merge_shard_journals` combines any
  set of shard journals (including overlapping retries of the same
  shard) into one canonical journal: replayed indices deduplicate via
  :func:`~repro.injection.engine.prefer_result`, torn trailing lines
  from SIGKILLed writers are dropped, and journals from a different
  plan or with a forged shard fingerprint are rejected.  A merged
  N-shard run is bit-identical to the 1-host serial run.
* **coordinator** — :class:`FabricCoordinator` leases shards, one
  after another, to the engine's
  :class:`~repro.injection.engine.WorkerPool`, whose workers live for
  the whole campaign, with heartbeat files, lease timeouts, bounded
  retry/backoff, and work stealing (a revoked lease puts the shard
  back on the queue where the next idle worker picks it up and
  *resumes* its journal).  Repeated worker deaths degrade the whole
  fabric to in-process serial execution — the same reformat/reinstall
  rung the per-experiment engine already has, one level up.
* **boot-snapshot store** — :class:`SnapshotStore` content-addresses
  post-boot golden state on (kernel fingerprint, workload, harness
  config) so every shard process — including ones on other hosts
  sharing the directory — skips kernel boot entirely.

See docs/fabric.md for the on-disk formats and protocol details.
"""

import hashlib
import json
import os
import pickle
import random
import signal
import time
import traceback

from repro.injection.engine import (
    CampaignEngine,
    CampaignJournal,
    EngineConfig,
    JournalMismatch,
    WorkerPool,
    fork_available,
    plan_fingerprint,
    prefer_result,
    read_journal_lines,
    result_records,
    run_spec_contained,
)
from repro.injection.outcomes import HARNESS_ERROR, InjectionResult

#: Version of the shard-journal header layout.
SHARD_SCHEMA_VERSION = 1

#: Version of the boot-snapshot store's pickle payload (3: the golden
#: run's checkpoints and first-window coverage map).
STORE_VERSION = 3

#: How a shard failure is reported in coordinator telemetry.
SHARD_DIED = "shard_died"
SHARD_STALLED = "shard_stalled"


class MergeError(RuntimeError):
    """A shard journal cannot be merged (wrong plan, forged shard)."""


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------

def shard_fingerprint(plan_fp, index, count):
    """Content address of shard *index*/*count* of a plan.

    Folding the shard coordinates into the plan fingerprint means two
    journals merge iff they slice the *same* plan the *same* way; a
    shard of a different campaign, seed, stride or shard count can
    never be mistaken for this one.
    """
    blob = ("%s:%d/%d" % (plan_fp, index, count)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class ShardSpec:
    """One shard's identity: which plan, which slice, which name."""

    __slots__ = ("index", "count", "plan_fingerprint", "fingerprint",
                 "n_specs", "indices")

    def __init__(self, index, count, plan_fp, n_specs):
        self.index = index
        self.count = count
        self.plan_fingerprint = plan_fp
        self.fingerprint = shard_fingerprint(plan_fp, index, count)
        self.n_specs = n_specs
        self.indices = tuple(range(index, n_specs, count))

    def __repr__(self):
        return ("ShardSpec(%d/%d of %s: %d specs)"
                % (self.index, self.count, self.plan_fingerprint,
                   len(self.indices)))


def plan_shards(plan_fp, n_specs, count):
    """Split a plan of *n_specs* into *count* content-addressed shards.

    Round-robin assignment: prioritized plans front-load interesting
    sites, so striding balances them across shards instead of handing
    shard 0 all the crashes.  A shard may be empty when
    ``count > n_specs`` — it still has a fingerprint and journals a
    header, so a CI matrix of fixed width handles any plan size.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1, not %d" % count)
    return [ShardSpec(i, count, plan_fp, n_specs)
            for i in range(count)]


# ---------------------------------------------------------------------------
# shard journals
# ---------------------------------------------------------------------------

class ShardJournal(CampaignJournal):
    """A shard's journal: shard header, *global* plan indices.

    Duck-types :class:`~repro.injection.engine.CampaignJournal` for the
    engine (which runs the shard's spec subset under local indices 0..k
    and never sees the mapping).  Inherits the torn-tail truncation,
    exactly-once ``record`` and duplicate-tolerant ``load``.
    """

    def __init__(self, path, shard):
        CampaignJournal.__init__(self, path)
        self.shard = shard
        self._to_local = {g: l for l, g in enumerate(shard.indices)}

    def _check_header(self, header, fingerprint):
        if header.get("type") != "shard_header" \
                or header.get("fingerprint") != fingerprint \
                or header.get("shard_fingerprint") != \
                self.shard.fingerprint:
            raise JournalMismatch(
                "journal %s was written for a different shard "
                "(shard fingerprint %r, expected %r)"
                % (self.path, header.get("shard_fingerprint"),
                   self.shard.fingerprint))

    def _local_index(self, stored_index):
        return self._to_local.get(stored_index)

    def _note_loaded(self, completed):
        self._seen.update(self.shard.indices[i] for i in completed)

    def _header(self, fingerprint, campaign_key, seed, n_specs):
        from repro.injection.campaigns import SPEC_SCHEMA_VERSION
        shard = self.shard
        return {"type": "shard_header",
                "fingerprint": fingerprint,
                "plan_fingerprint": shard.plan_fingerprint,
                "shard_fingerprint": shard.fingerprint,
                "shard_index": shard.index,
                "shard_count": shard.count,
                "shard_size": len(shard.indices),
                "n_specs": shard.n_specs,
                "campaign": campaign_key, "seed": seed,
                "schema_version": SPEC_SCHEMA_VERSION,
                "shard_schema_version": SHARD_SCHEMA_VERSION}

    def _stored_index(self, index):
        return self.shard.indices[index]


def run_shard(harness, campaign_key, specs, seed, byte_stride, shard,
              journal_path, grade=True, jobs=1, resume=True,
              progress=None, timeout=None, retries=2,
              max_worker_failures=3):
    """Execute one shard of a planned campaign; returns
    ``(results, engine_meta)`` with *results* ordered by the shard's
    local index.

    *specs* is the **full** plan (every participant re-plans it
    deterministically); the shard's subset is carved here so a shard
    run on another host journals exactly the same global indices.  By
    default the shard *resumes* its journal, so retrying a killed
    shard re-runs only what is missing.
    """
    subset = [specs[i] for i in shard.indices]
    journal = ShardJournal(journal_path, shard)
    config = EngineConfig(jobs=jobs, timeout=timeout, retries=retries,
                          max_worker_failures=max_worker_failures,
                          journal_path=journal_path, resume=resume)
    engine = CampaignEngine(harness, config)
    return engine.execute(campaign_key, subset, seed, byte_stride,
                          grade=grade, progress=progress,
                          journal=journal)


# ---------------------------------------------------------------------------
# exactly-once merge
# ---------------------------------------------------------------------------

class MergedCampaign:
    """The result of merging shard journals back into one campaign."""

    def __init__(self, plan_fp, campaign, seed, n_specs):
        self.plan_fingerprint = plan_fp
        self.campaign = campaign
        self.seed = seed
        self.n_specs = n_specs
        self.results = {}       # global index -> InjectionResult
        self.replayed = 0       # duplicate records deduplicated away
        self.shards_seen = []   # (shard_index, shard_count) pairs
        self.journals = 0

    @property
    def missing(self):
        return sorted(set(range(self.n_specs)) - set(self.results))

    @property
    def complete(self):
        return not self.missing

    def ordered(self):
        """Results by plan index; raises MergeError when incomplete."""
        if not self.complete:
            raise MergeError(
                "merge is missing %d of %d results (first missing "
                "index %d)" % (len(self.missing), self.n_specs,
                               self.missing[0]))
        return [self.results[i] for i in range(self.n_specs)]

    def write_journal(self, path):
        """Write the canonical merged journal.

        The output is a plain :class:`CampaignJournal` bound to the
        *plan* fingerprint with results in index order — loadable (and
        resumable, should the merge be partial) by the engine exactly
        as if one host had run the whole campaign.
        """
        journal = CampaignJournal(path)
        journal.start(self.plan_fingerprint, self.campaign, self.seed,
                      self.n_specs, fresh=True)
        try:
            for index in sorted(self.results):
                journal.record(index, self.results[index])
        finally:
            journal.close()


def _add_record(merged, global_index, result):
    if global_index in merged.results:
        merged.replayed += 1
        merged.results[global_index] = prefer_result(
            merged.results[global_index], result)
    else:
        merged.results[global_index] = result


def merge_shard_journals(paths, plan_fp=None, n_specs=None):
    """Merge shard journals into one :class:`MergedCampaign`.

    Tolerates: overlapping journals (two attempts of the same shard),
    replayed indices inside one journal, torn trailing lines, empty
    files and header-only journals (a shard that never got to work, or
    an empty shard of an over-sharded plan).  A plain (non-shard)
    campaign journal is accepted as the degenerate 1/1 shard.

    Rejects with :class:`MergeError`: journals of a different plan
    fingerprint, a shard fingerprint that does not derive from its
    claimed coordinates (forged or corrupted header), a record whose
    index does not belong to its shard's slice, and inconsistent
    ``n_specs`` across headers.
    """
    merged = None
    for path in paths:
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            continue
        records, _ = read_journal_lines(path)
        if not records:
            continue            # torn header: the shard wrote nothing
        header = records[0]
        kind = header.get("type")
        if kind == "header":
            index, count = 0, 1
            journal_plan = header.get("fingerprint")
        elif kind == "shard_header":
            index = header.get("shard_index")
            count = header.get("shard_count")
            journal_plan = header.get("plan_fingerprint")
            if header.get("shard_fingerprint") != \
                    shard_fingerprint(journal_plan, index, count):
                raise MergeError(
                    "%s: shard fingerprint %r does not derive from "
                    "plan %r shard %s/%s"
                    % (path, header.get("shard_fingerprint"),
                       journal_plan, index, count))
        else:
            raise MergeError("%s: not a campaign journal (first "
                             "record type %r)" % (path, kind))
        if plan_fp is None:
            plan_fp = journal_plan
        if journal_plan != plan_fp:
            raise MergeError(
                "%s belongs to plan %r, expected %r"
                % (path, journal_plan, plan_fp))
        total = header.get("n_specs")
        if n_specs is None:
            n_specs = total
        if total is not None and total != n_specs:
            raise MergeError("%s: plan has %s specs, expected %s"
                             % (path, total, n_specs))
        if merged is None:
            merged = MergedCampaign(plan_fp, header.get("campaign"),
                                    header.get("seed"), n_specs or 0)
        merged.journals += 1
        merged.shards_seen.append((index, count))
        for record in result_records(records[1:]):
            global_index = record["index"]
            if global_index % count != index \
                    or not 0 <= global_index < (n_specs or 0):
                raise MergeError(
                    "%s: record index %d does not belong to shard "
                    "%d/%d" % (path, global_index, index, count))
            _add_record(merged, global_index,
                        InjectionResult.from_dict(record["result"]))
    if merged is None:
        if plan_fp is None or n_specs is None:
            raise MergeError("no journals to merge and no plan "
                             "fingerprint/size given")
        merged = MergedCampaign(plan_fp, None, None, n_specs)
    return merged


# ---------------------------------------------------------------------------
# boot-snapshot store
# ---------------------------------------------------------------------------

def kernel_fingerprint(kernel):
    """Stable content address of a built kernel image."""
    digest = hashlib.sha256()
    digest.update(bytes(kernel.code))
    digest.update(("@%d" % kernel.base).encode())
    return digest.hexdigest()[:16]


class SnapshotStore:
    """Content-addressed store of post-boot golden state.

    Booting to the injection point dominates a shard's startup cost;
    the store keys frozen :class:`~repro.injection.runner.GoldenRun`
    bundles (the golden run's checkpoints, its workload result, its
    coverage map, boot cycle count) on ``(kernel fingerprint, workload,
    recovery, disk_retries)`` so a kernel/workload pair boots **once**
    per store, not once per shard process.  Entries are written
    atomically and verified against the live kernel on load; a
    corrupt or stale entry silently falls back to a real boot.

    Layout: ``<root>/<key>.golden`` (pickled state bundle) and
    ``<root>/<key>.const.json`` (small calibration constants such as
    the crash-handler overhead).
    """

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0

    # -- keys ---------------------------------------------------------------

    def key(self, kernel, workload, recovery=False, disk_retries=0):
        blob = json.dumps({
            "v": STORE_VERSION,
            "kernel": kernel_fingerprint(kernel),
            "workload": workload,
            "recovery": bool(recovery),
            "disk_retries": int(disk_retries),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def _path(self, key, suffix=".golden"):
        return os.path.join(self.root, key + suffix)

    def __contains__(self, key):
        """Whether an entry is stored under *key* (it may still fail
        to load)."""
        return os.path.exists(self._path(key))

    # -- golden bundles -----------------------------------------------------

    def load(self, key, kernel):
        """Thaw a GoldenRun for *kernel*, or ``None`` on any mismatch."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ValueError):
            return None
        if payload.get("version") != STORE_VERSION \
                or payload.get("kernel") != kernel_fingerprint(kernel):
            return None
        self.hits += 1
        return _thaw_golden(payload, kernel)

    def save(self, key, golden_run):
        """Freeze *golden_run* under *key* (first writer wins)."""
        path = self._path(key)
        if os.path.exists(path):
            return
        os.makedirs(self.root, exist_ok=True)
        self.misses += 1
        payload = _freeze_golden(golden_run)
        tmp = path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- calibration constants ----------------------------------------------

    def load_constant(self, kernel, name):
        path = self._path(self.key(kernel, "__%s__" % name),
                          suffix=".const.json")
        try:
            with open(path) as fh:
                return json.load(fh)["value"]
        except (OSError, ValueError, KeyError):
            return None

    def save_constant(self, kernel, name, value):
        from repro.injection.engine import atomic_write_json
        os.makedirs(self.root, exist_ok=True)
        path = self._path(self.key(kernel, "__%s__" % name),
                          suffix=".const.json")
        atomic_write_json(path, {"value": value})


#: MachineSnapshot attributes beyond the CPU field dict that the store
#: serializes (the kernel/layout references are re-attached on thaw).
#: The checkpoints are pickled together, so the RAM and disk bytes a
#: page-delta checkpoint shares with checkpoint 0, and the page bytes
#: and decode-cache parts it shares with its predecessor, are stored
#: once.
_SNAP_STATE = ("ram", "pages", "cr3", "paging_enabled", "tlb", "tlb_gen",
               "disk", "sectors", "disk_state", "transferred", "console",
               "regs", "segs", "dr", "fields", "decoded", "versions")

#: Golden RunResult fields the store round-trips (a golden run shut
#: down cleanly, so there are no crash records and no trace).
_RESULT_STATE = ("status", "exit_code", "console", "cycles", "instret",
                 "disk_image", "detail")


def _freeze_golden(run):
    return {
        "version": STORE_VERSION,
        "kernel": kernel_fingerprint(run.snapshot.kernel),
        "workload": run.workload,
        "boot_cycles": run.boot_cycles,
        "coverage": run.coverage,
        "disk_image": bytes(run.disk_image.image)
        if hasattr(run.disk_image, "image") else bytes(run.disk_image),
        "checkpoints": [{name: getattr(snap, name)
                         for name in _SNAP_STATE}
                        for snap in run.checkpoints],
        "result": {name: getattr(run.result, name)
                   for name in _RESULT_STATE},
    }


def _thaw_golden(payload, kernel):
    from repro.machine.machine import MachineSnapshot, RunResult
    from repro.injection.runner import GoldenRun

    checkpoints = []
    for state in payload["checkpoints"]:
        snap = MachineSnapshot.__new__(MachineSnapshot)
        snap.kernel = kernel
        snap.layout = kernel.layout
        for name in _SNAP_STATE:
            setattr(snap, name, state[name])
        checkpoints.append(snap)
    cache = getattr(kernel, "_code_cache", None)
    if cache is not None:
        _intern_decoded(checkpoints, cache.decoded)
    fields = payload["result"]
    result = RunResult(fields["status"], fields["exit_code"],
                       fields["console"], None, fields["cycles"],
                       fields["instret"], fields["disk_image"],
                       detail=fields["detail"])
    return GoldenRun(payload["workload"], result, payload["coverage"],
                     payload["disk_image"], payload["boot_cycles"],
                     checkpoints)


def _intern_decoded(checkpoints, memo):
    """Share thawed decodes with the kernel's decode memo.

    *memo* is ``CodeCache.decoded``, ``(eip, user) -> Instr``.  A
    thawed decode-cache entry takes the memo's instruction where that
    was decoded from the same bytes, and otherwise becomes the memo's
    entry for its address, as a fresh decode would.  A decoded
    instruction depends on its address and bytes alone, so either
    object runs the same.  User text is keyed by TLB generation and
    address in the decode cache, kernel text by address alone.
    """
    parts = {id(part): part for snap in checkpoints
             for part in snap.decoded}
    for part in parts.values():
        for key, (ins, stamps) in part.items():
            slot = (ins.addr, isinstance(key, tuple))
            known = memo.get(slot)
            if known is None or known.raw != ins.raw:
                memo[slot] = ins
            elif known is not ins:
                part[key] = (known, stamps)


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

class FabricConfig:
    """Tuning knobs for :class:`FabricCoordinator`."""

    __slots__ = ("pool", "shard_jobs", "lease_timeout", "retries",
                 "backoff", "max_worker_failures", "chaos_kills",
                 "chaos_after", "chaos_seed")

    def __init__(self, pool=2, shard_jobs=1, lease_timeout=120.0,
                 retries=2, backoff=0.25, max_worker_failures=None,
                 chaos_kills=0, chaos_after=1, chaos_seed=0):
        self.pool = max(1, int(pool))
        self.shard_jobs = max(1, int(shard_jobs))
        self.lease_timeout = lease_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_worker_failures = max_worker_failures
        #: Chaos mode: SIGKILL this many shard workers mid-run (each
        #: victim dies after journaling *chaos_after* results on its
        #: first attempt), exercising lease revocation, retry-with-
        #: resume and the merger's replay tolerance end to end.
        self.chaos_kills = int(chaos_kills)
        self.chaos_after = max(1, int(chaos_after))
        self.chaos_seed = chaos_seed


def write_heartbeat(path, done, total):
    """Stamp a shard's lease file (atomic: readers never see a tear)."""
    payload = {"time": time.time(), "done": done, "total": total}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def read_heartbeat(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _shard_worker_main(harness, campaign_key, specs, seed, byte_stride,
                       grade, shard_jobs, conn):
    """Fabric worker loop: receive a shard lease, run it, report back.

    Forked once per campaign, so the harness (kernel, golden snapshots,
    snapshot store) is inherited copy-on-write and the translation
    cache one shard warms serves the worker's next.  A lease is
    ``(shard, journal_path, heartbeat_path, chaos_after)``; the report
    is ``(shard_index, None)``, or ``(shard_index, traceback)`` for a
    shard that raised, after which the worker exits.  *chaos_after*
    arms the self-SIGKILL of the validation exhibit's chaos mode: the
    worker dies for real, mid-shard, right after fsyncing its n-th
    record, so the lease must be revoked and a retry must resume the
    journal for the campaign to come out bit-identical.
    """
    try:
        while True:
            lease = conn.recv()
            if lease is None:
                break
            shard, journal_path, heartbeat_path, chaos_after = lease
            total = len(shard.indices)

            def beat(done, _total, result):
                write_heartbeat(heartbeat_path, done, total)
                if chaos_after is not None and done >= chaos_after:
                    os.kill(os.getpid(), signal.SIGKILL)

            try:
                write_heartbeat(heartbeat_path, 0, total)
                run_shard(harness, campaign_key, specs, seed, byte_stride,
                          shard, journal_path, grade=grade,
                          jobs=shard_jobs, resume=True, progress=beat)
            except Exception:
                conn.send((shard.index, traceback.format_exc()))
                break
            conn.send((shard.index, None))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class _ShardTask:
    """Coordinator bookkeeping for one shard."""

    __slots__ = ("shard", "journal_path", "heartbeat_path", "chaos_after")

    def __init__(self, shard, workdir):
        self.shard = shard
        name = "shard_%d_of_%d" % (shard.index, shard.count)
        self.journal_path = os.path.join(workdir, name + ".jsonl")
        self.heartbeat_path = os.path.join(workdir, name + ".heartbeat")
        self.chaos_after = None


class _ShardPool(WorkerPool):
    """The fabric's pool: an item is a shard index, leased with the
    shard's journal, heartbeat file and chaos point."""

    DIED = SHARD_DIED
    OVERDUE = SHARD_STALLED

    def __init__(self, coordinator, campaign_key, specs, seed,
                 byte_stride, tasks, grade, meta):
        config = coordinator.config
        WorkerPool.__init__(self, config.pool, config.retries,
                            config.backoff,
                            coordinator._max_worker_failures(len(tasks)),
                            meta)
        self.coordinator = coordinator
        self.run_args = (campaign_key, specs, seed, byte_stride)
        self.tasks = tasks
        self.grade = grade

    def target(self, conn):
        coordinator = self.coordinator
        return _shard_worker_main, (
            (coordinator.harness,) + self.run_args
            + (self.grade, coordinator.config.shard_jobs, conn))

    def payload(self, index, attempt):
        task = self.tasks[index]
        # Only a chaos victim's first lease is armed to die.
        return (task.shard, task.journal_path, task.heartbeat_path,
                None if attempt else task.chaos_after)

    def overdue(self, worker, now):
        beat = read_heartbeat(self.tasks[worker.item].heartbeat_path)
        last = worker.leased_at
        if beat is not None and beat["time"] > last:
            last = beat["time"]
        return now - last > self.coordinator.config.lease_timeout

    def deliver(self, index, message):
        return message[1]

    def give_up(self, index, kind, attempts, detail):
        # The shard's journaled prefix still merges and the serial
        # backfill runs the rest: a shard failure can cost wall-clock
        # but never results.
        self.meta["shard_failures"][str(index)] = \
            detail or "%s after %d attempts" % (kind, attempts)

    def degrade(self, indices):
        # Finish every unfinished shard in-process, resuming the
        # journals the dead workers left behind.
        for index in indices:
            self.coordinator._run_shard_inline(
                *self.run_args, self.tasks[index], self.grade)


class FabricCoordinator:
    """Crash-tolerant dispatch of campaign shards to a worker pool."""

    def __init__(self, harness, config=None):
        self.harness = harness
        self.config = config or FabricConfig()

    # -- public entry points -------------------------------------------------

    def run_campaign(self, campaign_key, seed=2003, byte_stride=1,
                     shard_count=3, workdir=None, functions=None,
                     max_per_function=None, max_specs=None, grade=True,
                     static_verdicts=False):
        """Plan a campaign of any kind and run it sharded; returns
        CampaignResults.

        The drop-in fabric counterpart of
        :meth:`~repro.injection.runner.InjectionHarness.run_campaign`:
        identical planning, bit-identical results, different execution
        telemetry under ``meta["engine"]``.
        """
        from repro.injection.runner import CampaignResults
        functions, specs = self.harness.plan_specs(
            campaign_key, functions=functions, seed=seed,
            byte_stride=byte_stride, max_per_function=max_per_function,
            max_specs=max_specs, static_verdicts=static_verdicts)
        results, engine_meta = self.run(campaign_key, specs, seed,
                                        byte_stride, shard_count,
                                        workdir, grade=grade)
        return CampaignResults.of_plan(campaign_key, functions, specs,
                                       seed, byte_stride, results,
                                       engine_meta)

    def run(self, campaign_key, specs, seed, byte_stride, shard_count,
            workdir, grade=True):
        """Run *specs* as *shard_count* shards; returns
        ``(ordered_results, fabric_meta)``."""
        config = self.config
        os.makedirs(workdir, exist_ok=True)
        plan_fp = plan_fingerprint(campaign_key, specs, seed,
                                   byte_stride)
        shards = plan_shards(plan_fp, len(specs), shard_count)
        tasks = {s.index: _ShardTask(s, workdir) for s in shards}
        forking = config.pool > 1 and fork_available() and shards
        # Every golden run is in the parent before the pool forks, so
        # the workers inherit them copy-on-write, and a shared snapshot
        # store is populated for out-of-process shards.  A cold store's
        # missing runs are built on the pool's cores
        # (InjectionHarness.build_goldens); a translating harness also
        # builds the kernel's code cache there, once for every fork.
        # The crash-latency calibration is made (or thawed) here too.
        golden_start = time.perf_counter()
        goldens_built = self.harness.build_goldens(
            map(self.harness.workload_of, specs), config.pool)
        golden_s = time.perf_counter() - golden_start
        if forking:
            self.harness.crash_overhead()
        for spec in specs:
            self.harness.assign_workload(spec)
        meta = {
            "mode": "fabric",
            "shards": shard_count,
            "pool": config.pool,
            "plan_fingerprint": plan_fp,
            "worker_failures": 0,
            "workers_spawned": 0,
            "stalled_leases": 0,
            "stolen_shards": 0,
            "chaos_killed": [],
            "shard_failures": {},
            "degraded": False,
            "replayed_records": 0,
            "serial_completions": 0,
            "goldens_built": goldens_built,
            "golden_s": golden_s,
        }
        self._choose_chaos_victims(shards, tasks, meta)
        if forking:
            pool = _ShardPool(self, campaign_key, specs, seed,
                              byte_stride, tasks, grade, meta)
            pool.run([s.index for s in shards])
            meta["stalled_leases"] = pool.overdue_leases
            # A shard leased again after a failed lease: the idle
            # worker steals its unfinished journal and resumes it.
            meta["stolen_shards"] = pool.retried_leases
        else:
            meta["mode"] = "fabric-serial"
            for shard in shards:
                self._run_shard_inline(campaign_key, specs, seed,
                                       byte_stride, tasks[shard.index],
                                       grade)
        ordered = self._merge_and_backfill(campaign_key, specs, seed,
                                           byte_stride, plan_fp, tasks,
                                           grade, meta)
        meta["harness_errors"] = sum(
            1 for r in ordered if r.outcome == HARNESS_ERROR)
        return ordered, meta

    # -- setup helpers -------------------------------------------------------

    def _max_worker_failures(self, shard_count):
        configured = self.config.max_worker_failures
        if configured is not None:
            return max(1, int(configured))
        # Leave headroom for every chaos kill plus the retry budget
        # before the fabric gives up on the pool.
        return (self.config.chaos_kills
                + max(4, 2 * shard_count))

    def _choose_chaos_victims(self, shards, tasks, meta):
        config = self.config
        if not config.chaos_kills:
            return
        eligible = [s.index for s in shards
                    if len(s.indices) > config.chaos_after]
        rng = random.Random("fabric-chaos:%s" % config.chaos_seed)
        victims = sorted(rng.sample(
            eligible, min(config.chaos_kills, len(eligible))))
        for index in victims:
            tasks[index].chaos_after = config.chaos_after
        meta["chaos_killed"] = victims

    # -- serial paths --------------------------------------------------------

    def _run_shard_inline(self, campaign_key, specs, seed, byte_stride,
                          task, grade):
        """Run (or finish) one shard in-process, resuming its journal."""
        run_shard(self.harness, campaign_key, specs, seed, byte_stride,
                  task.shard, task.journal_path, grade=grade, jobs=1,
                  resume=True)

    # -- merge + backfill ----------------------------------------------------

    def _merge_and_backfill(self, campaign_key, specs, seed,
                            byte_stride, plan_fp, tasks, grade, meta):
        paths = [tasks[i].journal_path for i in sorted(tasks)]
        merged = merge_shard_journals(paths, plan_fp=plan_fp,
                                      n_specs=len(specs))
        meta["replayed_records"] = merged.replayed
        missing = merged.missing
        if missing:
            # Last rung: whatever no shard delivered runs serially
            # right here, with the engine's harness-fault containment.
            meta["serial_completions"] = len(missing)
            for index in missing:
                merged.results[index] = run_spec_contained(
                    self.harness, specs[index], grade, seed)
        return merged.ordered()
