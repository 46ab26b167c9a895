"""Fault-tolerant campaign execution engine.

The paper's rig survives >35,000 injections because the *harness* is
hardened, not just the target: a hardware watchdog reboots wedged
machines, remote power control recovers dead ones, and the worst
crashes trigger an automated reformat/reinstall (Figure 3, §7.1).
This module is the software analogue for the simulated rig:

* **process-isolated workers** — experiments run in forked worker
  processes, each owning its own golden-snapshot clones.  A worker
  that wedges (per-experiment wall-clock watchdog) or dies (SIGKILL,
  interpreter fault) costs one experiment, which is retried with
  backoff in a fresh worker — the watchdog → reboot rungs of the
  paper's recovery ladder.  The same :class:`WorkerPool` runs the
  campaign fabric's shards (:mod:`repro.injection.fabric`).
* **harness-fault containment** — any exception escaping
  ``run_spec`` (e.g. a decoder bug provoked by a corrupted opcode) is
  classified as a :data:`~repro.injection.outcomes.HARNESS_ERROR`
  outcome carrying a serialized repro bundle instead of aborting the
  campaign.
* **journaling + resume** — every completed experiment is appended to
  a JSONL journal keyed by spec index; an interrupted campaign
  restarts from the journal and re-runs only in-flight work.
* **graceful degradation** — after repeated worker failures the
  engine abandons the parallel rig and finishes serially in-process,
  recording the degradation (the reformat/reinstall rung: rebuild the
  rig in its most conservative configuration and carry on).

Specs are planned deterministically up front and results are
journaled with their spec index and reassembled in order, so serial
and parallel execution produce bit-identical result lists for the
same seed.
"""

import hashlib
import json
import os
import tempfile
import time
import traceback

from repro.injection.outcomes import HARNESS_ERROR, InjectionResult

#: Per-experiment wall-clock watchdog (seconds).  Generous: a single
#: simulated experiment is seconds of host time; minutes means the
#: interpreter itself is wedged.
DEFAULT_TIMEOUT = 300.0

#: How a worker failure is reported in the HARNESS_ERROR repro bundle.
KIND_EXCEPTION = "harness_exception"
KIND_WORKER_DIED = "worker_died"
KIND_WORKER_TIMEOUT = "worker_timeout"


class EngineConfig:
    """Tuning knobs for :class:`CampaignEngine`."""

    __slots__ = ("jobs", "timeout", "retries", "backoff",
                 "max_worker_failures", "journal_path", "resume")

    def __init__(self, jobs=1, timeout=None, retries=2, backoff=0.25,
                 max_worker_failures=3, journal_path=None, resume=False):
        self.jobs = max(1, int(jobs))
        self.timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_worker_failures = max(1, int(max_worker_failures))
        self.journal_path = journal_path
        self.resume = resume


def _spec_coords(spec):
    """The fingerprint coordinates of one spec.

    The ``fault_model`` dict is appended only when set, so plans of
    the default instruction-stream model keep the exact pre-framework
    fingerprint and old journals still resume.
    """
    coords = [spec.function, spec.instr_addr, spec.byte_offset,
              spec.bit]
    fault_model = getattr(spec, "fault_model", None)
    if fault_model is not None:
        coords.append(fault_model)
    return coords


def plan_fingerprint(campaign_key, specs, seed, byte_stride):
    """Stable digest of a planned campaign (guards ``--resume``)."""
    payload = {
        "campaign": campaign_key,
        "seed": seed,
        "byte_stride": byte_stride,
        "specs": [_spec_coords(s) for s in specs],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def harness_error_result(spec, kind, tb, seed):
    """Build the HARNESS_ERROR result for a failed experiment."""
    return InjectionResult(
        outcome=HARNESS_ERROR,
        activated=False,
        campaign=spec.campaign,
        function=spec.function,
        subsystem=spec.subsystem,
        addr=spec.instr_addr,
        byte_offset=spec.byte_offset,
        bit=spec.bit,
        mnemonic=spec.mnemonic,
        workload=spec.workload,
        detail=kind,
        repro={"kind": kind, "spec": spec.to_dict(),
               "traceback": tb, "seed": seed},
    )


def run_spec_contained(harness, spec, grade, seed):
    """``run_spec`` with harness-fault containment.

    A corrupted instruction stream can provoke bugs in the simulator
    itself; the paper's answer to a broken rig is to recover and move
    on, never to lose the campaign.
    """
    try:
        return harness.run_spec(spec, grade=grade)
    except Exception:
        return harness_error_result(spec, KIND_EXCEPTION,
                                    traceback.format_exc(), seed)


class JournalMismatch(RuntimeError):
    """The on-disk journal belongs to a different campaign plan."""


def read_journal_lines(path):
    """Parse a JSONL journal tolerantly.

    Returns ``(records, clean_size)``: every complete record in file
    order, and the byte offset just past the last complete line.  A
    torn trailing line — the write that was in flight when its writer
    was SIGKILLed — parses as garbage (or as JSON missing its
    terminating newline); it and anything after it is excluded rather
    than raised on, and ``clean_size`` points before it so a writer can
    physically truncate the tear instead of gluing new records onto it.
    """
    records = []
    clean = 0
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for raw in data.splitlines(keepends=True):
        line = raw.strip()
        if line:
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            if not raw.endswith(b"\n"):
                # Complete JSON whose newline never made it to disk:
                # still a tear (an append would corrupt the line), so
                # the record is re-run rather than trusted.
                break
            records.append(record)
        offset += len(raw)
        clean = offset
    return records, clean


def result_records(records):
    """The journal records among *records* that hold a run's result.

    A record carrying an ``extrapolated`` block is not a result: older
    releases journaled such records for sites they never ran, copying
    the outcome of another site in the same static class.  Resume
    re-runs their indices, a shard merge lists them as missing and a
    delta campaign does not carry them forward.
    """
    return (record for record in records
            if record.get("type") == "result"
            and "extrapolated" not in record)


def prefer_result(first, second):
    """The canonical result among duplicates journaled for one index.

    Replayed work is deterministic, so duplicates are normally
    byte-identical and the first write wins; the one asymmetry is a
    HARNESS_ERROR placeholder (a retried shard's worker died), which a
    real replayed result displaces.  Deduplication lives here — in the
    journal/merge layer — and nowhere else; the engine *asserts* it
    never completes an index twice instead of quietly tolerating it.
    """
    if first.outcome == HARNESS_ERROR and second.outcome != HARNESS_ERROR:
        return second
    return first


class CampaignJournal:
    """Append-only JSONL record of completed experiments.

    Line 1 is a header binding the journal to a plan fingerprint;
    every further line is ``{"index": i, "result": {...}}``.  Records
    are flushed and fsynced as written, so the journal survives a
    SIGKILL of the whole campaign; a torn final line (the write that
    was in flight) is truncated away on the next ``start`` and simply
    re-run, never raised on and never appended onto.

    Loading deduplicates replayed indices with :func:`prefer_result`
    (exactly-once semantics: retried shards and resumed runs may
    legally replay work; the journal is the single place duplicates
    are resolved).

    The header also records ``schema_version``
    (:data:`~repro.injection.campaigns.SPEC_SCHEMA_VERSION`).  Loading
    tolerates headers without the field (v1, pre-fault-model journals)
    and any version whose records still parse — result fields added
    since simply come back ``None``, so old journals resume cleanly
    under newer code.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._clean_size = None
        self._seen = set()

    # -- reading ------------------------------------------------------------

    def load(self, fingerprint):
        """Return {index: InjectionResult} for a matching journal.

        Raises :class:`JournalMismatch` if the journal on disk was
        written for a different plan.  Returns ``{}`` when no journal
        exists yet.  A journal whose *header* is torn (the writer died
        inside its very first write) counts as empty and is rewritten.
        """
        if not os.path.exists(self.path):
            return {}
        records, self._clean_size = read_journal_lines(self.path)
        if not records:
            return {}
        self._check_header(records[0], fingerprint)
        completed = {}
        for record in result_records(records[1:]):
            index = self._local_index(record["index"])
            if index is None:
                continue
            result = InjectionResult.from_dict(record["result"])
            if index in completed:
                completed[index] = prefer_result(completed[index],
                                                 result)
            else:
                completed[index] = result
        self._note_loaded(completed)
        return completed

    def _check_header(self, header, fingerprint):
        if header.get("type") != "header" \
                or header.get("fingerprint") != fingerprint:
            raise JournalMismatch(
                "journal %s was written for a different campaign plan "
                "(fingerprint %r, expected %r)"
                % (self.path, header.get("fingerprint"), fingerprint))

    def _local_index(self, stored_index):
        """Map a journaled index to the engine's index space."""
        return stored_index

    def _note_loaded(self, completed):
        self._seen.update(completed)

    # -- writing ------------------------------------------------------------

    def start(self, fingerprint, campaign_key, seed, n_specs,
              fresh=False):
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        mode = "a"
        if fresh or not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0:
            mode = "w"
        if mode == "a":
            if self._clean_size is None:
                _, self._clean_size = read_journal_lines(self.path)
            if self._clean_size < os.path.getsize(self.path):
                # Physically drop the torn tail so the next record
                # starts on a fresh line instead of gluing onto the
                # interrupted one (which would poison every later
                # resume past this point).
                with open(self.path, "r+b") as fh:
                    fh.truncate(self._clean_size)
            if self._clean_size == 0:
                mode = "w"
        self._fh = open(self.path, mode)
        if mode == "w":
            self._seen = set()
            self._write(self._header(fingerprint, campaign_key, seed,
                                     n_specs))

    def _header(self, fingerprint, campaign_key, seed, n_specs):
        from repro.injection.campaigns import SPEC_SCHEMA_VERSION
        return {"type": "header", "fingerprint": fingerprint,
                "campaign": campaign_key, "seed": seed,
                "n_specs": n_specs,
                "schema_version": SPEC_SCHEMA_VERSION}

    def _stored_index(self, index):
        """Map an engine index to the journaled index space."""
        return index

    def record(self, index, result):
        stored = self._stored_index(index)
        if stored in self._seen:
            return          # exactly-once: replays never re-journal
        self._seen.add(stored)
        self._write({"type": "result", "index": stored,
                     "result": result.to_dict()})

    def record_carried(self, index, result, provenance):
        """Journal a result carried forward from another campaign's
        journal (see :mod:`repro.staticanalysis.delta`).

        The envelope is a normal result record plus a ``carried``
        provenance block (source journal fingerprint, base/new kernel
        fingerprints); loaders ignore the extra key, so resume and
        shard-merge treat carried results exactly like locally
        executed ones and the exactly-once invariant is shared.
        """
        stored = self._stored_index(index)
        if stored in self._seen:
            return
        self._seen.add(stored)
        self._write({"type": "result", "index": stored,
                     "result": result.to_dict(),
                     "carried": dict(provenance)})

    def _write(self, record):
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _worker_main(harness, specs, grade, seed, conn):
    """Worker loop: receive a spec index, send back a result dict.

    Runs in a forked child; the harness (kernel, golden snapshots) is
    inherited copy-on-write, so each worker clones golden snapshots
    privately and cannot perturb its siblings.
    """
    try:
        while True:
            index = conn.recv()
            if index is None:
                break
            result = run_spec_contained(harness, specs[index], grade,
                                        seed)
            conn.send((index, result.to_dict()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class _Worker:
    """Bookkeeping for one forked worker process."""

    __slots__ = ("process", "conn", "item", "leased_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.item = None        # the leased item; None while idle
        self.leased_at = None   # wall-clock start of the current lease

    def lease(self, item, payload):
        self.item = item
        self.leased_at = time.time()
        self.conn.send(payload)

    def stop(self):
        """Ask an idle worker to exit; True if it had died instead."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=5)
        return self.process.exitcode not in (0, None)

    def kill(self):
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)


def fork_available():
    """Whether this platform can fork the pool's workers."""
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """Forked workers, each leased one item at a time over a pipe.

    :class:`CampaignEngine` leases spec indices to it and the fabric's
    coordinator leases shards.  A worker lives for the whole run, so
    what it warms on one item (translation heat, templates, decodes)
    serves its next.  The recovery ladder:

    * a delivery that raced its worker's death is harvested before
      anything is decided: the item is done and never runs again;
    * a worker that dies idle is retired: a worker failure, but its
      last item is not re-run;
    * a worker that dies, reports a failed lease or runs overdue while
      busy fails its item, which is retried after backoff up to
      ``retries`` times and then given up;
    * each lost worker is replaced until ``max_failures`` worker
      failures; then the pool degrades: every worker is killed and
      the unfinished items go to the caller's fallback.

    A subclass supplies the hooks below.  ``meta`` is the caller's
    telemetry: the pool counts ``worker_failures`` and
    ``workers_spawned`` there and sets ``degraded``.
    """

    #: How a busy worker that died or ran overdue is reported.
    DIED = KIND_WORKER_DIED
    OVERDUE = KIND_WORKER_TIMEOUT

    def __init__(self, size, retries, backoff, max_failures, meta):
        self.size = size
        self.retries = retries
        self.backoff = backoff
        self.max_failures = max_failures
        self.meta = meta
        self.overdue_leases = 0     # leases revoked as overdue
        self.retried_leases = 0     # leases of an item that failed before
        self.workers = []

    # -- per-caller hooks ---------------------------------------------------

    def target(self, conn):
        """``(function, args)`` a worker runs; *conn* is its pipe end."""
        raise NotImplementedError

    def payload(self, item, attempt):
        """The lease message for *item* after *attempt* failed leases."""
        return item

    def overdue(self, worker, now):
        """Whether busy *worker* has outrun its lease at wall time *now*."""
        raise NotImplementedError

    def deliver(self, item, message):
        """Take a worker's *message* on *item*: ``None`` when the item is
        done, else why the lease failed (the worker then exits)."""
        raise NotImplementedError

    def give_up(self, item, kind, attempts, detail):
        """*item* failed *attempts* leases, the last as *kind*."""
        raise NotImplementedError

    def degrade(self, items):
        """Finish *items* without the pool."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------

    def run(self, items):
        """Lease every item of *items* until each is done or given up."""
        from multiprocessing.connection import wait as conn_wait
        import multiprocessing
        self._ctx = multiprocessing.get_context("fork")
        self._queue = list(items)           # items awaiting a worker
        self._outstanding = set(items)
        self._attempts = {}                 # item -> failed leases
        self._not_before = {}               # item -> earliest retry time
        try:
            for _ in range(min(self.size, max(1, len(self._queue)))):
                self._spawn()
            while self._outstanding:
                if self.meta["worker_failures"] >= self.max_failures:
                    self._degrade()
                    break
                self._lease_idle()
                busy = [w for w in self.workers if w.item is not None]
                if busy:
                    for conn in conn_wait([w.conn for w in busy],
                                          timeout=0.1):
                        self._harvest(next(w for w in busy
                                           if w.conn is conn))
                else:
                    # Everything runnable is in backoff; wait it out.
                    time.sleep(min(0.05, self.backoff or 0.05))
                self._check_workers()
        finally:
            for worker in self.workers:
                # A worker that died right after its last delivery was
                # never seen dead by the loop; count it as _retire does.
                if worker.item is None and worker.stop():
                    self.meta["worker_failures"] += 1
                worker.kill()
            self.workers = []

    def _spawn(self):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        target, args = self.target(child_conn)
        # Not daemonic, so a worker may fork workers of its own (a
        # fabric shard with ``shard_jobs`` > 1); every exit path of
        # ``run`` kills and joins what it forked.
        process = self._ctx.Process(target=target, args=args)
        process.start()
        child_conn.close()
        self.meta["workers_spawned"] += 1
        self.workers.append(_Worker(process, parent_conn))

    def _lease_idle(self):
        now = time.monotonic()
        for worker in self.workers:
            if worker.item is not None:
                continue
            for position, item in enumerate(self._queue):
                if self._not_before.get(item, 0) <= now:
                    break
            else:
                return          # nothing leasable until a backoff ends
            del self._queue[position]
            attempt = self._attempts.get(item, 0)
            try:
                worker.lease(item, self.payload(item, attempt))
            except OSError:
                # Died between the liveness check and the send; requeue
                # and let the next liveness check retire the body.
                worker.item = None
                self._queue.append(item)
                continue
            if attempt:
                self.retried_leases += 1

    def _harvest(self, worker):
        """Take *worker*'s report on its lease, if one has arrived."""
        try:
            if not worker.conn.poll():
                return          # nothing delivered (yet, or ever)
            message = worker.conn.recv()
        except (EOFError, OSError):
            return              # death; the liveness check handles it
        detail = self.deliver(worker.item, message)
        if detail is None:
            self._outstanding.discard(worker.item)
            worker.item = None
        else:
            self._fail(worker, self.DIED, detail)

    def _check_workers(self):
        now = time.time()
        for worker in list(self.workers):
            if not worker.process.is_alive():
                # A worker that died *after* delivering leaves its
                # report in the pipe.  Harvest it before deciding
                # anything: the item is done, and re-enqueueing it
                # would run (and journal) it twice.
                self._harvest(worker)
                if worker not in self.workers:
                    continue    # it reported a failed lease
                if worker.item is None:
                    self._retire(worker)
                else:
                    self._fail(worker, self.DIED)
            elif worker.item is not None and self.overdue(worker, now):
                self.overdue_leases += 1
                self._fail(worker, self.OVERDUE)

    def _retire(self, worker):
        """Kill *worker* and fork its replacement, budget permitting.

        Every retirement counts against the failure budget (the rig is
        unhealthy), but an idle worker's finished item is never
        re-enqueued: the exactly-once half of the worker-death ladder.
        """
        self.meta["worker_failures"] += 1
        worker.kill()
        self.workers.remove(worker)
        if self.meta["worker_failures"] < self.max_failures:
            self._spawn()

    def _fail(self, worker, kind, detail=None):
        """One rung down the recovery ladder for a busy worker."""
        item = worker.item
        self._retire(worker)
        attempts = self._attempts[item] = self._attempts.get(item, 0) + 1
        if attempts <= self.retries:
            self._not_before[item] = time.monotonic() \
                + self.backoff * attempts
            self._queue.append(item)
        else:
            self._outstanding.discard(item)
            self.give_up(item, kind, attempts, detail)

    def _degrade(self):
        # The reformat/reinstall rung: tear the pool down and finish
        # every unfinished item the caller's most conservative way.
        self.meta["degraded"] = True
        self.meta["degraded_reason"] = (
            "%d worker failures" % self.meta["worker_failures"])
        for worker in self.workers:
            worker.kill()
        self.workers = []
        items = sorted(self._outstanding)
        self._outstanding.clear()
        self.degrade(items)


class _SpecPool(WorkerPool):
    """The engine's pool: an item is a spec index, a delivery its result."""

    def __init__(self, engine, specs, grade, seed, results, journal,
                 progress, meta):
        config = engine.config
        WorkerPool.__init__(self, config.jobs, config.retries,
                            config.backoff, config.max_worker_failures,
                            meta)
        self.engine = engine
        self.specs = specs
        self.grade = grade
        self.seed = seed
        self.results = results
        self.journal = journal
        self.progress = progress

    def target(self, conn):
        # Looked up at every spawn, so a patched module attribute counts.
        return _worker_main, (self.engine.harness, self.specs,
                              self.grade, self.seed, conn)

    def overdue(self, worker, now):
        return now - worker.leased_at > self.engine.config.timeout

    def deliver(self, index, message):
        self._complete(index, InjectionResult.from_dict(message[1]))

    def give_up(self, index, kind, attempts, detail):
        tb = ("worker failed %d times (last: %s); retries exhausted"
              % (attempts, kind))
        self._complete(index, harness_error_result(
            self.specs[index], kind, tb, self.seed))

    def degrade(self, indices):
        self.engine._run_serial(self.specs, indices, self.grade,
                                self.seed, self.results, self.journal,
                                self.progress)

    def _complete(self, index, result):
        self.engine._complete(index, result, self.specs, self.results,
                              self.journal, self.progress)


class CampaignEngine:
    """Executes a planned campaign resiliently (see module docstring)."""

    def __init__(self, harness, config=None):
        self.harness = harness
        self.config = config or EngineConfig()

    # -- public entry point --------------------------------------------------

    def execute(self, campaign_key, specs, seed, byte_stride, grade=True,
                progress=None, journal=None):
        """Run *specs*; returns ``(results, engine_meta)``.

        ``results`` is ordered by spec index regardless of completion
        order; ``engine_meta`` describes how the run actually went
        (mode, worker failures, degradation, resume) and is the only
        part of a campaign's output that may differ between serial and
        parallel execution.

        *journal* lets a caller supply a pre-built journal object (the
        fabric's :class:`~repro.injection.fabric.ShardJournal` records
        global plan indices under a shard header); by default one is
        constructed from ``config.journal_path``.
        """
        config = self.config
        fingerprint = plan_fingerprint(campaign_key, specs, seed,
                                       byte_stride)
        completed = {}
        if journal is None and config.journal_path is not None:
            journal = CampaignJournal(config.journal_path)
        if journal is not None:
            if config.resume:
                completed = journal.load(fingerprint)
                completed = {i: r for i, r in completed.items()
                             if 0 <= i < len(specs)}
            journal.start(fingerprint, campaign_key, seed, len(specs),
                          fresh=not config.resume)
        meta = {
            "jobs": config.jobs,
            "mode": "parallel" if config.jobs > 1 else "serial",
            "journal": config.journal_path,
            "resumed_results": len(completed),
            "worker_failures": 0,
            "workers_spawned": 0,
            "harness_errors": 0,
            "degraded": False,
        }
        pending = [i for i in range(len(specs)) if i not in completed]
        forking = config.jobs > 1 and pending and fork_available()
        # Every golden run the plan needs is in the parent before any
        # worker forks, so the workers inherit them copy-on-write instead
        # of re-booting them; the missing ones are built on all ``jobs``
        # cores (InjectionHarness.build_goldens).  So is the crash-latency
        # calibration, which a serial run makes only at its first crash.
        # Then the deterministic up-front workload assignment.
        golden_start = time.perf_counter()
        meta["goldens_built"] = self.harness.build_goldens(
            map(self.harness.workload_of, specs), config.jobs)
        meta["golden_s"] = time.perf_counter() - golden_start
        if forking:
            self.harness.crash_overhead()
        for spec in specs:
            self.harness.assign_workload(spec)
        results = dict(completed)
        try:
            if forking:
                _SpecPool(self, specs, grade, seed, results, journal,
                          progress, meta).run(pending)
            else:
                if config.jobs > 1 and pending:
                    meta["degraded"] = True
                    meta["degraded_reason"] = "fork unavailable"
                self._run_serial(specs, pending, grade, seed, results,
                                 journal, progress)
        finally:
            if journal is not None:
                journal.close()
        ordered = [results[i] for i in range(len(specs))]
        meta["harness_errors"] = sum(
            1 for r in ordered if r.outcome == HARNESS_ERROR)
        return ordered, meta

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, specs, pending, grade, seed, results, journal,
                    progress):
        for index in pending:
            result = run_spec_contained(self.harness, specs[index],
                                        grade, seed)
            self._complete(index, result, specs, results, journal,
                           progress)

    # -- shared plumbing -----------------------------------------------------

    def _complete(self, index, result, specs, results, journal,
                  progress):
        # Exactly-once invariant: deduplication of replayed work lives
        # in the journal/merge layer alone; a second completion here
        # means the dispatch bookkeeping double-ran an experiment.
        if index in results:
            raise RuntimeError(
                "spec index %d completed twice; duplicate indices must "
                "never reach CampaignResults" % index)
        results[index] = result
        if journal is not None:
            journal.record(index, result)
        if progress is not None:
            progress(len(results), len(specs), result)


def atomic_write_json(path, payload):
    """Write *payload* as JSON atomically (temp file + ``os.replace``).

    An interrupted writer can never leave a truncated file behind: the
    replace is atomic on POSIX, so readers see either the old complete
    file or the new complete one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
