"""Campaign execution: golden runs, the injector loop, classification.

This is the automated process of the paper's Figure 3: for every planned
injection the harness boots a pristine machine, arms the debug-register
trigger, flips the bit on first execution of the target instruction,
runs under a watchdog, and classifies the outcome against the golden
run.  Activation is decided exactly from golden-run coverage (the run is
deterministic; behaviour diverges only once the corrupted instruction
executes).  For the same reason an injected run starts from the golden
run's last checkpoint before its trigger first executed, not from boot.
"""

import json
import os
import pickle
import tempfile
from collections import Counter

from repro.cpu.translate import code_cache
from repro.injection.campaigns import CAMPAIGNS, PRED_FIELDS, \
    plan_campaign, select_targets
from repro.injection.engine import (
    CampaignEngine,
    CampaignJournal,
    EngineConfig,
    atomic_write_json,
    fork_available,
    plan_fingerprint,
)
from repro.injection.faultmodels import (
    KIND_OF_KEY,
    plan_fault_model_campaign,
    resolve_model,
)
from repro.injection.outcomes import (
    CRASH_DUMPED,
    CRASH_RECOVERED,
    CRASH_UNKNOWN,
    FAIL_SILENCE_VIOLATION,
    HANG,
    NOT_ACTIVATED,
    NOT_MANIFESTED,
    RECOVERED_FSV,
    RECOVERED_LATER_CRASH,
    RECOVERED_WORKLOAD_CORRECT,
    InjectionResult,
    crash_cause_name,
)
from repro.injection.register_campaign import plan_register_campaign
from repro.injection.severity import grade_severity
from repro.kernel.layout import KernelLayout
from repro.machine.machine import Machine, build_standard_disk
from repro.tracing import DEFAULT_CHANNELS, diff_traces


#: Console marker separating boot from benchmark execution; the
#: injector is armed only once the marker has appeared (the paper
#: injects into a running system).
BOOT_MARKER = "INIT: starting workload"


def _console_subsumes(golden_text, observed_text):
    """True when every golden console line appears, in order, in the
    observed console (recovered-oops text is interleaved insertions)."""
    observed = iter(observed_text.splitlines())
    for line in golden_text.splitlines():
        for candidate in observed:
            if candidate == line:
                break
        else:
            return False
    return True


class GoldenRun:
    """Reference (fault-free) execution of one workload.

    *checkpoints* are the golden machine's states at the start of each
    window of :data:`~repro.machine.machine.CHECKPOINT_EVERY` cycles
    (see :meth:`Machine.run <repro.machine.machine.Machine.run>`):
    ``checkpoints[0]`` is the post-boot snapshot, the others are page
    deltas against it.  *coverage* maps every EIP the workload executed
    to the window in which the golden first executed it.
    """

    def __init__(self, workload, result, coverage, disk_image,
                 boot_cycles, checkpoints):
        self.checkpoints = checkpoints
        self.workload = workload
        self.result = result
        self.coverage = coverage          # post-boot EIP -> first window
        self.disk_image = disk_image      # pristine boot image
        self.boot_cycles = boot_cycles
        self.console = result.console
        self.exit_code = result.exit_code
        self.cycles = result.cycles
        self.final_disk = result.disk_image

    @property
    def snapshot(self):
        """The post-boot snapshot (checkpoint 0)."""
        return self.checkpoints[0]

    def checkpoint_for(self, eip):
        """The last checkpoint before the golden first executed *eip*:
        a clone of it runs as the golden did until it reaches *eip*."""
        return self.checkpoints[self.coverage[eip]]

    @property
    def workload_cycles(self):
        return self.cycles - self.boot_cycles


class CampaignResults:
    """A list of InjectionResult plus campaign metadata."""

    def __init__(self, campaign, results, meta=None):
        self.campaign = campaign
        self.results = results
        self.meta = meta or {}

    @classmethod
    def of_plan(cls, campaign, functions, specs, seed, byte_stride,
                results, engine_meta):
        """The results of executing a plan of :meth:`InjectionHarness.
        plan_specs`, with the plan's metadata."""
        return cls(campaign, results, {
            "campaign": campaign,
            "functions": sorted({f.name for f in functions}),
            "n_functions": len(functions),
            "seed": seed,
            "byte_stride": byte_stride,
            "injected": len(specs),
            "fingerprint": plan_fingerprint(campaign, specs, seed,
                                            byte_stride),
            "engine": engine_meta,
        })

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def save(self, path):
        payload = {
            "campaign": self.campaign,
            "meta": self.meta,
            "results": [r.to_dict() for r in self.results],
        }
        # Atomic: a campaign interrupted mid-save can never leave a
        # truncated JSON behind to poison later cached re-renders.
        atomic_write_json(path, payload)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        results = [InjectionResult.from_dict(r)
                   for r in payload["results"]]
        return cls(payload["campaign"], results, payload.get("meta"))


class InjectionHarness:
    """Shared state for a set of campaigns: kernel, golden runs, grading.

    With ``recovery=True`` every machine (golden and injected) boots
    with the kernel's recovery ladder armed: exception fixups contain
    bad uaccesses, oopses kill the offending task and reschedule, and
    the in-kernel soft-lockup watchdog converts wedges into dumped,
    recovered crashes.  Runs that dump and keep going are classified
    :data:`CRASH_RECOVERED` with a post-recovery sub-classification.
    The default ``recovery=False`` reproduces the fail-stop kernel.

    With ``trace=True`` every post-boot run (golden and injected)
    carries the execution flight recorder (:mod:`repro.tracing`) on
    *trace_channels*, and each activated result is enriched with the
    golden-vs-injected divergence measurements (the ``trace_*`` fields
    of :class:`InjectionResult`).  Tracing is purely observational —
    outcomes, latencies and consoles are bit-identical to an untraced
    harness.  *trace_capacity* bounds the ring (``None`` = unbounded,
    which exact divergence measurement wants).

    With ``disk_retries > 0`` every machine boots with the IDE
    driver's bounded retry/backoff path armed
    (:meth:`~repro.machine.machine.Machine.enable_disk_retry`): a
    failed disk transfer is re-issued up to that many times before
    ``-EIO`` propagates.  The graceful-degradation ablation of the
    fault-model framework compares ``disk_retries=0`` (the paper's
    fail-stop driver), a retrying driver, and the recovery kernel.
    """

    def __init__(self, kernel, binaries, profile, watchdog_factor=3,
                 watchdog_slack=250_000, recovery=False, trace=False,
                 trace_channels=DEFAULT_CHANNELS, trace_capacity=None,
                 disk_retries=0, snapshot_store=None, translate=True):
        self.kernel = kernel
        self.binaries = binaries
        self.profile = profile
        self.watchdog_factor = watchdog_factor
        self.watchdog_slack = watchdog_slack
        self.recovery = recovery
        self.disk_retries = disk_retries
        self.trace = trace
        #: Execute every machine (golden boots, clones, severity
        #: reboots) through the translated fast path
        #: (:mod:`repro.cpu.translate`).  Results are bit-identical to
        #: interpretation, so it is *not* part of the snapshot-store
        #: key; ``translate=False`` builds the interpreted reference
        #: the differential tests compare against.
        self.translate = bool(translate)
        self.trace_channels = tuple(trace_channels)
        self.trace_capacity = trace_capacity
        #: Optional :class:`~repro.injection.fabric.SnapshotStore`:
        #: post-boot golden state is thawed from / frozen into it so a
        #: kernel/workload pair boots once per store, not once per
        #: harness process.  Traced harnesses bypass the store (live
        #: trace objects are not serialized).
        self.snapshot_store = snapshot_store
        #: Real (non-store) kernel boots this harness has performed,
        #: counting those of the golden runs its builders delivered.
        self.boots = 0
        self._golden = {}
        self._builders = {}             # workload -> _GoldenBuilder
        self._workload_rank = {}
        self._golden_critical = None
        self._crash_overhead = None
        self._trace_domains = {}

    # -- golden runs --------------------------------------------------------

    def _store_key(self, workload):
        store = self.snapshot_store
        if store is None or self.trace:
            return None, None
        return store, store.key(self.kernel, workload,
                                recovery=self.recovery,
                                disk_retries=self.disk_retries)

    def golden(self, workload):
        """The golden run of *workload*: built once per harness, or
        thawed from the snapshot store or from a golden builder (see
        :meth:`build_goldens`)."""
        run = self._golden.get(workload)
        if run is not None:
            return run
        if self.translate:
            # Before any thaw, so that thawed decodes join the kernel's
            # decode memo; a translated boot would build it anyway.
            code_cache(self.kernel)
        store, key = self._store_key(workload)
        builder = self._builders.pop(workload, None)
        stored = False
        if builder is not None:
            run = builder.take(workload, self.kernel)
            if run is not None:
                self.boots += 1         # booted once, in the builder
        elif store is not None:
            run = store.load(key, self.kernel)
            stored = run is not None
        if run is None:
            run = self._run_golden(workload)
        else:
            # Execution mode is not part of a frozen golden run
            # (translated results are bit-identical); stamp the thawed
            # checkpoints so clones run in this harness's mode
            # regardless of who froze them.
            for checkpoint in run.checkpoints:
                checkpoint.translate = self.translate
        self._golden[workload] = run
        if store is not None and not stored:
            store.save(key, run)
        return run

    def _run_golden(self, workload):
        """Boot *workload* and run it once, checkpointed, in-process."""
        disk = build_standard_disk(self.binaries, workload)
        machine = self.boot_machine(disk)
        if self.recovery:
            # Arm the ladder pre-boot so the post-boot snapshot
            # (and every per-experiment clone) inherits it.
            machine.enable_recovery()
        if self.disk_retries:
            # Same pre-boot patching: the retry budget lives in a
            # kernel global, so clones inherit it through RAM.
            machine.enable_disk_retry(self.disk_retries)
        machine.run_until_console(BOOT_MARKER, max_cycles=10_000_000)
        boot_cycles = machine.cpu.cycles
        if self.trace:
            # Enabled at the post-boot state that checkpoint 0
            # freezes, so the golden trace and every per-experiment
            # clone's trace start from the same machine state and
            # align stamp-for-stamp.
            machine.enable_trace(channels=self.trace_channels,
                                 capacity=self.trace_capacity)
        coverage = {}
        checkpoints = []
        result = machine.run(max_cycles=120_000_000, coverage=coverage,
                             checkpoints=checkpoints)
        machine.close()
        if result.status != "shutdown" or result.exit_code != 0:
            raise RuntimeError("golden run of %r failed: %r"
                               % (workload, result))
        return GoldenRun(workload, result, coverage, disk, boot_cycles,
                         checkpoints)

    def build_goldens(self, workloads, workers=1):
        """Make sure this harness holds the golden run of every workload
        in *workloads*, on up to *workers* cores; returns how many golden
        runs it built.

        The runs neither held nor in the snapshot store are packed into
        up to *workers* bins, the longest-running first, costed by each
        guest's kernel samples in the profile.  This process builds the
        first bin itself, so the code cache the campaign's workers
        inherit is as warm as a serial build leaves it for that bin, and
        a forked :class:`_GoldenBuilder` builds each other bin.  A
        builder that fails hands back nothing and this process builds
        its bin as well, so a failing golden run raises here as it
        would serially.  Traced harnesses, a single missing run and
        hosts without fork build everything in-process: a traced golden
        result carries a live trace that a frozen run drops.
        """
        before = self.boots
        needed = list(dict.fromkeys(workloads))
        missing = [w for w in needed if not self._holds_golden(w)]
        own = []
        if workers > 1 and len(missing) > 1 and not self.trace \
                and fork_available():
            bins = self._golden_bins(missing, workers)
            own = bins[0]
            for workloads_of_builder in bins[1:]:
                builder = _GoldenBuilder(self, workloads_of_builder)
                self._builders.update(
                    dict.fromkeys(workloads_of_builder, builder))
        try:
            # Own bin first; a builder's runs are taken (waited for)
            # after.
            for workload in own + [w for w in needed if w not in own]:
                self.golden(workload)
        finally:
            # Left only when a golden run raised.
            for builder in set(self._builders.values()):
                builder.discard()
            self._builders.clear()
        # Every golden run built, here or in a builder, is one boot.
        return self.boots - before

    def _holds_golden(self, workload):
        """Whether :meth:`golden` would find *workload*'s run built."""
        if workload in self._golden:
            return True
        store, key = self._store_key(workload)
        return store is not None and key in store

    def _golden_bins(self, workloads, count):
        """*workloads* in at most *count* bins: longest first, each into
        the bin with the least estimated cost so far."""
        cost = Counter()
        for function in self.profile.functions.values():
            cost.update(function.per_workload)
        bins = [[] for _ in range(min(count, len(workloads)))]
        loads = [0] * len(bins)
        for workload in sorted(workloads, key=lambda w: (-cost[w], w)):
            lightest = loads.index(min(loads))
            bins[lightest].append(workload)
            loads[lightest] += cost[workload]
        return bins

    def boot_machine(self, disk_image):
        """A fresh machine about to boot *disk_image* from reset.

        Runs in this harness's execution mode and is counted in
        :attr:`boots`; the kernel configuration is the fail-stop
        default, for the caller to patch before it runs.
        """
        self.boots += 1
        return Machine(self.kernel, disk_image, translate=self.translate)

    def golden_critical_files(self):
        """The files whose corruption means reformat (paper §7.1)."""
        if self._golden_critical is None:
            self._golden_critical = {
                "/bin/init": self.binaries["init"].image,
            }
        return self._golden_critical

    # -- workload assignment ---------------------------------------------------

    def workload_priority(self, function_name):
        """Workloads most likely to activate *function_name*, best first."""
        profile = self.profile.functions.get(function_name)
        ranked = []
        if profile is not None:
            ranked = [w for w, _ in profile.per_workload.most_common()]
        for fallback in ("syscall", "fstime", "context1", "spawn",
                         "looper", "pipe", "dhry", "hanoi"):
            if fallback not in ranked:
                ranked.append(fallback)
        return ranked

    def assign_workload(self, spec):
        """Pick the driving workload and decide expected activation.

        Each experiment runs exactly one benchmark program (the paper's
        Figure 3 loop).  The injection is driven by the workload that
        exercises the target *function* the most; whether the specific
        instruction is reached under that workload then determines
        activation — like the paper, a function being hot does not mean
        every path through it runs.
        """
        workload = self.workload_of(spec)
        spec.workload = workload
        return spec.instr_addr in self.golden(workload).coverage

    def workload_of(self, spec):
        """The workload that drives *spec* (see :meth:`assign_workload`)."""
        return self.workload_priority(spec.function)[0]

    # -- latency calibration -------------------------------------------------------

    def crash_overhead(self):
        """Cycles between a fault and the crash handler's rdtsc.

        The paper measured and subtracted the switching time between the
        injector and the crash handler; we calibrate the same constant
        by forcing a known-instant crash (ud2 patched in at trigger
        time) and reading back the dump's timestamp.  The calibration
        run is a clone of the ``syscall`` golden snapshot with the
        recovery ladder cleared, so it measures the fail-stop crash
        path whatever this harness's kernel configuration, and costs
        no boot.
        """
        if self._crash_overhead is None:
            store = None
            if self.snapshot_store is not None:
                store = self.snapshot_store
                cached = store.load_constant(self.kernel,
                                             "crash_overhead")
                if cached is not None:
                    self._crash_overhead = cached
                    return self._crash_overhead
            golden = self.golden("syscall")
            target = self.kernel.symbols["do_system_call"]
            machine = golden.snapshot.clone()
            machine.write_word(self.kernel.symbols["recovery_enabled"], 0)
            state = {}

            def callback(m):
                state["tsc"] = m.cpu.cycles
                m.write_byte(target, 0x0F)
                m.write_byte(target + 1, 0x0B)  # ud2

            machine.arm_breakpoint(target, callback)
            result = machine.run(max_cycles=golden.cycles * 2 + 10**6)
            machine.close()
            if result.crash is None or "tsc" not in state:
                self._crash_overhead = 0
            else:
                self._crash_overhead = max(
                    0, result.crash.tsc - state["tsc"])
            if store is not None:
                store.save_constant(self.kernel, "crash_overhead",
                                    self._crash_overhead)
        return self._crash_overhead

    # -- single experiment ------------------------------------------------------------

    def run_spec(self, spec, grade=True):
        """Execute one injection experiment; returns InjectionResult.

        A spec carrying a ``fault_model`` dict is armed through its
        :class:`~repro.injection.faultmodels.FaultModel` instead of
        the default instruction-byte flip; everything else — workload
        assignment, watchdog, classification, severity grading — is
        shared, so every model's results are directly comparable.
        """
        model = resolve_model(spec)
        covered = self.assign_workload(spec)
        base = dict(
            campaign=spec.campaign,
            function=spec.function,
            subsystem=spec.subsystem,
            addr=spec.instr_addr,
            byte_offset=spec.byte_offset,
            bit=spec.bit,
            mnemonic=spec.mnemonic,
            instr_class=getattr(spec, "instr_class", None),
            is_branch=getattr(spec, "is_branch", None),
            workload=spec.workload,
        )
        base.update((f, getattr(spec, f, None)) for f in PRED_FIELDS)
        if model is not None:
            base["fault_model"] = model.kind
            base["fault_target"] = model.target_name(spec)
        if not covered:
            return InjectionResult(outcome=NOT_ACTIVATED, activated=False,
                                   **base)
        golden = self.golden(spec.workload)
        # Every model triggers on DR0 at the spec's address, and until
        # then an injected run *is* the golden run: clone the golden's
        # last checkpoint before it first executed that address instead
        # of re-running the boot and the fault-free prefix.  Traced runs
        # start at the post-boot snapshot, where the golden trace does,
        # so their stamps align with it.
        if self.trace:
            start = golden.snapshot
        else:
            start = golden.checkpoint_for(spec.instr_addr)
        machine = start.clone()
        state = {}
        try:
            if self.trace:
                machine.enable_trace(channels=self.trace_channels,
                                     capacity=self.trace_capacity)
            if model is not None:
                model.arm(self, machine, spec, state)
            else:
                def callback(m):
                    state["tsc"] = m.cpu.cycles
                    state["instret"] = m.cpu.instret
                    m.flip_bit(spec.target_byte_addr, spec.bit)

                machine.arm_breakpoint(spec.instr_addr, callback)
            # Anchored at the end of boot, wherever the clone starts.
            budget = golden.boot_cycles \
                + golden.workload_cycles * self.watchdog_factor \
                + self.watchdog_slack
            result = machine.run(max_cycles=budget)
        finally:
            machine.close()
        outcome = self._classify(spec, base, state, golden, result,
                                 grade)
        if self.trace and outcome.activated:
            self._attach_trace(outcome, golden, result, state)
        return outcome

    def _trace_domain(self, eip):
        """Memoized eip -> subsystem domain for trace diffing."""
        domain = self._trace_domains.get(eip)
        if domain is None:
            layout = self.kernel.layout or KernelLayout()
            if eip < layout.KERNEL_BASE:
                domain = "user"
            else:
                info = self.kernel.find_function(eip)
                domain = (info.subsystem if info else None) or "(kernel)"
            self._trace_domains[eip] = domain
        return domain

    def _attach_trace(self, res, golden, result, state):
        """Fill a result's ``trace_*`` fields from the run's traces."""
        golden_trace = golden.result.trace
        trace = result.trace
        if golden_trace is None or trace is None:
            return
        crash = result.crash
        diff = diff_traces(
            golden_trace, trace,
            activation_cycle=state.get("tsc"),
            activation_instret=state.get("instret"),
            crash_cycle=crash.tsc if crash is not None else None,
            subsystem_of=self._trace_domain)
        res.trace_diverged = diff.diverged
        res.trace_divergence_cycle = diff.divergence_cycle
        res.trace_divergence_eip = diff.divergence_eip
        res.trace_flip_to_divergence_cycles = \
            diff.flip_to_divergence_cycles
        res.trace_flip_to_divergence_instrs = \
            diff.flip_to_divergence_instrs
        res.trace_divergence_to_trap_cycles = \
            diff.divergence_to_trap_cycles
        res.trace_subsystems = list(diff.subsystems or ())
        res.trace_dropped_events = trace.dropped_events
        res.trace_complete = diff.complete

    def _classify(self, spec, base, state, golden, result, grade):
        activated = "tsc" in state
        activation_tsc = state.get("tsc")
        if not activated:
            # Deterministic coverage said it would execute; reaching here
            # means the run diverged before the trigger (should not
            # happen) — record it faithfully rather than guessing.
            return InjectionResult(outcome=NOT_ACTIVATED, activated=False,
                                   run_status=result.status, **base)
        fields = dict(base)
        fields.update(
            activated=True,
            activation_tsc=activation_tsc,
            run_status=result.status,
            run_cycles=result.cycles,
            exit_code=result.exit_code,
            console_tail=result.console[-160:],
        )
        crash = result.crash
        if self.recovery and result.continued_after_dump:
            return self._classify_recovered(fields, golden, result, grade)
        if result.status in ("halted", "watchdog", "triple_fault") \
                and crash is not None:
            cause = crash_cause_name(crash.vector, crash.cr2)
            info = self.kernel.find_function(crash.eip)
            latency = max(0, crash.tsc - activation_tsc
                          - self.crash_overhead())
            # Faults taken *inside* the crash handler write extra dump
            # records before the final one; record them instead of
            # silently dropping them (propagation analysis wants them).
            nested = []
            for record in result.crashes[:-1]:
                nested_info = self.kernel.find_function(record.eip)
                nested.append({
                    "vector": record.vector,
                    "eip": record.eip,
                    "cr2": record.cr2,
                    "subsystem": (nested_info.subsystem
                                  if nested_info else None),
                })
            fields.update(
                outcome=CRASH_DUMPED,
                crash_vector=crash.vector,
                crash_cause=cause,
                crash_cr2=crash.cr2,
                crash_eip=crash.eip,
                crash_function=info.name if info else None,
                crash_subsystem=info.subsystem if info else None,
                latency=latency,
                nested_crashes=nested or None,
            )
            if grade:
                severity, fs_status = grade_severity(
                    self.kernel, result.disk_image,
                    golden_files=self.golden_critical_files(),
                    boot=self.boot_machine)
                fields.update(severity=severity, fs_status=fs_status)
            return InjectionResult(**fields)
        if result.status == "triple_fault":
            fields.update(outcome=CRASH_UNKNOWN, detail=result.detail)
            return InjectionResult(**fields)
        if result.status in ("halted", "watchdog"):
            # Wedged without managing a dump: the paper's
            # hang / unknown-crash bucket.
            outcome = CRASH_UNKNOWN if result.status == "halted" else HANG
            fields.update(outcome=outcome, detail=result.detail)
            return InjectionResult(**fields)
        # Run completed: compare against the golden run.
        same_console = result.console == golden.console
        same_exit = result.exit_code == golden.exit_code
        same_disk = result.disk_image == golden.final_disk
        if same_console and same_exit and same_disk:
            fields.update(outcome=NOT_MANIFESTED)
            return InjectionResult(**fields)
        fields.update(outcome=FAIL_SILENCE_VIOLATION)
        if grade and not same_disk:
            severity, fs_status = grade_severity(
                self.kernel, result.disk_image,
                golden_files=self.golden_critical_files(),
                boot=self.boot_machine)
            fields.update(fs_status=fs_status)
            # A run that "succeeded" but left an unbootable system is the
            # paper's case 1: no crash, yet reformat required.
            if severity != "normal":
                fields.update(severity=severity)
        return InjectionResult(**fields)

    def _classify_recovered(self, fields, golden, result, grade):
        """Classify a run whose kernel dumped and kept running.

        The primary crash fields come from the first recovered dump;
        the post-recovery behaviour decides the sub-class: a clean
        shutdown whose console still contains the golden run's output
        (in order; oops text is interleaved) with matching exit code
        and disk is *workload-correct*; a clean shutdown that diverged
        is a *fail-silence violation after recovery*; a run that
        recovered once and then halted/hung/triple-faulted anyway is a
        *later crash*.  Every recovered run gets an fsck severity
        grade: a recovered oops can still corrupt the filesystem.
        """
        primary = result.recovered_dumps[0]
        info = self.kernel.find_function(primary.eip)
        latency = max(0, primary.tsc - fields["activation_tsc"]
                      - self.crash_overhead())
        nested = []
        for record in result.crashes:
            if record is primary:
                continue
            nested_info = self.kernel.find_function(record.eip)
            nested.append({
                "vector": record.vector,
                "eip": record.eip,
                "cr2": record.cr2,
                "recovered": record.recovered,
                "subsystem": (nested_info.subsystem
                              if nested_info else None),
            })
        if result.status == "shutdown":
            same_exit = result.exit_code == golden.exit_code
            same_disk = result.disk_image == golden.final_disk
            if same_exit and same_disk and _console_subsumes(
                    golden.console, result.console):
                sub = RECOVERED_WORKLOAD_CORRECT
            else:
                sub = RECOVERED_FSV
        else:
            sub = RECOVERED_LATER_CRASH
        fields.update(
            outcome=CRASH_RECOVERED,
            recovered_class=sub,
            crash_vector=primary.vector,
            crash_cause=crash_cause_name(primary.vector, primary.cr2),
            crash_cr2=primary.cr2,
            crash_eip=primary.eip,
            crash_function=info.name if info else None,
            crash_subsystem=info.subsystem if info else None,
            latency=latency,
            nested_crashes=nested or None,
            detail=result.detail,
        )
        if grade:
            severity, fs_status = grade_severity(
                self.kernel, result.disk_image,
                golden_files=self.golden_critical_files(),
                boot=self.boot_machine)
            fields.update(severity=severity, fs_status=fs_status)
        return InjectionResult(**fields)

    # -- campaign loop ------------------------------------------------------------------

    def run_campaign(self, campaign_key, functions=None, seed=2003,
                     byte_stride=1, max_per_function=None, grade=True,
                     progress=None, max_specs=None, jobs=1,
                     timeout=None, retries=2, max_worker_failures=3,
                     journal_path=None, resume=False,
                     static_verdicts=False, delta_from=None,
                     delta_base_kernel=None):
        """Plan and execute a whole campaign of any kind (see
        :meth:`plan_specs`); returns CampaignResults.

        Execution goes through the fault-tolerant engine
        (:mod:`repro.injection.engine`): *jobs* > 1 runs experiments in
        process-isolated workers with per-experiment watchdogs and
        retry; *journal_path* appends every completed experiment to a
        JSONL journal and *resume* restarts an interrupted campaign
        from it.  Specs are planned deterministically up front, so
        serial and parallel runs of the same seed yield identical
        results; only ``meta["engine"]`` (execution telemetry) may
        differ between modes.

        *static_verdicts* enriches every spec (and hence every result)
        with the symbolic error-propagation verdict.  Enrichment does
        not enter the journal fingerprint, so enriched runs resume
        cleanly over journals written without it and vice versa, and
        a delta campaign carries records across it either way.

        *delta_from* makes it an incremental delta campaign
        (:mod:`repro.staticanalysis.delta`): a prior campaign journal
        run against *delta_base_kernel* whose records are carried
        forward wherever the static differ proves them bit-identical.
        They are journaled before the engine starts, and the engine
        resumes over them, so only the impacted remainder executes;
        ``meta["delta"]`` summarizes the plan.
        """
        plan_args = dict(functions=functions, seed=seed,
                         byte_stride=byte_stride,
                         max_per_function=max_per_function,
                         max_specs=max_specs,
                         static_verdicts=static_verdicts)
        delta = None
        if delta_from is None:
            functions, specs = self.plan_specs(campaign_key, **plan_args)
        else:
            if delta_base_kernel is None:
                raise ValueError(
                    "delta_from requires delta_base_kernel (the "
                    "kernel image the source journal ran against)")
            from repro.staticanalysis.delta import plan_delta
            delta = plan_delta(self, delta_base_kernel, delta_from,
                               campaign_key, **plan_args)
            functions, specs = delta.functions, delta.specs
            if journal_path is None:
                journal_path = os.path.join(
                    tempfile.mkdtemp(prefix="delta_campaign_"),
                    "delta.journal.jsonl")
            journal = CampaignJournal(journal_path)
            journal.start(delta.fingerprint, campaign_key, seed,
                          len(specs), fresh=True)
            try:
                delta.seed_journal(journal)
            finally:
                journal.close()
            resume = True
        config = EngineConfig(jobs=jobs, timeout=timeout,
                              retries=retries,
                              max_worker_failures=max_worker_failures,
                              journal_path=journal_path, resume=resume)
        results, engine_meta = CampaignEngine(self, config).execute(
            campaign_key, specs, seed=seed, byte_stride=byte_stride,
            grade=grade, progress=progress)
        campaign = CampaignResults.of_plan(
            campaign_key, functions, specs, seed, byte_stride, results,
            engine_meta)
        if delta is not None:
            campaign.meta["delta"] = delta.summary()
        return campaign

    def plan_specs(self, campaign_key, functions=None, seed=2003,
                   byte_stride=1, max_per_function=None,
                   max_specs=None, static_verdicts=False):
        """Deterministic planning half of :meth:`run_campaign`.

        Returns ``(functions, specs)``.  Split out so the campaign
        fabric (:mod:`repro.injection.fabric`) can re-plan the exact
        spec list on any host and carve shards out of it without
        executing anything.

        *campaign_key* is one of the paper's instruction-flip campaigns
        (A, B, C), a fault-model campaign
        (:data:`~repro.injection.faultmodels.CAMPAIGN_KEYS`: M, RT, I,
        D) or the register campaign R.  R triggers in *functions*, by
        default campaign A's.  A fault model picks its own triggers
        (campaign A's functions; the disk model its fixed fs/driver
        entries), so it takes no *functions* and returns the ones its
        specs trigger in.  Both take *max_per_function* as the number
        of faults planned per function.  *static_verdicts* annotates
        instruction-flip plans only: the verdict models an
        instruction flip.
        """
        if campaign_key in KIND_OF_KEY:
            if functions is not None:
                raise ValueError(
                    "fault-model campaign %s picks its own trigger "
                    "functions; pass no functions" % campaign_key)
            specs = plan_fault_model_campaign(
                self.kernel, self.profile, KIND_OF_KEY[campaign_key],
                seed=seed, per_function=max_per_function,
                max_specs=max_specs)
            names = {spec.function for spec in specs}
            return ([f for f in self.kernel.functions if f.name in names],
                    specs)
        if campaign_key not in CAMPAIGNS and campaign_key != "R":
            raise ValueError("unknown campaign key %r (have %s)" % (
                campaign_key,
                ", ".join(sorted(CAMPAIGNS) + ["R"] + sorted(KIND_OF_KEY))))
        if functions is None:
            functions = select_targets(
                self.kernel, self.profile,
                campaign_key if campaign_key in CAMPAIGNS else "A")
        if campaign_key == "R":
            per_function = {}
            if max_per_function is not None:
                per_function["per_function"] = max_per_function
            specs = [spec.to_injection_spec()
                     for spec in plan_register_campaign(
                         self.kernel, functions, seed=seed,
                         **per_function)]
        else:
            specs = plan_campaign(self.kernel, campaign_key, functions,
                                  seed=seed, byte_stride=byte_stride,
                                  max_per_function=max_per_function,
                                  static_verdicts=static_verdicts)
        if max_specs is not None:
            specs = specs[:max_specs]
        return functions, specs


class _GoldenBuilder:
    """A forked process building golden runs for its parent.

    It writes its runs, frozen as the snapshot store freezes them, to a
    file and exits; the parent joins it and thaws them only once it has
    built its own, so reading them never competes with its own golden
    runs for the interpreter.  The builder does not use the snapshot
    store: the parent saves what it takes, and counts it there.
    """

    def __init__(self, harness, workloads):
        import multiprocessing
        fd, self.path = tempfile.mkstemp(prefix="goldens-",
                                         suffix=".pickle")
        os.close(fd)
        self.process = multiprocessing.get_context("fork").Process(
            target=_golden_builder_main,
            args=(harness, workloads, self.path))
        self.process.start()
        self.frozen = None

    def take(self, workload, kernel):
        """The builder's golden run of *workload* thawed for *kernel*,
        or ``None`` when the builder failed."""
        from repro.injection.fabric import _thaw_golden
        if self.frozen is None:
            self.process.join()
            self.frozen = {}
            try:
                if self.process.exitcode == 0:
                    with open(self.path, "rb") as fh:
                        self.frozen = pickle.load(fh)
            except (OSError, EOFError, pickle.UnpicklingError):
                pass
            finally:
                os.unlink(self.path)
        payload = self.frozen.pop(workload, None)
        return None if payload is None else _thaw_golden(payload, kernel)

    def discard(self):
        """Stop a builder whose runs will not be taken."""
        if self.frozen is None:
            self.process.terminate()
            self.process.join()
            os.unlink(self.path)
            self.frozen = {}


def _golden_builder_main(harness, workloads, path):
    """A golden builder's body: build *workloads* in-process and write
    them, frozen, to *path*."""
    from repro.injection.fabric import _freeze_golden
    harness.snapshot_store = None
    harness._builders = {}
    frozen = {workload: _freeze_golden(harness.golden(workload))
              for workload in workloads}
    with open(path, "wb") as fh:
        pickle.dump(frozen, fh, protocol=pickle.HIGHEST_PROTOCOL)
