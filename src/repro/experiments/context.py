"""Shared experiment state with lazy construction and caching."""

import json
import os
import sys
import time

from repro.injection.runner import CampaignResults, InjectionHarness
from repro.kernel.build import build_kernel
from repro.profiling.sampler import profile_kernel
from repro.userland.build import build_all_programs
from repro.userland.programs import WORKLOADS

#: Campaign sizing presets: campaign -> (byte_stride, max_specs).
SCALES = {
    # A few dozen injections per campaign; smoke tests.
    "tiny": {"A": (40, 120), "B": (12, 120), "C": (3, 120)},
    # A few hundred per campaign; CI-sized statistics.
    "quick": {"A": (12, None), "B": (4, None), "C": (1, None)},
    # The default for EXPERIMENTS.md: thousands of injections.
    "standard": {"A": (4, None), "B": (2, None), "C": (1, None)},
    # Paper-scale: every planned injection.
    "full": {"A": (1, None), "B": (1, None), "C": (1, None)},
}

#: Fault-model campaign sizing: scale -> max specs per model (the
#: plans themselves are already per-function-capped; None = all).
FAULT_SCALES = {
    "tiny": 10,
    "quick": 40,
    "standard": 120,
    "full": None,
}

#: Retry budget of the "retrying driver" ablation harness.
DEFAULT_DISK_RETRIES = 2


class ExperimentContext:
    """Builds and caches everything the experiments share."""

    def __init__(self, scale="quick", seed=2003, results_dir=None,
                 verbose=False, jobs=1, resume=False):
        if scale not in SCALES:
            raise ValueError("unknown scale %r (have %s)"
                             % (scale, sorted(SCALES)))
        self.scale = scale
        self.seed = seed
        self.results_dir = results_dir
        self.verbose = verbose
        self.jobs = jobs
        self.resume = resume
        self._kernel = None
        self._binaries = None
        self._profile = None
        self._harness = None
        self._recovery_harness = None
        self._traced_harness = None
        self._retry_harness = None
        self._campaigns = {}
        self._recovery_campaigns = {}
        self._traced_campaigns = {}
        self._fault_campaigns = {}
        self._delta_campaigns = {}
        self._snapshot_store = None

    # -- lazily built shared state ------------------------------------------

    @property
    def kernel(self):
        if self._kernel is None:
            self._kernel = build_kernel()
        return self._kernel

    @property
    def binaries(self):
        if self._binaries is None:
            self._binaries = build_all_programs()
        return self._binaries

    @property
    def profile(self):
        if self._profile is None:
            self._log("profiling kernel under %d workloads..."
                      % len(WORKLOADS))
            self._profile = profile_kernel(self.kernel, self.binaries,
                                           WORKLOADS)
        return self._profile

    @property
    def harness(self):
        if self._harness is None:
            self._harness = InjectionHarness(self.kernel, self.binaries,
                                             self.profile)
        return self._harness

    @property
    def recovery_harness(self):
        """Harness whose runs boot the recovery-enabled kernel."""
        if self._recovery_harness is None:
            self._recovery_harness = InjectionHarness(
                self.kernel, self.binaries, self.profile, recovery=True)
        return self._recovery_harness

    @property
    def traced_harness(self):
        """Harness whose runs carry the execution flight recorder."""
        if self._traced_harness is None:
            self._traced_harness = InjectionHarness(
                self.kernel, self.binaries, self.profile, trace=True)
        return self._traced_harness

    @property
    def retry_harness(self):
        """Harness whose kernels boot with the IDE retry path armed.

        The middle rung of the graceful-degradation ablation: same
        fail-stop oops handling as :attr:`harness`, but a failed disk
        transfer is retried with backoff before ``-EIO`` propagates.
        """
        if self._retry_harness is None:
            self._retry_harness = InjectionHarness(
                self.kernel, self.binaries, self.profile,
                disk_retries=DEFAULT_DISK_RETRIES)
        return self._retry_harness

    @property
    def snapshot_store(self):
        """Shared boot-snapshot store (``<results_dir>/snapshots``).

        ``None`` without a results directory — the store is an on-disk
        cache, and a context with nowhere to persist results has
        nowhere to persist snapshots either.
        """
        if self._snapshot_store is None and self.results_dir is not None:
            from repro.injection.fabric import SnapshotStore
            self._snapshot_store = SnapshotStore(
                os.path.join(self.results_dir, "snapshots"))
        return self._snapshot_store

    def campaign(self, key):
        """Results for campaign *key* at this context's scale (cached)."""
        return self._campaign(key)

    def sharded_campaign(self, key, shards=3, pool=None, chaos=0):
        """Campaign *key* executed through the fabric (cached).

        Same plan (seed, stride, cap) as :meth:`campaign`, split into
        *shards* content-addressed shards and dispatched to a local
        pool by :class:`~repro.injection.fabric.FabricCoordinator`;
        by the merge-equivalence property the results are bit-identical
        to :meth:`campaign`'s, so the cache is shared with the plain
        variant.  *chaos* > 0 SIGKILLs that many shard workers mid-run
        (they are retried and their journals resumed).
        """
        cache = self._cache_for("")
        if key in cache:
            return cache[key]
        cached = self._load_cached(key, "")
        if cached is not None:
            cache[key] = cached
            return cached
        from repro.injection.fabric import (
            FabricConfig,
            FabricCoordinator,
        )
        import tempfile
        stride, max_specs = SCALES[self.scale][key]
        self._log("running campaign %s [fabric %d shards] (stride %d)..."
                  % (key, shards, stride))
        start = time.time()
        config = FabricConfig(pool=pool or max(2, self.jobs),
                              chaos_kills=chaos, chaos_seed=self.seed)
        harness = InjectionHarness(self.kernel, self.binaries,
                                   self.profile,
                                   snapshot_store=self.snapshot_store)
        coordinator = FabricCoordinator(harness, config)
        if self.results_dir is not None:
            workdir = os.path.join(self.results_dir,
                                   "fabric_%s_%s_seed%d"
                                   % (key, self.scale, self.seed))
        else:
            workdir = tempfile.mkdtemp(prefix="fabric_%s_" % key)
        results = coordinator.run_campaign(
            key, seed=self.seed, byte_stride=stride,
            max_specs=max_specs, shard_count=shards, workdir=workdir)
        self._log("campaign %s [fabric]: %d injections in %.1fs"
                  % (key, len(results), time.time() - start))
        cache[key] = results
        self._store_cached(key, results, "")
        return results

    def recovery_campaign(self, key):
        """Campaign *key* re-run under the recovery kernel (cached).

        Identical injection plan to :meth:`campaign` (same seed, stride
        and spec cap) so the two distributions are directly comparable;
        only the kernel's oops handling differs.
        """
        return self._campaign(key, variant="recovery")

    def traced_campaign(self, key):
        """Campaign *key* re-run under the flight recorder (cached).

        Identical plan and (by the bit-identity property) identical
        outcomes to :meth:`campaign`; the results additionally carry
        the ``trace_*`` divergence measurements.  Cached separately —
        plain campaign caches predate tracing and lack those fields.
        """
        return self._campaign(key, variant="traced")

    def fault_campaign(self, kind, variant=""):
        """Results of one fault-model campaign (cached).

        *kind* is a :data:`repro.injection.faultmodels.FAULT_KINDS`
        entry; *variant* selects the harness: ``""`` (fail-stop),
        ``"retry"`` (IDE retry path) or ``"recovery"`` (oops-kill-
        continue kernel).  The plan is identical across variants, so
        the three outcome distributions are directly comparable.
        """
        cache_key = (kind, variant)
        if cache_key not in self._fault_campaigns:
            from repro.injection.faultmodels import \
                run_fault_model_campaign
            name = "F" + kind
            cached = self._load_cached(name, variant)
            if cached is not None:
                self._fault_campaigns[cache_key] = cached
                return cached
            max_specs = FAULT_SCALES[self.scale]
            mode = " [%s]" % variant if variant else ""
            self._log("running fault-model campaign %s%s (jobs %d)..."
                      % (kind, mode, self.jobs))
            start = time.time()
            progress = self._progress if self.verbose else None
            results = run_fault_model_campaign(
                self._harness_for(variant), kind, seed=self.seed,
                max_specs=max_specs, progress=progress, jobs=self.jobs,
                journal_path=self._journal_path(name, variant),
                resume=self.resume)
            self._log("fault-model campaign %s%s: %d injections in %.1fs"
                      % (kind, mode, len(results), time.time() - start))
            self._fault_campaigns[cache_key] = results
            self._store_cached(name, results, variant)
        return self._fault_campaigns[cache_key]

    def delta_campaign(self, key, source_edits):
        """Campaign *key* re-planned incrementally after a source edit.

        Runs (or loads) the base campaign on :attr:`kernel`, rebuilds
        the kernel with *source_edits* applied, and executes only the
        injection sites the static differ cannot prove unchanged
        (:mod:`repro.staticanalysis.delta`); every other record is
        carried forward from the base campaign's journal.  When the
        base run kept no journal (in-memory or JSON-cached results),
        one is materialized first.  ``results.meta["delta"]`` holds
        the re-run fraction, the per-reason live counts and the
        carry-forward provenance.
        """
        edits = tuple(tuple(edit) for edit in source_edits)
        cache_key = (key, edits)
        if cache_key not in self._delta_campaigns:
            import tempfile
            from repro.staticanalysis.delta import write_results_journal
            base = self.campaign(key)
            journal = self._journal_path(key)
            if journal is None or not os.path.exists(journal):
                journal = os.path.join(
                    tempfile.mkdtemp(prefix="delta_source_"),
                    "campaign_%s.journal.jsonl" % key)
                write_results_journal(base, journal)
            stride, max_specs = SCALES[self.scale][key]
            self._log("rebuilding kernel with %d source edit(s)..."
                      % len(edits))
            new_kernel = build_kernel(source_edits=edits)
            harness = InjectionHarness(new_kernel, self.binaries,
                                       self.profile)
            self._log("running delta campaign %s (stride %d)..."
                      % (key, stride))
            start = time.time()
            results = harness.run_campaign(
                key, seed=self.seed, byte_stride=stride,
                max_specs=max_specs, jobs=self.jobs,
                delta_from=journal, delta_base_kernel=self.kernel)
            delta = results.meta["delta"]
            self._log("delta campaign %s: %d carried, %d live "
                      "(fraction %.4f) in %.1fs"
                      % (key, delta["carried"], delta["live"],
                         delta["rerun_fraction"], time.time() - start))
            self._delta_campaigns[cache_key] = results
        return self._delta_campaigns[cache_key]

    def _harness_for(self, variant):
        if variant == "recovery":
            return self.recovery_harness
        if variant == "traced":
            return self.traced_harness
        if variant == "retry":
            return self.retry_harness
        return self.harness

    def _cache_for(self, variant):
        if variant == "recovery":
            return self._recovery_campaigns
        if variant == "traced":
            return self._traced_campaigns
        return self._campaigns

    def _campaign(self, key, variant=""):
        cache = self._cache_for(variant)
        if key not in cache:
            cached = self._load_cached(key, variant)
            if cached is not None:
                cache[key] = cached
                return cached
            stride, max_specs = SCALES[self.scale][key]
            mode = " [%s]" % variant if variant else ""
            self._log("running campaign %s%s (stride %d, jobs %d)..."
                      % (key, mode, stride, self.jobs))
            start = time.time()
            progress = self._progress if self.verbose else None
            harness = self._harness_for(variant)
            results = harness.run_campaign(
                key, seed=self.seed, byte_stride=stride,
                max_specs=max_specs, progress=progress,
                jobs=self.jobs,
                journal_path=self._journal_path(key, variant),
                resume=self.resume)
            self._log("campaign %s%s: %d injections in %.1fs"
                      % (key, mode, len(results), time.time() - start))
            cache[key] = results
            self._store_cached(key, results, variant)
        return cache[key]

    def all_campaigns(self):
        return {key: self.campaign(key) for key in ("A", "B", "C")}

    def all_results(self):
        merged = []
        for key in ("A", "B", "C"):
            merged.extend(self.campaign(key).results)
        return merged

    # -- persistence -----------------------------------------------------------

    def _cache_path(self, key, variant=""):
        if self.results_dir is None:
            return None
        suffix = "_" + variant if variant else ""
        return os.path.join(self.results_dir,
                            "campaign_%s_%s_seed%d%s.json"
                            % (key, self.scale, self.seed, suffix))

    def _journal_path(self, key, variant=""):
        """JSONL journal next to the cache (enables crash-safe resume)."""
        path = self._cache_path(key, variant)
        if path is None:
            return None
        return path[:-len(".json")] + ".journal.jsonl"

    def _load_cached(self, key, variant=""):
        path = self._cache_path(key, variant)
        if path is None or not os.path.exists(path):
            return None
        try:
            return CampaignResults.load(path)
        except (OSError, ValueError, KeyError):
            return None

    def _store_cached(self, key, results, variant=""):
        path = self._cache_path(key, variant)
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        results.save(path)

    # -- misc ---------------------------------------------------------------------

    def _log(self, message):
        if self.verbose:
            print("[experiments] " + message, file=sys.stderr, flush=True)

    def _progress(self, done, total, result):
        if done % 200 == 0 or done == total:
            print("[experiments]   %d/%d (%s)"
                  % (done, total, result.outcome),
                  file=sys.stderr, flush=True)

    def summary_json(self):
        """Machine-readable digest of everything (for tooling/tests)."""
        from repro.analysis.stats import outcome_pie
        out = {"scale": self.scale, "seed": self.seed, "campaigns": {}}
        for key in ("A", "B", "C"):
            results = self.campaign(key)
            pie = outcome_pie(results.results)
            out["campaigns"][key] = {
                "injected": len(results),
                "pie": dict(pie),
            }
        return json.dumps(out, indent=2, sort_keys=True)
