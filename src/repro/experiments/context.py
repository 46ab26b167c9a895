"""Shared experiment state with lazy construction and caching."""

import json
import os
import sys
import time

from repro.injection.faultmodels import CAMPAIGN_KEYS, KIND_OF_KEY
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


#: Harness keyword arguments per variant: the fail-stop default, the
#: recovery kernel, the flight recorder, and the IDE retry path (the
#: middle rung of the graceful-degradation ablation).
_VARIANTS = {
    "": {},
    "recovery": {"recovery": True},
    "traced": {"trace": True},
    "retry": {"disk_retries": DEFAULT_DISK_RETRIES},
}


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
        self._harnesses = {}        # variant -> InjectionHarness
        self._campaigns = {}        # (key, variant) -> CampaignResults

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
        return self._harness("")

    def _harness(self, variant):
        """The harness of *variant* (a :data:`_VARIANTS` key)."""
        if variant not in self._harnesses:
            self._harnesses[variant] = InjectionHarness(
                self.kernel, self.binaries, self.profile,
                **_VARIANTS[variant])
        return self._harnesses[variant]

    def campaign(self, key):
        """Results for campaign *key* at this context's scale (cached)."""
        return self._campaign(key)

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
        return self._campaign(CAMPAIGN_KEYS[kind], variant=variant)

    def _campaign(self, key, variant=""):
        """Campaign *key* on the *variant* harness: loaded from its
        cache file, or run (journaled next to it) and saved there.
        A/B/C are sized by :data:`SCALES`, fault-model keys by
        :data:`FAULT_SCALES` and cached as ``F<kind>``."""
        cache_key = (key, variant)
        if cache_key not in self._campaigns:
            if key in KIND_OF_KEY:
                name = "F" + KIND_OF_KEY[key]
                stride, max_specs = 1, FAULT_SCALES[self.scale]
            else:
                name = key
                stride, max_specs = SCALES[self.scale][key]
            cached = self._load_cached(name, variant)
            if cached is not None:
                self._campaigns[cache_key] = cached
                return cached
            mode = " [%s]" % variant if variant else ""
            self._log("running campaign %s%s (stride %d, jobs %d)..."
                      % (name, mode, stride, self.jobs))
            start = time.time()
            progress = self._progress if self.verbose else None
            results = self._harness(variant).run_campaign(
                key, seed=self.seed, byte_stride=stride,
                max_specs=max_specs, progress=progress,
                jobs=self.jobs,
                journal_path=self._journal_path(name, variant),
                resume=self.resume)
            self._log("campaign %s%s: %d injections in %.1fs"
                      % (name, mode, len(results), time.time() - start))
            self._campaigns[cache_key] = results
            self._store_cached(name, results, variant)
        return self._campaigns[cache_key]

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
