"""ExperimentContext plumbing (cache paths, summaries, lazy builds)."""

import json

from repro.experiments.context import SCALES, ExperimentContext
from repro.injection.runner import CampaignResults
from tests.test_analysis import make_result


class TestContextPlumbing:
    def test_lazy_shared_state_cached(self, kernel):
        ctx = ExperimentContext(scale="tiny")
        ctx._kernel = kernel
        assert ctx.kernel is kernel
        assert ctx.kernel is ctx.kernel

    def test_cache_path_encodes_scale_and_seed(self, tmp_path):
        ctx = ExperimentContext(scale="tiny", seed=7,
                                results_dir=str(tmp_path))
        path = ctx._cache_path("B")
        assert "campaign_B_tiny_seed7.json" in path

    def test_no_results_dir_no_cache(self):
        ctx = ExperimentContext(scale="tiny")
        assert ctx._cache_path("A") is None
        assert ctx._load_cached("A") is None

    def test_corrupt_cache_ignored(self, tmp_path):
        ctx = ExperimentContext(scale="tiny", results_dir=str(tmp_path))
        path = ctx._cache_path("A")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert ctx._load_cached("A") is None

    def test_summary_json(self):
        ctx = ExperimentContext(scale="tiny", seed=3)
        ctx._campaigns = {
            (key, ""): CampaignResults(key, [
                make_result(outcome="not_manifested"),
                make_result(outcome="crash_dumped", crash_cause="gpf"),
            ]) for key in "ABC"
        }
        payload = json.loads(ctx.summary_json())
        assert payload["seed"] == 3
        assert payload["campaigns"]["A"]["injected"] == 2
        assert payload["campaigns"]["B"]["pie"]["crash_dumped"] == 1

    def test_scales_monotone(self):
        order = ["tiny", "quick", "standard", "full"]
        for campaign in "ABC":
            strides = [SCALES[name][campaign][0] for name in order]
            assert strides == sorted(strides, reverse=True)
