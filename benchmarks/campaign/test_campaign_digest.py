"""Digest canonicalisation, seeded samples and the pinned tables.

    PYTHONPATH=src python3 -m pytest benchmarks/campaign -q
"""

import json
import os

import pytest

from spans import layer_metrics
from workloads import (
    COST_TOLERANCE,
    HELD_OUT_SEED,
    POOL_SEED,
    WORKLOADS,
    allocate,
    canonical,
    check_results,
    expected,
    load_pinned,
    pin_key,
    run_digest,
    sample_indices,
    spec_digest,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIELDS = ["outcome", "addr", "bit", "latency"]


def test_canonical_ignores_key_order_nones_and_unpinned_fields():
    a = {"outcome": "hang", "addr": 10, "bit": 3, "latency": None}
    b = {"bit": 3, "new_field": "x", "addr": 10, "outcome": "hang"}
    assert canonical(a, FIELDS) == canonical(b, FIELDS) == \
        '{"addr":10,"bit":3,"outcome":"hang"}'
    assert spec_digest(a, FIELDS) == spec_digest(b, FIELDS)


def test_digest_changes_with_any_pinned_value():
    base = {"outcome": "hang", "addr": 10, "bit": 3, "latency": 7}
    for key, value in (("outcome", "crash_dumped"), ("addr", 11),
                       ("bit", 4), ("latency", 8)):
        assert spec_digest(dict(base, **{key: value}), FIELDS) != \
            spec_digest(base, FIELDS)


def test_run_digest_is_order_sensitive():
    assert run_digest(["a", "b"]) != run_digest(["b", "a"])


def test_allocate_is_proportional_and_exact():
    quotas = allocate({"x": 50, "y": 30, "z": 20}, 7)
    assert quotas == {"x": 4, "y": 2, "z": 1}
    assert sum(allocate({"x": 3, "y": 3, "z": 3}, 4).values()) == 4
    with pytest.raises(ValueError):
        allocate({"x": 3}, 4)


@pytest.fixture(scope="module")
def pinned():
    return load_pinned()


def _pool(pinned, name):
    return pinned["families"][WORKLOADS[name].family.key]


def test_samples_are_seeded_cost_matched_and_stratified(pinned):
    pool = _pool(pinned, "campA-jobs2")
    rows = pool["specs"]
    first = sample_indices(pool, 40, 1)
    assert first == sample_indices(pool, 40, 1)
    assert first != sample_indices(pool, 40, 2)
    strata = {}
    for seed in range(1, 11):
        chosen = sample_indices(pool, 40, seed)
        assert len(set(chosen)) == 40 and chosen == sorted(chosen)
        mix = sorted((rows[i][1], rows[i][2]) for i in chosen)
        strata.setdefault("mix", mix)
        assert mix == strata["mix"]
    costs = [sum(rows[i][3] for i in sample_indices(pool, 40, seed))
             for seed in range(1, 11)]
    assert max(costs) - min(costs) <= 2 * COST_TOLERANCE * max(costs)


def test_every_seed_pins_the_same_census(pinned):
    for name in WORKLOADS:
        pins = pinned["pins"][name]
        assert pins[pin_key(POOL_SEED)]["census"] == \
            pins[pin_key(HELD_OUT_SEED)]["census"]
        assert pins[pin_key(POOL_SEED)]["digest"] != \
            pins[pin_key(HELD_OUT_SEED)]["digest"]


def test_pins_match_the_pool_tables(pinned):
    for name, workload in WORKLOADS.items():
        pool = _pool(pinned, name)
        for seed in (POOL_SEED, HELD_OUT_SEED):
            for smoke in (False, True):
                indices = sample_indices(pool,
                                         workload.sample_size(smoke), seed)
                digest, census = expected(pool, indices)
                pin = pinned["pins"][name][pin_key(seed, smoke)]
                assert pin == {"digest": digest, "census": census}
                assert "harness_error" not in census


def test_check_results_flags_mismatch_missing_and_harness_errors():
    workload = WORKLOADS["campA-jobs2"]
    results = [{"outcome": "hang", "addr": a, "bit": 1} for a in range(6)]
    pool = {"campaign": "A", "specs": [
        [spec_digest(r, FIELDS), "fstime", r["outcome"], 100]
        for r in results]}
    pinned = {"fields": FIELDS, "families": {"A": pool}, "pins": {}}
    indices = list(range(6))
    good = check_results(pinned, workload, indices, results, 7)
    assert good["correct"] and good["failed"] == 0
    assert good["digest"] == expected(pool, indices)[0]
    assert good["census"] == {"hang": 6}
    errored = results[:-1] + [dict(results[-1], outcome="harness_error")]
    bad = check_results(pinned, workload, indices, errored, 7)
    assert not bad["correct"]
    assert bad["mismatched"] == 1 and bad["failed"] == 1
    short = check_results(pinned, workload, indices, results[:-2], 7)
    assert not short["correct"] and short["failed"] == 2
    pinned["pins"] = {workload.name: {"7": {"digest": "0" * 64,
                                            "census": {"hang": 6}}}}
    assert not check_results(pinned, workload, indices, results,
                             7)["correct"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    campaign = [{"id": "c", "name": "bench.campaign", "start": 0.0,
                 "end": 1.0, "parent": None, "pid": 1, "req": None,
                 "self": 1.0}]
    layer = layer_metrics(campaign, {}, workers=1)
    layer["trace.overhead"] = 1.0
    assert {m["name"] for m in spec["per_layer"]} <= set(layer)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
