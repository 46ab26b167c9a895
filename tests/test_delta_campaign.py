"""Delta campaigns end to end: carry rules, journals, fabric, CLI.

The execution half of :mod:`repro.staticanalysis.delta`: planning a
campaign against a prior journal, pre-seeding carried records with
provenance, resuming the engine over them, composing with
``static_verdicts`` enrichment, sharding through the fabric, and the
``run_campaign(delta_from=...)`` / ``python -m repro.tools.kdelta``
entry points.
"""

import json

import pytest

from repro.injection.fabric import merge_shard_journals, plan_shards, \
    run_shard
from repro.injection.runner import InjectionHarness
from repro.kernel.build import build_kernel
from repro.staticanalysis.delta import (
    RECOVERY_GATE_EDIT,
    load_journal_results,
    plan_delta,
    seed_shard_journals,
    write_results_journal,
)

_KEY = "A"
_SEED = 2003
_STRIDE = 40
_MAX_SPECS = 12


@pytest.fixture(scope="module")
def base_run(harness, tmp_path_factory):
    """A small journaled campaign slice on the unedited kernel."""
    path = str(tmp_path_factory.mktemp("delta") / "base.journal.jsonl")
    results = harness.run_campaign(_KEY, seed=_SEED,
                                   byte_stride=_STRIDE,
                                   max_specs=_MAX_SPECS,
                                   journal_path=path)
    return results, path


@pytest.fixture(scope="module")
def enriched_base_run(harness, tmp_path_factory):
    """The slice of :func:`base_run`, planned with static verdicts."""
    path = str(tmp_path_factory.mktemp("delta") / "enriched.journal.jsonl")
    results = harness.run_campaign(_KEY, seed=_SEED,
                                   byte_stride=_STRIDE,
                                   max_specs=_MAX_SPECS,
                                   journal_path=path,
                                   static_verdicts=True)
    return results, path


@pytest.fixture(scope="module")
def recovery_harness2(harness):
    """Harness on the recovery-gate rebuild (same profile/binaries)."""
    kernel = build_kernel(source_edits=RECOVERY_GATE_EDIT)
    return InjectionHarness(kernel, harness.binaries, harness.profile)


def _dicts(results):
    return [r.to_dict() for r in results]


# -- planning against an unchanged kernel -----------------------------


def test_noop_delta_carries_everything(harness, base_run):
    _, journal = base_run
    plan = plan_delta(harness, harness.kernel, journal, _KEY,
                      seed=_SEED, byte_stride=_STRIDE,
                      max_specs=_MAX_SPECS)
    assert not plan.diff.any_change
    assert len(plan.carried) == len(plan.specs)
    assert plan.live_indices == []
    assert plan.rerun_fraction == 0.0


def test_noop_delta_results_identical(harness, base_run, tmp_path):
    base, journal = base_run
    out = str(tmp_path / "noop.journal.jsonl")
    delta = harness.run_campaign(_KEY, seed=_SEED,
                                 byte_stride=_STRIDE,
                                 max_specs=_MAX_SPECS,
                                 journal_path=out,
                                 delta_from=journal,
                                 delta_base_kernel=harness.kernel)
    assert _dicts(delta.results) == _dicts(base.results)
    assert delta.meta["delta"]["live"] == 0
    assert delta.meta["delta"]["rerun_fraction"] == 0.0

    # Every journal record is carried exactly once, stamped with the
    # full provenance triple; indices are unique (exactly-once holds).
    indices = []
    stamped = 0
    with open(out) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") != "result":
                continue
            indices.append(record["index"])
            carried = record.get("carried")
            if carried:
                assert carried["source_journal"]
                assert carried["base_kernel"]
                assert carried["new_kernel"]
                assert carried["base_kernel"] == carried["new_kernel"]
                stamped += 1
    assert sorted(indices) == list(range(len(base.results)))
    assert len(set(indices)) == len(indices)
    assert stamped == len(base.results)


def test_enriched_source_records_stay_live(harness, base_run,
                                           tmp_path):
    """A record carrying trace_* enrichment cannot be proved
    reproducible by an untraced re-run: it must go live."""
    _, journal = base_run
    doctored = str(tmp_path / "enriched.journal.jsonl")
    flagged = 0
    with open(journal) as src, open(doctored, "w") as dst:
        for line in src:
            record = json.loads(line)
            if record.get("type") == "result" and not flagged:
                record["result"]["trace_diverged"] = True
                flagged += 1
            dst.write(json.dumps(record) + "\n")
    assert flagged == 1
    plan = plan_delta(harness, harness.kernel, doctored, _KEY,
                      seed=_SEED, byte_stride=_STRIDE,
                      max_specs=_MAX_SPECS)
    assert plan.reasons["enriched-source"] == 1
    assert len(plan.live_indices) == 1


# -- the recovery-gate rebuild ----------------------------------------


def test_recovery_delta_equals_scratch(harness, recovery_harness2,
                                       base_run):
    _, journal = base_run
    scratch = recovery_harness2.run_campaign(_KEY, seed=_SEED,
                                             byte_stride=_STRIDE,
                                             max_specs=_MAX_SPECS)
    delta = recovery_harness2.run_campaign(
        _KEY, seed=_SEED, byte_stride=_STRIDE, max_specs=_MAX_SPECS,
        delta_from=journal, delta_base_kernel=harness.kernel)
    assert _dicts(delta.results) == _dicts(scratch.results)
    meta = delta.meta["delta"]
    assert meta["live"] >= 1
    assert meta["live"] + meta["carried"] == len(scratch.results)
    assert sum(meta["reasons"].values()) == meta["live"]
    assert meta["diff"]["changed"] == ["oops_recoverable"]


@pytest.mark.parametrize("source_enriched", [False, True],
                         ids=["enriched-delta", "enriched-source"])
def test_delta_composes_with_enrichment(harness, recovery_harness2,
                                        base_run, enriched_base_run,
                                        source_enriched):
    """A carried record takes its pred_* fields from the new plan, so
    delta equals scratch whichever side was planned with verdicts."""
    _, journal = enriched_base_run if source_enriched else base_run
    enriched = not source_enriched
    campaign = dict(seed=_SEED, byte_stride=_STRIDE,
                    max_specs=_MAX_SPECS, static_verdicts=enriched)
    scratch = recovery_harness2.run_campaign(_KEY, **campaign)
    delta = recovery_harness2.run_campaign(
        _KEY, delta_from=journal, delta_base_kernel=harness.kernel,
        **campaign)
    assert delta.meta["delta"]["carried"] >= 1
    assert _dicts(delta.results) == _dicts(scratch.results)
    assert all((r.pred_traps is not None) == enriched
               for r in delta.results)


def test_planner_counts_its_coverage_boots(harness, base_run,
                                           monkeypatch):
    """Each workload whose execution cone the planner computes costs
    one coverage boot, counted in ``harness.boots`` like any other."""
    from repro.staticanalysis import delta as delta_mod
    _, journal = base_run
    # A cold-path edit: activated records reach the cone rule.
    kernel = build_kernel(source_edits=(
        ("fs/vfs+ext2.c", "put_user(buf_user + 8, nblocks);",
         "put_user(buf_user + 9, nblocks);"),))
    edited = InjectionHarness(kernel, harness.binaries, harness.profile)

    def plan():
        return plan_delta(edited, harness.kernel, journal, _KEY,
                          seed=_SEED, byte_stride=_STRIDE,
                          max_specs=_MAX_SPECS)

    plan()          # boots the goldens: from here on only cones boot
    cones = []
    execution_cone = delta_mod._execution_cone

    def counting_cone(*args):
        cones.append(args)
        return execution_cone(*args)

    monkeypatch.setattr(delta_mod, "_execution_cone", counting_cone)
    boots = edited.boots
    plan()
    assert cones
    assert edited.boots - boots == len(cones)


# -- journal materialization ------------------------------------------


def test_write_results_journal_roundtrip(base_run, tmp_path):
    base, _ = base_run
    path = str(tmp_path / "materialized.journal.jsonl")
    write_results_journal(base, path)
    header, by_coords = load_journal_results(path)
    assert header["fingerprint"] == base.meta["fingerprint"]
    assert len(by_coords) == len(base.results)
    for result in base.results:
        coords = (result.function, result.addr, result.byte_offset,
                  result.bit, result.fault_model)
        assert by_coords[coords].to_dict() == result.to_dict()


# -- fabric composition -----------------------------------------------


def test_delta_plan_shards_and_merges(harness, base_run, tmp_path):
    base, journal = base_run
    plan = plan_delta(harness, harness.kernel, journal, _KEY,
                      seed=_SEED, byte_stride=_STRIDE,
                      max_specs=_MAX_SPECS)
    shards = plan_shards(plan.fingerprint, len(plan.specs), 2)
    paths = seed_shard_journals(plan, shards, str(tmp_path))
    for shard, path in zip(shards, paths):
        results, meta = run_shard(harness, _KEY, plan.specs, _SEED,
                                  _STRIDE, shard, path, resume=True)
        # Fully carried shard: nothing executes, everything resumes.
        assert meta["resumed_results"] == len(shard.indices)
    merged = merge_shard_journals(paths)
    assert not merged.missing
    assert _dicts(merged.ordered()) == _dicts(base.results)


# -- entry-point validation -------------------------------------------


def test_run_campaign_delta_argument_validation(harness, base_run):
    _, journal = base_run
    with pytest.raises(ValueError, match="delta_base_kernel"):
        harness.run_campaign(_KEY, delta_from=journal)


def test_plan_delta_rejects_traced_harness(harness, base_run):
    _, journal = base_run
    traced = InjectionHarness(harness.kernel, harness.binaries,
                              harness.profile, trace=True)
    with pytest.raises(ValueError, match="untraced"):
        plan_delta(traced, harness.kernel, journal, _KEY)


# -- kdelta CLI -------------------------------------------------------


def test_kdelta_diff_recovery(capsys):
    from repro.tools.kdelta import main
    assert main(["diff", "--recovery"]) == 0
    out = capsys.readouterr().out
    assert "oops_recoverable" in out
    assert "data:      unchanged" in out


def test_kdelta_requires_an_edit(capsys):
    from repro.tools.kdelta import main
    with pytest.raises(SystemExit):
        main(["diff"])
    assert "no source edits" in capsys.readouterr().err
