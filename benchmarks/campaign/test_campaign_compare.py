"""Verdicts of compare.py.

    PYTHONPATH=src python3 -m pytest benchmarks/campaign -q
"""

from compare import compare, verdict

A = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


def test_same_runs_are_unchanged():
    assert verdict(A, list(A), "higher", 0.1) == "unchanged"


def test_worse_beyond_the_bound():
    assert verdict(A, [x * 0.85 for x in A], "higher", 0.1) == "worse"
    assert verdict(A, [x * 1.15 for x in A], "lower", 0.1) == "worse"


def test_better_needs_the_median_past_the_spread_and_nine_of_ten_wins():
    assert verdict(A, [x * 1.05 for x in A], "higher", 0.1) == "better"
    mixed = [x * 1.05 for x in A[:8]] + [x * 0.95 for x in A[8:]]
    assert verdict(A, mixed, "higher", 0.1) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved_unless_disjoint():
    wide = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0]
    assert verdict(A, wide, "higher", 0.1) == "unresolved"
    assert verdict(wide, [x + 20 for x in wide], "higher", 0.1) == "better"


def test_compare_pairs_workloads_and_skips_missing_metrics():
    spec = {"end_to_end": [{"name": "inj_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}],
            "per_layer": [{"name": "runner.boots", "unit": "count",
                           "better": "lower"}]}

    def record(scale):
        return {"runs": [{"workload": "w", "metrics": {"inj_per_s": x},
                          "per_layer": {"runner.boots": 4}}
                         for x in (v * scale for v in A)]}

    rows = compare(record(1.0), record(0.8), spec)
    assert [(r[0], r[1], r[5]) for r in rows] == [
        ("w", "inj_per_s", "worse"), ("w", "runner.boots", "-")]
