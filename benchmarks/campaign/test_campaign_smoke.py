"""End to end: ``run.py --smoke`` runs 8 specs of every workload; and
the forks each campaign runs in.

    PYTHONPATH=src python3 -m pytest benchmarks/campaign -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

from child import in_fork, peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_in_fork_returns_the_fork_result_and_reports_failure(tmp_path):
    path = str(tmp_path / "result.json")
    assert in_fork(lambda: {"pid": os.getpid()}, path)["pid"] != \
        os.getpid()
    with pytest.raises(RuntimeError):
        in_fork(lambda: 1 / 0, path)


def test_peak_rss_of_a_fork_leaves_out_an_earlier_sibling(tmp_path):
    """The fabric prep runs in a fork before the campaign's fork, so
    the campaign's peak_rss_mb must not include the prep's memory."""
    path = str(tmp_path / "result.json")

    def hog():
        blob = bytearray(64 * 2 ** 20)
        for i in range(0, len(blob), 4096):
            blob[i] = 1
        return {"rss": peak_rss_mb()}

    hogged = in_fork(hog, path)["rss"]
    clean = in_fork(lambda: {"rss": peak_rss_mb()}, path)["rss"]
    assert clean < hogged - 48


def test_smoke_run_is_correct_and_reports_every_metric(tmp_path):
    record_path = str(tmp_path / "record.json")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", record_path],
        capture_output=True, text=True, timeout=90)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 90
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] == 8 * len(spec["workloads"])
    with open(record_path) as fh:
        record = json.load(fh)
    for run in record["runs"]:
        assert run["check"]["pinned_seed"]       # seed 2003 is pinned
        assert run["metrics"]["failed_frac"] == 0
        for metric in spec["end_to_end"]:
            key = "%s/%s" % (run["workload"], metric["name"])
            assert last["metrics"][key]["unit"] == metric["unit"]
            assert last["metrics"][key]["value"] > 0
        assert run["stamp"]["cpu_count"] == os.cpu_count()
        assert len(run["host_probe_s"]) == 2
        assert len(run["setup_samples"]) == 1
        assert len(run["campaign_samples"]) == 1
