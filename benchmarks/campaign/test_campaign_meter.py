"""The host-speed meter: reading samples and normalizing times.

    PYTHONPATH=src python3 -m pytest benchmarks/campaign -q
"""

import pytest

import meter


def test_read_skips_a_torn_last_line(tmp_path):
    (tmp_path / "0.txt").write_text("1.0 0.002\n2.0 0.004\n3.0")
    (tmp_path / "1.txt").write_text("1.5 0.003\n")
    assert sorted(meter.read(str(tmp_path))) == [
        (1.0, 0.002), (1.5, 0.003), (2.0, 0.004)]


def test_chunk_s_averages_the_samples_inside_the_window():
    samples = [(1.0, 0.002), (1.5, 0.004), (2.0, 0.009)]
    assert meter.chunk_s(samples, 1.0, 1.5) == 0.003
    assert meter.chunk_s(samples, 2.5, 3.0) is None


def test_normalized_scales_with_host_speed():
    assert meter.normalized(10.0, meter.REF_CHUNK_S) == 10.0
    # On a host at half speed the normalized time is below the wall time.
    slow = meter.normalized(10.0, 2 * meter.REF_CHUNK_S)
    assert slow == pytest.approx(10.0 / 2 ** meter.ELASTICITY)


def test_sample_times_a_fixed_loop():
    assert 0 < meter.sample() < 1.0
