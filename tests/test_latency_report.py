"""latency_report against an independent nearest-rank oracle."""

from __future__ import annotations

import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from scopeline.pipeline import STAGE_TOTAL, latency_report

STAT_KEYS = ["mean", "p50", "p95", "max", "count"]


def nearest_rank(values: list[float], percent: int) -> float:
    """Smallest sample with at least ``percent`` percent of the samples at or below it."""
    return next(v for v in sorted(values) if Fraction(sum(u <= v for u in values), len(values)) * 100 >= percent)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 19, 20, 21, 40, 101])
def test_stage_stats_match_the_oracle(count):
    rng = random.Random(count)
    # Whole numbers make ties, which nearest rank must step over correctly.
    values = [float(rng.randint(0, 9)) if rng.random() < 0.5 else rng.uniform(0.0, 50.0) for _ in range(count)]
    stats = latency_report({"gate": values}, count)["stages"]["gate"]
    assert list(stats) == STAT_KEYS
    assert stats["p50"] == nearest_rank(values, 50)
    assert stats["p95"] == nearest_rank(values, 95)
    assert stats["max"] == max(values)
    assert stats["count"] == count
    assert stats["mean"] == pytest.approx(float(sum(map(Fraction, values)) / count), rel=1e-12)


@pytest.mark.parametrize(
    "values, p50, p95",
    [
        ([5.0, 1.0, 3.0], 3.0, 5.0),  # odd count: the middle sample
        ([4.0, 1.0, 3.0, 2.0], 2.0, 4.0),  # even count: the lower middle sample
        ([float(v) for v in range(1, 21)], 10.0, 19.0),  # 95% of 20 is exactly rank 19
        ([float(v) for v in range(1, 22)], 11.0, 20.0),  # 95% of 21 rounds up to rank 20
    ],
)
def test_percentiles_by_hand(values, p50, p95):
    stats = latency_report({"gate": values}, len(values))["stages"]["gate"]
    assert (stats["p50"], stats["p95"]) == (p50, p95)


def test_layout_sorts_stages_and_omits_a_stage_without_samples():
    report = latency_report({"gate": [1.0], "detector_b": [], "ensemble": [2.0], "detector_a": [3.0]}, frames=4)
    assert list(report) == ["frames", "throughput_fps", "stages"]
    assert report["frames"] == 4
    assert list(report["stages"]) == ["detector_a", "ensemble", "gate"]


def test_throughput_is_frames_with_a_total_per_accounted_second():
    totals = [10.0, 20.0, 30.0, 40.0]
    report = latency_report({STAGE_TOTAL: totals, "gate": [1.0] * 6}, frames=6)
    assert report["throughput_fps"] == 1000.0 * len(totals) / sum(totals) == 40.0


@pytest.mark.parametrize("samples", [{}, {"gate": [1.0]}, {STAGE_TOTAL: []}], ids=["nothing", "no-total", "empty-total"])
def test_throughput_is_none_without_totals(samples):
    report = latency_report(samples, frames=3)
    assert report["throughput_fps"] is None
    assert STAGE_TOTAL not in report["stages"]


def test_report_sorts_each_stage_in_8_byte_doubles():
    count = 20_000
    rng = random.Random(5)
    samples = {name: array("d", (rng.uniform(0.0, 50.0) for _ in range(count))) for name in ("gate", STAGE_TOTAL)}
    tracemalloc.start()
    try:
        report = latency_report(samples, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for name, values in samples.items():
        stats = report["stages"][name]
        ordered = sorted(values)  # nearest rank: 50% and 95% of 20,000 are ranks 10,000 and 19,000
        assert (stats["p50"], stats["p95"], stats["max"]) == (ordered[9_999], ordered[18_999], ordered[-1])
        assert all(type(stats[key]) is float for key in ("mean", "p50", "p95", "max"))
    # A sorted NumPy copy peaks near 16 bytes a sample; a sorted list of float objects near 68.
    assert peak < 24 * count, f"{peak / count:.1f} bytes a sample"
