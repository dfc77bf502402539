"""SplitMix64 reference vectors and derived-draw sanity checks."""

from __future__ import annotations

import math
import statistics

import pytest

from scopeline.backends.synthetic import MAX_FP_RATE
from scopeline.rng import GOLDEN_GAMMA, MASK64, SplitMix64, frame_seed

# Reference outputs for SplitMix64 seeded with 1234567: first three values of
# the stream as published with the original mixing constants.
SEED_1234567_FIRST3 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


def test_reference_vector():
    rng = SplitMix64(1234567)
    assert tuple(rng.next_uint64() for _ in range(3)) == SEED_1234567_FIRST3


def test_zero_seed_stream_is_nontrivial():
    rng = SplitMix64(0)
    values = [rng.next_uint64() for _ in range(4)]
    assert len(set(values)) == 4
    assert all(0 <= v <= MASK64 for v in values)


def test_next_float_open_interval():
    rng = SplitMix64(9)
    for _ in range(10_000):
        u = rng.next_float()
        assert 0.0 < u < 1.0


def test_next_float_moments():
    rng = SplitMix64(2024)
    values = [rng.next_float() for _ in range(20_000)]
    assert statistics.mean(values) == pytest.approx(0.5, abs=0.01)
    assert statistics.pvariance(values) == pytest.approx(1 / 12, abs=0.005)


def test_next_below_range_and_uniformity():
    rng = SplitMix64(3)
    counts = [0] * 7
    for _ in range(14_000):
        v = rng.next_below(7)
        counts[v] += 1
    assert min(counts) > 1700  # expectation 2000 per bucket

    with pytest.raises(ValueError):
        rng.next_below(0)


def test_gaussian_moments():
    rng = SplitMix64(77)
    values = [rng.gaussian() for _ in range(20_000)]
    assert statistics.mean(values) == pytest.approx(0.0, abs=0.03)
    assert statistics.pstdev(values) == pytest.approx(1.0, abs=0.03)


def test_poisson_moments_and_edge_cases():
    rng = SplitMix64(5)
    values = [rng.poisson(1.0) for _ in range(20_000)]
    assert statistics.mean(values) == pytest.approx(1.0, abs=0.03)
    assert rng.poisson(0.0) == 0
    with pytest.raises(ValueError):
        rng.poisson(-1.0)


def test_poisson_at_the_fp_rate_bound_inverts_to_its_tail():
    # The largest uniform below 1 still ends the inversion in the tail just
    # past the mean, since exp(-mean) is a normal double at the bound.
    rng = SplitMix64(0)
    rng.next_float = lambda: math.nextafter(1.0, 0.0)
    assert MAX_FP_RATE < rng.poisson(MAX_FP_RATE) < 2 * MAX_FP_RATE


def top_draw_rng() -> SplitMix64:
    """A generator whose every raw draw is the largest 64-bit value."""
    rng = SplitMix64(0)
    rng.next_uint64 = lambda: MASK64
    return rng


def test_next_float_stays_below_one_on_the_top_draw():
    assert top_draw_rng().next_float() == math.nextafter(1.0, 0.0)


def test_gaussian_is_finite_on_the_top_draw():
    assert 8.0 < top_draw_rng().gaussian() < 8.3


@pytest.mark.parametrize("mean", [0.1, 10.0, 100.0])
def test_poisson_stays_small_on_the_top_draw(mean):
    assert top_draw_rng().poisson(mean) < 2 * mean + 40


def test_poisson_ends_where_its_rounded_sum_stops_below_the_draw():
    # At mean 0.1 the CDF sum converges to 1 - 2^-52, short of this draw.
    rng = SplitMix64(0)
    rng.next_float = lambda: math.nextafter(1.0, 0.0)
    assert rng.poisson(0.1) < 20


def test_poisson_one_draw_per_sample():
    a = SplitMix64(42)
    b = SplitMix64(42)
    a.poisson(2.5)
    b.next_uint64()
    assert a.next_uint64() == b.next_uint64()


def test_shuffle_deterministic_and_permutation():
    items = list(range(20))
    first = items[:]
    SplitMix64(8).shuffle(first)
    second = items[:]
    SplitMix64(8).shuffle(second)
    assert first == second
    assert sorted(first) == items
    assert first != items  # astronomically unlikely to be identity


def test_frame_seed_mixes_index():
    assert frame_seed(1, 0) == 1
    assert frame_seed(1, 1) == 1 ^ GOLDEN_GAMMA
    seeds = {frame_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000
