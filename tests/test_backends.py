"""Synthetic detector: noise-free limits, determinism, law-of-large-numbers checks."""

from __future__ import annotations

import pytest

from scopeline.annotations import FrameAnnotation, LabeledBox
from scopeline.backends.synthetic import MAX_JITTER_PX, SyntheticDetector, SyntheticDetectorConfig, synthetic_detect
from scopeline.errors import ConfigError
from scopeline.geometry import LABEL_INSTRUMENT, SOURCE_B, BoundingBox, iou
from scopeline.rng import MASK64, SplitMix64

from conftest import solid_frame

GT_BOX = BoundingBox(100, 80, 60, 40)
TRUTH = FrameAnnotation("v", 0, (LabeledBox(GT_BOX),))
W, H = 384, 288


def truth_for(frame_index: int) -> FrameAnnotation:
    return FrameAnnotation("v", frame_index, (LabeledBox(GT_BOX),))


class TestNoiseFreeLimits:
    def test_perfect_detector_echoes_ground_truth(self):
        cfg = SyntheticDetectorConfig(seed=7, p_tp=1.0, fp_rate=0.0, jitter_px=0.0)
        for frame_index in range(50):
            out = synthetic_detect(cfg, frame_index, truth_for(frame_index), W, H)
            assert [sb.box for sb in out] == [GT_BOX]

    def test_dead_detector_never_fires(self):
        cfg = SyntheticDetectorConfig(seed=7, p_tp=0.0, fp_rate=0.0)
        for frame_index in range(50):
            assert synthetic_detect(cfg, frame_index, truth_for(frame_index), W, H) == []

    def test_no_truth_no_true_positives(self):
        cfg = SyntheticDetectorConfig(seed=7, p_tp=1.0, fp_rate=0.0)
        assert synthetic_detect(cfg, 0, None, W, H) == []

    def test_instrument_boxes_ignored(self):
        truth = FrameAnnotation(
            "v", 0, (LabeledBox(GT_BOX), LabeledBox(BoundingBox(0, 0, 30, 30), LABEL_INSTRUMENT))
        )
        cfg = SyntheticDetectorConfig(seed=7, p_tp=1.0, fp_rate=0.0)
        out = synthetic_detect(cfg, 0, truth, W, H)
        assert [sb.box for sb in out] == [GT_BOX]


class TestOutputValidity:
    def test_boxes_always_inside_image_with_heavy_jitter(self):
        edge_truth = FrameAnnotation(
            "v", 0, (LabeledBox(BoundingBox(0, 0, 20, 20)), LabeledBox(BoundingBox(W - 20, H - 20, 20, 20)))
        )
        cfg = SyntheticDetectorConfig(seed=3, p_tp=1.0, fp_rate=2.0, jitter_px=15.0)
        for frame_index in range(300):
            for sb in synthetic_detect(cfg, frame_index, edge_truth, W, H):
                assert sb.box.within(W, H)
                assert 0.0 <= sb.score <= 1.0

    @pytest.mark.parametrize("raw_draw", [0, MASK64], ids=["lowest", "highest"])
    def test_boxes_inside_image_at_the_jitter_bound_on_an_extreme_draw(self, monkeypatch, raw_draw):
        # Every raw draw extreme, so each Gaussian jitter is about +-8.3 x MAX_JITTER_PX.
        monkeypatch.setattr(SplitMix64, "next_uint64", lambda self: raw_draw)
        cfg = SyntheticDetectorConfig(seed=3, p_tp=1.0, fp_rate=1.0, jitter_px=MAX_JITTER_PX)
        out = synthetic_detect(cfg, 0, TRUTH, W, H)
        assert out
        assert all(sb.box.within(W, H) for sb in out)

    def test_scores_respect_configured_ranges(self):
        cfg = SyntheticDetectorConfig(
            seed=3, p_tp=1.0, fp_rate=1.0, tp_score_range=(0.8, 0.9), fp_score_range=(0.1, 0.2)
        )
        for frame_index in range(200):
            out = synthetic_detect(cfg, frame_index, truth_for(frame_index), W, H)
            for sb in out:
                assert (0.8 <= sb.score <= 0.9) or (0.1 <= sb.score <= 0.2)


class TestDeterminism:
    def test_identical_config_identical_stream(self):
        cfg = SyntheticDetectorConfig(seed=11, p_tp=0.9, fp_rate=1.0, jitter_px=2.0)
        first = [synthetic_detect(cfg, i, truth_for(i), W, H) for i in range(100)]
        second = [synthetic_detect(cfg, i, truth_for(i), W, H) for i in range(100)]
        assert first == second

    def test_changing_seed_changes_output(self):
        cfg_a = SyntheticDetectorConfig(seed=11, p_tp=0.9, fp_rate=1.0, jitter_px=2.0)
        cfg_b = SyntheticDetectorConfig(seed=12, p_tp=0.9, fp_rate=1.0, jitter_px=2.0)
        a = [synthetic_detect(cfg_a, i, truth_for(i), W, H) for i in range(100)]
        b = [synthetic_detect(cfg_b, i, truth_for(i), W, H) for i in range(100)]
        assert a != b


class TestStatistics:
    def test_tp_fraction_and_fp_rate_converge(self):
        # Law-of-large-numbers check with a pinned seed; jitter 0 makes the
        # emitted true positive exactly the ground-truth box.
        cfg = SyntheticDetectorConfig(seed=1, p_tp=0.9, fp_rate=1.0, jitter_px=0.0)
        n = 10_000
        tp_count = 0
        fp_count = 0
        for i in range(n):
            out = synthetic_detect(cfg, i, truth_for(i), W, H)
            hit = any(sb.box == GT_BOX for sb in out)
            tp_count += hit
            fp_count += len(out) - (1 if hit else 0)
        assert abs(tp_count / n - 0.9) < 0.01
        assert abs(fp_count / n - 1.0) < 0.05

    def test_false_positive_streams_are_independent(self):
        # Two seeds, FP-only: the same-frame overlap rate (IoU > 0.1) must
        # stay at pure-coincidence level, i.e. match a decorrelated pairing
        # of the same streams. The coincidence level itself is a property of
        # the FP geometry model (~3% for log-uniform 8..144 px boxes in
        # 384x288), so the bound is on excess correlation, not on zero.
        cfg_a = SyntheticDetectorConfig(seed=1, p_tp=0.0, fp_rate=1.0)
        cfg_b = SyntheticDetectorConfig(seed=2, p_tp=0.0, fp_rate=1.0)
        n = 4000
        fps_a = [synthetic_detect(cfg_a, i, None, W, H) for i in range(n)]
        fps_b = [synthetic_detect(cfg_b, i, None, W, H) for i in range(n)]

        def collision_rate(pairs):
            hits = sum(
                1
                for a_list, b_list in pairs
                if any(iou(a.box, b.box) > 0.1 for a in a_list for b in b_list)
            )
            return hits / n

        aligned = collision_rate(zip(fps_a, fps_b))
        decorrelated = collision_rate(zip(fps_a, fps_b[1:] + fps_b[:1]))
        assert aligned < 0.05
        assert abs(aligned - decorrelated) < 0.01


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_tp": 1.5},
            {"fp_rate": -0.1},
            {"jitter_px": -1.0},
            {"jitter_px": 2 * MAX_JITTER_PX},
            {"tp_score_range": (0.9, 0.2)},
            {"fp_score_range": (-0.1, 0.5)},
            {"simulated_latency_ms": -3.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticDetectorConfig(seed=1, **kwargs)


def test_backend_wrapper_tags_source():
    cfg = SyntheticDetectorConfig(seed=5, p_tp=1.0, fp_rate=0.0)
    backend = SyntheticDetector(cfg, SOURCE_B, {0: TRUTH})
    out = backend.detect(solid_frame((10, 10, 10), width=W, height=H))
    assert out[0].source == SOURCE_B
