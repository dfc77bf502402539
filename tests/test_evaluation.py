"""Video-level metrics against hand-computed oracles (exact where possible via Fraction)."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from scopeline.annotations import FrameAnnotation, LabeledBox
from scopeline.codec import to_json
from scopeline.evaluation import (
    ClipRecord,
    ConfusionCounts,
    VideoEvalInput,
    ecdf,
    evaluate_videos,
    fp_incidents,
    fp_per_minute,
    prf,
    recall_at,
    time_to_first_detection,
)
from scopeline.geometry import BoundingBox, ScoredBox

POLYP = BoundingBox(10, 10, 20, 20)
ELSEWHERE = BoundingBox(60, 60, 20, 20)  # IoU 0 with POLYP


def polyp_annotations(video_id: str, frames: range) -> tuple[FrameAnnotation, ...]:
    return tuple(FrameAnnotation(video_id, i, (LabeledBox(POLYP),)) for i in frames)


class TestTimeToFirstDetection:
    def test_delay_in_seconds_at_the_stream_fps(self):
        annotations = polyp_annotations("v", range(10, 21))
        detections = {
            5: [ScoredBox(POLYP, 0.9)],  # before the polyp appears: not a detection of it
            12: [ScoredBox(ELSEWHERE, 0.9)],  # a miss
            16: [ScoredBox(POLYP, 0.9)],
            18: [ScoredBox(POLYP, 0.9)],
        }
        record = time_to_first_detection("v", annotations, detections, fps=30.0)
        assert (record.first_appearance_frame, record.detection_frame) == (10, 16)
        assert record.delay_seconds == float(Fraction(16 - 10, 30))

    def test_detection_on_the_first_frame_is_zero_delay(self):
        record = time_to_first_detection("v", polyp_annotations("v", range(4, 8)), {4: [ScoredBox(POLYP, 0.5)]}, 60.0)
        assert record.delay_seconds == 0.0

    def test_never_detected_is_none(self):
        annotations = polyp_annotations("v", range(0, 5))
        record = time_to_first_detection("v", annotations, {2: [ScoredBox(ELSEWHERE, 0.9)]}, fps=60.0)
        assert record.detection_frame is None
        assert record.delay_seconds is None


class TestFpIncidents:
    def test_gap_equal_to_the_window_merges(self):
        assert fp_incidents([0, 6], merge_window_frames=6) == 1

    def test_gap_one_frame_longer_splits(self):
        assert fp_incidents([0, 7], merge_window_frames=6) == 2

    def test_gaps_chain_from_the_previous_fp_frame(self):
        # 0-6 and 6-12 merge (gaps of 6); 12 -> 19 is a gap of 7.
        assert fp_incidents([0, 6, 12, 19], merge_window_frames=6) == 2

    def test_zero_window_counts_every_frame_apart(self):
        assert fp_incidents([3, 4, 5], merge_window_frames=0) == 3
        assert fp_incidents([], merge_window_frames=6) == 0

    def test_rate_per_minute(self):
        # 2 incidents in 120 frames at 60 fps = 2 s = 1/30 min.
        assert fp_per_minute(2, 120, 60.0) == pytest.approx(float(2 / Fraction(120, 60 * 60)), rel=1e-12)

    def test_evaluate_videos_merges_fp_frames_of_a_polyp_free_video(self):
        detections = {i: [ScoredBox(ELSEWHERE, 0.4)] for i in (0, 6, 13)}
        video = VideoEvalInput("clean", 60.0, 120, (), detections)
        report = evaluate_videos([video], merge_window_frames=6)
        assert report.clip_records == ()
        [(video_id, rate)] = report.fp_rates
        assert video_id == "clean"
        assert rate == pytest.approx(float(2 / Fraction(120, 60 * 60)), rel=1e-12)
        assert report.counts == ConfusionCounts(tp=0, fp=3, fn=0)


def f_beta(tp: int, fp: int, fn: int, beta: int) -> Fraction:
    """F-beta in percent from counts: (1+b^2) tp / ((1+b^2) tp + b^2 fn + fp)."""
    b2 = beta * beta
    return 100 * Fraction((1 + b2) * tp, (1 + b2) * tp + b2 * fn + fp)


class TestPrf:
    @pytest.mark.parametrize("tp, fp, fn", [(3, 1, 5), (1, 0, 0), (7, 2, 1), (1, 9, 4)])
    def test_scores_match_the_count_formulas(self, tp, fp, fn):
        metrics = prf(ConfusionCounts(tp, fp, fn))
        assert metrics.precision == pytest.approx(float(100 * Fraction(tp, tp + fp)), rel=1e-12)
        assert metrics.recall == pytest.approx(float(100 * Fraction(tp, tp + fn)), rel=1e-12)
        assert metrics.f1 == pytest.approx(float(f_beta(tp, fp, fn, 1)), rel=1e-12)
        assert metrics.f2 == pytest.approx(float(f_beta(tp, fp, fn, 2)), rel=1e-12)

    def test_hand_computed_case(self):
        # P = 3/4, R = 3/8: F1 = 1/2, F2 = 5/12.
        metrics = prf(ConfusionCounts(tp=3, fp=1, fn=5))
        assert (metrics.precision, metrics.recall, metrics.f1) == (75.0, 37.5, 50.0)
        assert metrics.f2 == pytest.approx(500 / 12, rel=1e-12)

    @pytest.mark.parametrize(
        "counts, expected",
        [
            (ConfusionCounts(0, 0, 0), {"precision": None, "recall": None, "f1": None, "f2": None}),
            (ConfusionCounts(0, 0, 3), {"precision": None, "recall": 0.0, "f1": None, "f2": None}),
            (ConfusionCounts(0, 2, 0), {"precision": 0.0, "recall": None, "f1": None, "f2": None}),
            (ConfusionCounts(0, 1, 1), {"precision": 0.0, "recall": 0.0, "f1": None, "f2": None}),
        ],
    )
    def test_undefined_metrics_are_none(self, counts, expected):
        assert to_json(prf(counts)) == expected


class TestEcdf:
    def test_ties_collapse_into_one_step(self):
        assert ecdf([3.0, 1.0, 3.0, 2.0, 3.0]) == [
            (1.0, float(Fraction(1, 5))),
            (2.0, float(Fraction(2, 5))),
            (3.0, 1.0),
        ]

    def test_single_value(self):
        assert ecdf([4.5, 4.5]) == [(4.5, 1.0)]

    def test_empty_sample_is_undefined(self):
        with pytest.raises(ValueError):
            ecdf([])


class TestRecallAt:
    # Delays 0 s, 0.5 s and 1 s at 60 fps, plus one clip never detected.
    RECORDS = [
        ClipRecord("a", 10, 10, 60.0),
        ClipRecord("b", 0, 30, 60.0),
        ClipRecord("c", 5, 65, 60.0),
        ClipRecord("d", 0, None, 60.0),
    ]

    @pytest.mark.parametrize(
        "horizon, expected",
        [
            (0.0, Fraction(1, 4)),
            (math.nextafter(0.5, 0.0), Fraction(1, 4)),
            (0.5, Fraction(2, 4)),
            (1.0, Fraction(3, 4)),
            (1e9, Fraction(3, 4)),
        ],
    )
    def test_horizon_is_inclusive_and_undetected_clips_never_count(self, horizon, expected):
        assert recall_at(self.RECORDS, horizon) == float(expected)

    def test_empty_record_set_is_undefined(self):
        with pytest.raises(ValueError):
            recall_at([], 1.0)


def test_evaluate_videos_splits_polyp_clips_from_fp_videos():
    polyp = VideoEvalInput(
        "polyp", 30.0, 20, polyp_annotations("polyp", range(4, 20)), {9: [ScoredBox(POLYP, 0.8)]}
    )
    clean = VideoEvalInput("clean", 30.0, 20, (), {})
    report = evaluate_videos([polyp, clean])
    [record] = report.clip_records
    assert (record.clip_id, record.delay_seconds) == ("polyp", float(Fraction(9 - 4, 30)))
    assert report.fp_rates == (("clean", 0.0),)
    # 16 annotated frames, one of them matched.
    assert report.counts == ConfusionCounts(tp=1, fp=0, fn=15)
    assert report.metrics.precision == 100.0
    assert report.metrics.recall == pytest.approx(float(100 * Fraction(1, 16)), rel=1e-12)
