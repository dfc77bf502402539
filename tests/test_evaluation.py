"""The matcher and video-level metrics against hand-computed and brute-force oracles (exact where possible via Fraction)."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from scopeline.annotations import FrameAnnotation, LabeledBox
from scopeline.codec import to_json
from scopeline.errors import DataFormatError
from scopeline.evaluation import (
    CRITERION_CENTROID,
    CRITERION_IOU,
    ClipRecord,
    ConfusionCounts,
    MatchConfig,
    VideoEvalInput,
    ecdf,
    evaluate_videos,
    fp_incidents,
    fp_per_minute,
    match_frame,
    prf,
    recall_at,
)
from scopeline.geometry import LABEL_INSTRUMENT, LABEL_POLYP, BoundingBox, ScoredBox, iou

from conftest import oracle_match_frame, pixel_grid_iou, random_threshold, threshold_ties

POLYP = BoundingBox(10, 10, 20, 20)
ELSEWHERE = BoundingBox(60, 60, 20, 20)  # IoU 0 with POLYP


def polyp_annotations(video_id: str, frames: range) -> tuple[FrameAnnotation, ...]:
    return tuple(FrameAnnotation(video_id, i, (LabeledBox(POLYP),)) for i in frames)


def frame_truth(*boxes: LabeledBox) -> FrameAnnotation:
    return FrameAnnotation("v", 0, boxes)


class TestMatchFrame:
    """``match_frame`` on the edges of its rule: the IoU bound, the half-open box, score ties, labels."""

    def test_iou_exactly_at_the_threshold_matches(self):
        gt, pred = BoundingBox(0, 0, 4, 2), BoundingBox(0, 0, 2, 2)
        assert pixel_grid_iou(gt, pred) == Fraction(1, 2)
        truth = frame_truth(LabeledBox(gt))
        assert match_frame([ScoredBox(pred, 0.9)], truth) == ConfusionCounts(tp=1, fp=0, fn=0)
        above = MatchConfig(iou_match_threshold=math.nextafter(0.5, 1.0))
        assert match_frame([ScoredBox(pred, 0.9)], truth, above) == ConfusionCounts(tp=0, fp=1, fn=1)

    def test_iou_below_the_threshold_decimal_does_not_match(self):
        gt, pred = BoundingBox(0, 0, 7, 1), BoundingBox(0, 0, 5, 1)
        assert pixel_grid_iou(gt, pred) == Fraction(5, 7)
        assert iou(gt, pred) == 0.7142857142857143
        cfg = MatchConfig(iou_match_threshold=0.7142857142857143)
        assert match_frame([ScoredBox(pred, 0.9)], frame_truth(LabeledBox(gt)), cfg) == ConfusionCounts(tp=0, fp=1, fn=1)

    @pytest.mark.parametrize(
        "pred, inside",
        [
            (BoundingBox(10, 4, 4, 4), False),  # centre x 12: on the right edge
            (BoundingBox(4, 10, 4, 4), False),  # centre y 12: on the bottom edge
            (BoundingBox(9, 9, 5, 5), True),  # centre (11.5, 11.5): just inside both
            (BoundingBox(0, 0, 4, 4), True),  # centre (2, 2): on the left and top edges
        ],
        ids=["right-edge", "bottom-edge", "just-inside", "top-left-corner"],
    )
    def test_centroid_box_is_half_open(self, pred, inside):
        truth = frame_truth(LabeledBox(BoundingBox(2, 2, 10, 10)))
        counts = match_frame([ScoredBox(pred, 0.9)], truth, MatchConfig(criterion=CRITERION_CENTROID))
        assert counts == (ConfusionCounts(1, 0, 0) if inside else ConfusionCounts(0, 1, 1))

    def test_equal_scores_go_in_input_order(self):
        # wide overlaps gt_a (IoU 9/11) better than gt_b (7/13, still >= 0.5); exact overlaps
        # only gt_a (gt_b at 3/7). Whichever claims gt_a first decides whether gt_b is matched.
        gt_a, gt_b = BoundingBox(0, 0, 10, 10), BoundingBox(4, 0, 10, 10)
        wide, exact = BoundingBox(1, 0, 10, 10), BoundingBox(0, 0, 10, 10)
        assert [pixel_grid_iou(wide, gt_a), pixel_grid_iou(wide, gt_b), pixel_grid_iou(exact, gt_b)] == [
            Fraction(9, 11),
            Fraction(7, 13),
            Fraction(3, 7),
        ]
        truth = frame_truth(LabeledBox(gt_a), LabeledBox(gt_b))
        wide_first = [ScoredBox(wide, 0.5), ScoredBox(exact, 0.5)]
        assert match_frame(wide_first, truth) == ConfusionCounts(tp=1, fp=1, fn=1)
        assert match_frame(wide_first[::-1], truth) == ConfusionCounts(tp=2, fp=0, fn=0)
        # A higher score goes first whatever the input order.
        assert match_frame([ScoredBox(wide, 0.5), ScoredBox(exact, 0.6)], truth) == ConfusionCounts(2, 0, 0)

    def test_non_polyp_boxes_are_ignored_on_either_side(self):
        polyp_truth = frame_truth(LabeledBox(POLYP))
        instrument_truth = frame_truth(LabeledBox(POLYP, LABEL_INSTRUMENT))
        instrument = ScoredBox(POLYP, 0.9, label=LABEL_INSTRUMENT)
        assert match_frame([instrument], polyp_truth) == ConfusionCounts(tp=0, fp=0, fn=1)
        assert match_frame([ScoredBox(POLYP, 0.9)], instrument_truth) == ConfusionCounts(tp=0, fp=1, fn=0)
        assert match_frame([instrument], instrument_truth) == ConfusionCounts(tp=0, fp=0, fn=0)
        assert match_frame([instrument], None) == ConfusionCounts(tp=0, fp=0, fn=0)


# Repeated scores make ties, which go in input order.
SCORES = (0.3, 0.5, 0.5, 0.8, 0.95)


def random_box(rng: random.Random, near: BoundingBox | None = None, size: int = 12) -> BoundingBox:
    """A box of up to ``size`` px a side on a small grid, or ``near`` moved and resized by up to 3 px a side."""
    if near is None:
        return BoundingBox(rng.randrange(2 * size), rng.randrange(2 * size), rng.randint(1, size), rng.randint(1, size))
    return BoundingBox(
        max(0, near.x + rng.randint(-3, 3)),
        max(0, near.y + rng.randint(-3, 3)),
        max(1, near.w + rng.randint(-3, 3)),
        max(1, near.h + rng.randint(-3, 3)),
    )


def random_label(rng: random.Random) -> str:
    return LABEL_INSTRUMENT if rng.random() < 0.15 else LABEL_POLYP


def random_frame(rng: random.Random, video_id: str = "v", frame_index: int = 0, size: int = 12):
    """Up to 5 predictions, most near one of up to 3 truth boxes, and the frame's truth row or None."""
    gts = [random_box(rng, size=size) for _ in range(rng.randrange(4))]
    truth = None
    if gts or rng.random() < 0.3:
        truth = FrameAnnotation(video_id, frame_index, tuple(LabeledBox(g, random_label(rng)) for g in gts))
    predictions = [
        ScoredBox(random_box(rng, rng.choice(gts) if gts and rng.random() < 0.7 else None, size), rng.choice(SCORES),
                  label=random_label(rng))
        for _ in range(rng.randrange(6))
    ]
    return predictions, truth


class TestMatchFrameOracle:
    @pytest.mark.parametrize(
        "criterion, threshold",
        [(CRITERION_IOU, 0.5), (CRITERION_IOU, 0.3), (CRITERION_IOU, 0.75), (CRITERION_CENTROID, 0.5)],
    )
    def test_random_frames_agree_with_the_oracle(self, criterion, threshold):
        rng = random.Random(1701)
        cfg = MatchConfig(criterion, threshold)
        for _ in range(600):
            predictions, truth = random_frame(rng)
            want = oracle_match_frame(predictions, truth, criterion, threshold)
            assert match_frame(predictions, truth, cfg) == want, (predictions, truth)

    def test_random_thresholds_agree_with_the_oracle(self):
        rng = random.Random(1703)
        ties = Counter()
        for _ in range(1500):
            predictions, truth = random_frame(rng, size=3)  # small boxes: IoUs with small denominators
            gts = truth.polyp_boxes() if truth is not None else []
            ratios = [pixel_grid_iou(p.box, gt) for p in predictions if p.label == LABEL_POLYP for gt in gts]
            threshold = random_threshold(rng, ratios)
            ties += threshold_ties(ratios, threshold)
            want = oracle_match_frame(predictions, truth, CRITERION_IOU, threshold)
            assert match_frame(predictions, truth, MatchConfig(CRITERION_IOU, threshold)) == want, (predictions, truth)
        assert len(ties) == 3, ties  # every kind of tie occurred


def random_video(rng: random.Random, video_id: str) -> VideoEvalInput:
    """Annotation rows in shuffled order; polyps from a random frame on, or never (a polyp-free video)."""
    frame_count = rng.randint(1, 30)
    appearance = frame_count if rng.random() < 0.3 else rng.randrange(frame_count)
    annotations, detections = [], {}
    for frame_index in range(frame_count):
        predictions, truth = random_frame(rng, video_id, frame_index)
        if truth is not None and frame_index < appearance:
            truth = FrameAnnotation(video_id, frame_index, tuple(lb for lb in truth.boxes if lb.label != LABEL_POLYP))
        if truth is not None:
            annotations.append(truth)
        if predictions or rng.random() < 0.5:
            detections[frame_index] = predictions
    rng.shuffle(annotations)
    return VideoEvalInput(video_id, rng.choice((25.0, 30.0, 60.0)), frame_count, tuple(annotations), detections)


def two_pass_reference(videos: list[VideoEvalInput], cfg: MatchConfig, window: int):
    """Counts, clip records and exact FP rates by brute force: every frame is matched by the
    oracle, then the polyp frames are scanned again for the clip's first TP."""
    total = ConfusionCounts()
    clips, rates = [], []
    for video in sorted(videos, key=lambda v: v.video_id):
        by_frame = {a.frame_index: a for a in video.annotations}

        def counts(frame_index: int) -> ConfusionCounts:
            predictions = video.detections_by_frame.get(frame_index, [])
            return oracle_match_frame(predictions, by_frame.get(frame_index), cfg.criterion, cfg.iou_match_threshold)

        fp_frames = []
        for i in range(video.frame_count):
            frame_counts = counts(i)
            total = total + frame_counts
            if frame_counts.fp >= 1:
                fp_frames.append(i)
        polyp_frames = sorted(a.frame_index for a in video.annotations if any(lb.label == LABEL_POLYP for lb in a.boxes))
        if polyp_frames:
            detected = [i for i in polyp_frames if counts(i).tp >= 1]
            clips.append(ClipRecord(video.video_id, polyp_frames[0], detected[0] if detected else None, video.fps))
        else:
            incidents = sum(1 for k, i in enumerate(fp_frames) if k == 0 or i - fp_frames[k - 1] > window)
            rates.append((video.video_id, Fraction(incidents * 60) * Fraction(video.fps) / video.frame_count))
    return total, tuple(clips), rates


@pytest.mark.parametrize("criterion", [CRITERION_IOU, CRITERION_CENTROID])
def test_evaluate_videos_agrees_with_a_two_pass_reference(criterion):
    rng = random.Random(2101)
    cfg = MatchConfig(criterion)
    for _ in range(40):
        videos = [random_video(rng, f"video-{i}") for i in range(rng.randint(1, 5))]
        rng.shuffle(videos)
        window = rng.randint(0, 4)
        report = evaluate_videos(iter(videos), cfg, window)
        total, clips, rates = two_pass_reference(videos, cfg, window)
        assert (report.counts, report.clip_records) == (total, clips)
        assert [video_id for video_id, _ in report.fp_rates] == [video_id for video_id, _ in rates]
        assert [rate for _, rate in report.fp_rates] == pytest.approx([float(rate) for _, rate in rates], rel=1e-12)


@pytest.mark.parametrize(
    "annotated, detected, message",
    [
        ((9, 10), (), "video v: annotation frame 10 lies outside [0, 10)"),
        ((-1,), (), "video v: annotation frame -1 lies outside [0, 10)"),
        ((), (0, 10), "video v: results frame 10 lies outside [0, 10)"),
        ((), (-1,), "video v: results frame -1 lies outside [0, 10)"),
        ((3, 3), (), "video v: more than one annotation row for a frame"),
    ],
    ids=["annotation-past-the-end", "annotation-before-0", "results-past-the-end", "results-before-0", "frame-annotated-twice"],
)
def test_video_input_holds_frames_of_the_video_and_one_row_a_frame(annotated, detected, message):
    annotations = tuple(FrameAnnotation("v", i, (LabeledBox(POLYP),)) for i in annotated)
    detections = {i: [ScoredBox(POLYP, 0.9)] for i in detected}
    with pytest.raises(DataFormatError) as excinfo:
        VideoEvalInput("v", 30.0, 10, annotations, detections)
    assert str(excinfo.value) == message


class TestTimeToFirstDetection:
    """The clip record ``evaluate_videos`` builds for a video with polyps."""

    @staticmethod
    def clip_record(annotations, detections, fps: float) -> ClipRecord:
        frame_count = max(a.frame_index for a in annotations) + 1
        [record] = evaluate_videos([VideoEvalInput("v", fps, frame_count, annotations, detections)]).clip_records
        return record

    def test_delay_in_seconds_at_the_stream_fps(self):
        annotations = polyp_annotations("v", range(10, 21))
        detections = {
            5: [ScoredBox(POLYP, 0.9)],  # before the polyp appears: not a detection of it
            12: [ScoredBox(ELSEWHERE, 0.9)],  # a miss
            16: [ScoredBox(POLYP, 0.9)],
            18: [ScoredBox(POLYP, 0.9)],
        }
        record = self.clip_record(annotations, detections, fps=30.0)
        assert (record.clip_id, record.first_appearance_frame, record.detection_frame) == ("v", 10, 16)
        assert record.delay_seconds == float(Fraction(16 - 10, 30))

    def test_detection_on_the_first_frame_is_zero_delay(self):
        record = self.clip_record(polyp_annotations("v", range(4, 8)), {4: [ScoredBox(POLYP, 0.5)]}, 60.0)
        assert record.delay_seconds == 0.0

    def test_never_detected_is_none(self):
        annotations = polyp_annotations("v", range(0, 5))
        record = self.clip_record(annotations, {2: [ScoredBox(ELSEWHERE, 0.9)]}, fps=60.0)
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
