"""Ground-truth matching and the video-level metric suite.

Image level: greedy prediction/ground-truth matching into TP/FP/FN and
percent precision, recall, F1, F2. Video level: time-to-first-detection
recall curves, false-positive incident deduplication (FPs within the merge
window count once), FP-per-minute rates, and their empirical CDF.

Undefined metrics (zero denominators) are reported as None, never as 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .annotations import FrameAnnotation
from .codec import to_json
from .errors import ConfigError
from .geometry import LABEL_POLYP, BoundingBox, ScoredBox, iou

CRITERION_IOU = "iou"
CRITERION_CENTROID = "centroid"

DEFAULT_IOU_MATCH_THRESHOLD = 0.5
DEFAULT_FP_MERGE_WINDOW_FRAMES = 6

# Horizons (seconds) for the recall-versus-time curve report.
RECALL_CURVE_HORIZONS = tuple(t / 2.0 for t in range(0, 61))


@dataclass(frozen=True)
class MatchConfig:
    criterion: str = CRITERION_IOU
    iou_match_threshold: float = DEFAULT_IOU_MATCH_THRESHOLD

    def __post_init__(self) -> None:
        if self.criterion not in (CRITERION_IOU, CRITERION_CENTROID):
            raise ConfigError(
                f"criterion must be '{CRITERION_IOU}' or '{CRITERION_CENTROID}', "
                f"got {self.criterion!r}"
            )
        if not 0.0 < self.iou_match_threshold <= 1.0:
            raise ConfigError(
                f"iou_match_threshold must lie in (0, 1], got {self.iou_match_threshold}"
            )


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError(f"counts must be non-negative, got {self}")

    def __add__(self, other: ConfusionCounts) -> ConfusionCounts:
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def _center_inside(pred: BoundingBox, gt: BoundingBox) -> bool:
    cx = pred.x + pred.w / 2.0
    cy = pred.y + pred.h / 2.0
    return gt.x <= cx < gt.right and gt.y <= cy < gt.bottom


def match_frame(
    predictions: Sequence[ScoredBox],
    truth: FrameAnnotation | None,
    cfg: MatchConfig = MatchConfig(),
) -> ConfusionCounts:
    """Greedy per-frame matching into TP/FP/FN.

    Predictions are taken in descending score order; each claims the
    unmatched ground-truth box of highest IoU at or above the threshold
    (``iou`` criterion) or of highest IoU among boxes containing the
    prediction's center (``centroid`` criterion). Only polyps are scored:
    boxes of any other label are ignored on both sides.
    """
    gt_boxes = truth.polyp_boxes() if truth is not None else []
    preds = [p for p in predictions if p.label == LABEL_POLYP]
    preds.sort(key=lambda sb: -sb.score)

    matched = [False] * len(gt_boxes)
    tp = 0
    for pred in preds:
        best_index = -1
        best_iou = -1.0
        for gi, gt in enumerate(gt_boxes):
            if matched[gi]:
                continue
            if cfg.criterion == CRITERION_IOU:
                overlap = iou(pred.box, gt)
                if overlap < cfg.iou_match_threshold:
                    continue
            else:
                if not _center_inside(pred.box, gt):
                    continue
                overlap = iou(pred.box, gt)
            if overlap > best_iou:
                best_iou = overlap
                best_index = gi
        if best_index >= 0:
            matched[best_index] = True
            tp += 1
    return ConfusionCounts(tp=tp, fp=len(preds) - tp, fn=len(gt_boxes) - tp)


@dataclass(frozen=True)
class PrfMetrics:
    """Percent precision/recall/F-scores; None where the denominator is zero."""

    precision: float | None
    recall: float | None
    f1: float | None
    f2: float | None


def prf(counts: ConfusionCounts) -> PrfMetrics:
    """Precision, recall, F1, F2 in percent from confusion counts."""
    precision = 100.0 * counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else None
    recall = 100.0 * counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else None
    f1 = f2 = None
    if precision is not None and recall is not None:
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        if 4.0 * precision + recall > 0:
            f2 = 5.0 * precision * recall / (4.0 * precision + recall)
    return PrfMetrics(precision, recall, f1, f2)


@dataclass(frozen=True)
class ClipRecord:
    """Detection delay for one polyp clip."""

    clip_id: str
    first_appearance_frame: int
    detection_frame: int | None
    fps: float

    def __post_init__(self) -> None:
        if self.detection_frame is not None and self.detection_frame < self.first_appearance_frame:
            raise ValueError("detection_frame precedes first_appearance_frame")

    @property
    def delay_seconds(self) -> float | None:
        if self.detection_frame is None:
            return None
        return (self.detection_frame - self.first_appearance_frame) / self.fps


def time_to_first_detection(
    clip_id: str,
    annotations: Sequence[FrameAnnotation],
    detections_by_frame: Mapping[int, Sequence[ScoredBox]],
    fps: float,
    cfg: MatchConfig = MatchConfig(),
) -> ClipRecord:
    """Delay between a polyp's first annotated appearance and its first match."""
    polyp_frames = sorted(a.frame_index for a in annotations if a.polyp_boxes())
    if not polyp_frames:
        raise ValueError(f"clip {clip_id!r} has no polyp annotations")
    first_appearance = polyp_frames[0]
    by_frame = {a.frame_index: a for a in annotations}
    detection_frame = None
    for frame_index in polyp_frames:
        counts = match_frame(detections_by_frame.get(frame_index, ()), by_frame[frame_index], cfg)
        if counts.tp >= 1:
            detection_frame = frame_index
            break
    return ClipRecord(clip_id, first_appearance, detection_frame, fps)


def recall_at(records: Sequence[ClipRecord], horizon_seconds: float) -> float:
    """Fraction of clips detected within ``horizon_seconds`` of first appearance."""
    if not records:
        raise ValueError("recall_at is undefined for an empty record set")
    hits = sum(
        1 for r in records if r.delay_seconds is not None and r.delay_seconds <= horizon_seconds
    )
    return hits / len(records)


def fp_incidents(fp_frames: Sequence[int], merge_window_frames: int = DEFAULT_FP_MERGE_WINDOW_FRAMES) -> int:
    """Count false-positive incidents, merging frames within the window.

    A frame starts a new incident iff its gap from the previous FP frame
    exceeds ``merge_window_frames``.
    """
    if merge_window_frames < 0:
        raise ValueError(f"merge window must be non-negative, got {merge_window_frames}")
    incidents = 0
    previous = None
    for frame in fp_frames:
        if previous is not None and frame < previous:
            raise ValueError("fp_frames must be sorted in increasing order")
        if previous is None or frame - previous > merge_window_frames:
            incidents += 1
        previous = frame
    return incidents


def fp_per_minute(incidents: int, duration_frames: int, fps: float) -> float:
    """Incident rate per minute of video."""
    if duration_frames <= 0:
        raise ValueError(f"duration must be positive, got {duration_frames} frames")
    return incidents / (duration_frames / fps / 60.0)


def ecdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as sorted (value, cumulative fraction) steps."""
    if not values:
        raise ValueError("ecdf is undefined for an empty sample")
    ordered = sorted(values)
    steps = []
    n = len(ordered)
    for i, value in enumerate(ordered, start=1):
        if i == n or ordered[i] != value:
            steps.append((value, i / n))
    return steps


@dataclass(frozen=True)
class VideoEvalInput:
    """Everything needed to evaluate one video's results against its truth."""

    video_id: str
    fps: float
    frame_count: int
    annotations: tuple[FrameAnnotation, ...]
    detections_by_frame: Mapping[int, Sequence[ScoredBox]]


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    metrics: PrfMetrics
    clip_records: tuple[ClipRecord, ...]
    fp_rates: tuple[tuple[str, float], ...]  # (video_id, fp incidents per minute)
    match_config: MatchConfig

    def to_dict(self) -> dict:
        return {
            "match": to_json(self.match_config),
            "counts": to_json(self.counts),
            **to_json(self.metrics),
            "clips": {
                "total": len(self.clip_records),
                "detected": sum(1 for r in self.clip_records if r.detection_frame is not None),
            },
            "fp_videos": len(self.fp_rates),
        }


def evaluate_videos(
    inputs: Sequence[VideoEvalInput],
    cfg: MatchConfig = MatchConfig(),
    merge_window_frames: int = DEFAULT_FP_MERGE_WINDOW_FRAMES,
) -> EvalReport:
    """Aggregate image-level counts and video-level records over many videos.

    Videos with polyp annotations contribute one clip record each; videos
    without any contribute one FP-per-minute rate each (incidents merged
    over the window), mirroring the split between recall clips and
    false-positive clips.
    """
    total = ConfusionCounts()
    clip_records = []
    fp_rates = []
    for video in sorted(inputs, key=lambda v: v.video_id):
        by_frame = {a.frame_index: a for a in video.annotations}
        fp_frames = []
        for frame_index in range(video.frame_count):
            counts = match_frame(
                video.detections_by_frame.get(frame_index, ()), by_frame.get(frame_index), cfg
            )
            total = total + counts
            if counts.fp >= 1:
                fp_frames.append(frame_index)
        if any(a.polyp_boxes() for a in video.annotations):
            clip_records.append(
                time_to_first_detection(
                    video.video_id, video.annotations, video.detections_by_frame, video.fps, cfg
                )
            )
        else:
            incidents = fp_incidents(fp_frames, merge_window_frames)
            fp_rates.append((video.video_id, fp_per_minute(incidents, video.frame_count, video.fps)))
    return EvalReport(total, prf(total), tuple(clip_records), tuple(fp_rates), cfg)


def write_metrics_json(path: str | Path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")


def write_clips_csv(path: str | Path, records: Sequence[ClipRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "delay_seconds"])
        for record in records:
            delay = record.delay_seconds
            writer.writerow([record.clip_id, "" if delay is None else f"{delay:.6g}"])


def write_recall_curve_csv(path: str | Path, records: Sequence[ClipRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_seconds", "recall"])
        if not records:
            return
        for horizon in RECALL_CURVE_HORIZONS:
            writer.writerow([f"{horizon:g}", f"{recall_at(records, horizon):.6g}"])


def write_fp_cdf_csv(path: str | Path, fp_rates: Sequence[tuple[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fp_per_minute", "cumulative_fraction"])
        if not fp_rates:
            return
        for rate, fraction in ecdf([rate for _, rate in fp_rates]):
            writer.writerow([f"{rate:.6g}", f"{fraction:.6g}"])
