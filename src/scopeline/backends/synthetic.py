"""Deterministic synthetic detector driven by ground truth plus a seeded noise model.

The per-frame generator is seeded with ``seed XOR (frame_index * golden gamma)``
and consumes draws in a fixed, documented order so that identical configs
produce bit-identical detection streams:

  per ground-truth polyp box (annotation order), always consumed:
      1 accept draw, 4 corner-jitter draws (left, top, right, bottom),
      1 score draw;
  then 1 false-positive count draw (Poisson inversion);
  per false positive:
      width draw, height draw, left draw, top draw, score draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..annotations import FrameAnnotation
from ..errors import ConfigError
from ..geometry import SOURCE_A, BoundingBox, ScoredBox
from ..media import Frame
from ..rng import SplitMix64, frame_seed

# False positives are log-uniform between this edge and half the image short edge.
FP_MIN_EDGE_PX = 8
# Largest mean false-positive count per frame. Poisson inversion starts from
# exp(-fp_rate), a normal double up to here (exp(-100) ~ 3.7e-44) and 0 from
# about 745 on, where the inversion no longer samples the distribution.
MAX_FP_RATE = 100.0
# Largest corner-jitter standard deviation, in pixels. It is far beyond any
# frame, since jittered boxes are clamped into the image anyway, and keeps
# round(gaussian() * jitter_px) finite: |gaussian()| < 8.3 for every draw.
MAX_JITTER_PX = 1e6


def _check_range(name: str, rng: tuple[float, float]) -> None:
    lo, hi = rng
    if not (0.0 <= lo <= hi <= 1.0):
        raise ConfigError(f"{name} must satisfy 0 <= lo <= hi <= 1, got {rng}")


@dataclass(frozen=True)
class SyntheticDetectorConfig:
    """Noise model for one synthetic detector."""

    seed: int
    p_tp: float = 1.0
    fp_rate: float = 0.0
    jitter_px: float = 0.0
    tp_score_range: tuple[float, float] = (0.6, 1.0)
    fp_score_range: tuple[float, float] = (0.05, 0.6)
    simulated_latency_ms: float = 0.0

    KIND = "synthetic"  # a detector spec's "kind" in config files

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_tp <= 1.0:
            raise ConfigError(f"p_tp must lie in [0, 1], got {self.p_tp}")
        if not 0.0 <= self.fp_rate <= MAX_FP_RATE:
            raise ConfigError(f"fp_rate must lie in [0, {MAX_FP_RATE:g}], got {self.fp_rate}")
        if not 0.0 <= self.jitter_px <= MAX_JITTER_PX:
            raise ConfigError(f"jitter_px must lie in [0, {MAX_JITTER_PX:g}], got {self.jitter_px}")
        _check_range("tp_score_range", self.tp_score_range)
        _check_range("fp_score_range", self.fp_score_range)
        if self.simulated_latency_ms < 0.0:
            raise ConfigError(
                f"simulated_latency_ms must be non-negative, got {self.simulated_latency_ms}"
            )


def _jittered(box: BoundingBox, jitters: tuple[int, int, int, int], image_w: int, image_h: int) -> BoundingBox:
    """Apply per-corner jitter, then clamp into the image with w, h >= 1."""
    jl, jt, jr, jb = jitters
    x1 = min(max(box.x + jl, 0), image_w - 1)
    y1 = min(max(box.y + jt, 0), image_h - 1)
    x2 = min(max(box.right + jr, x1 + 1), image_w)
    y2 = min(max(box.bottom + jb, y1 + 1), image_h)
    return BoundingBox(x1, y1, x2 - x1, y2 - y1)


def _log_uniform_edge(u: float, image_short_edge: int) -> int:
    lo = float(FP_MIN_EDGE_PX)
    hi = max(lo, image_short_edge / 2.0)
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def synthetic_detect(
    config: SyntheticDetectorConfig,
    frame_index: int,
    truth: FrameAnnotation | None,
    image_w: int,
    image_h: int,
    source: str = SOURCE_A,
) -> list[ScoredBox]:
    """Emit jittered true positives and Poisson false positives for one frame."""
    rng = SplitMix64(frame_seed(config.seed, frame_index))
    detections: list[ScoredBox] = []

    tp_lo, tp_hi = config.tp_score_range
    for gt_box in truth.polyp_boxes() if truth is not None else []:
        accepted = rng.next_float() < config.p_tp
        jitters = tuple(round(rng.gaussian() * config.jitter_px) for _ in range(4))
        score_u = rng.next_float()
        if not accepted:
            continue
        box = _jittered(gt_box, jitters, image_w, image_h)
        detections.append(ScoredBox(box, tp_lo + score_u * (tp_hi - tp_lo), source))

    fp_lo, fp_hi = config.fp_score_range
    short_edge = min(image_w, image_h)
    for _ in range(rng.poisson(config.fp_rate)):
        w = min(max(_log_uniform_edge(rng.next_float(), short_edge), 1), image_w)
        h = min(max(_log_uniform_edge(rng.next_float(), short_edge), 1), image_h)
        x = min(int(rng.next_float() * (image_w - w + 1)), image_w - w)
        y = min(int(rng.next_float() * (image_h - h + 1)), image_h - h)
        score = fp_lo + rng.next_float() * (fp_hi - fp_lo)
        detections.append(ScoredBox(BoundingBox(x, y, w, h), score, source))

    return detections


class SyntheticDetector:
    """DetectorBackend over :func:`synthetic_detect`, standing in for a trained detector.

    It alone holds the run's ground truth, ``truth`` (frame index to annotation).
    """

    def __init__(self, config: SyntheticDetectorConfig, source: str, truth: Mapping[int, FrameAnnotation]):
        self.config = config
        self.source = source
        self.truth = truth

    def detect(self, frame: Frame) -> list[ScoredBox]:
        truth = self.truth.get(frame.frame_index)
        return synthetic_detect(self.config, frame.frame_index, truth, frame.width, frame.height, self.source)
