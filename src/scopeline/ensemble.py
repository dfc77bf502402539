"""Dual-detector fusion: the IoU-confirmed AND rule and its size-aware variant.

AND rule: a detection survives only when the other detector produced an
overlapping box (IoU above the threshold); the surviving pair is collapsed
by NMS. Size-aware rule: detector-A boxes whose short edge, over the
image's, is below its threshold bypass confirmation, and detector B is not
invoked when no large A box needs confirming. Both thresholds follow the
threshold rule of :mod:`scopeline.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigError
from .geometry import SOURCE_ENSEMBLE, ScoredBox, compare_iou, compare_ratio, nms

MODE_AND = "and"
MODE_SIZE_AWARE = "size_aware"

DEFAULT_IOU_THRESHOLD = 0.1
DEFAULT_SHORT_EDGE_RATIO_THRESHOLD = 0.1


@dataclass(frozen=True)
class EnsembleConfig:
    iou_threshold: float = DEFAULT_IOU_THRESHOLD
    mode: str = MODE_AND
    short_edge_ratio_threshold: float = DEFAULT_SHORT_EDGE_RATIO_THRESHOLD

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold must lie in [0, 1], got {self.iou_threshold}")
        if self.mode not in (MODE_AND, MODE_SIZE_AWARE):
            raise ConfigError(f"mode must be '{MODE_AND}' or '{MODE_SIZE_AWARE}', got {self.mode!r}")
        if not 0.0 < self.short_edge_ratio_threshold <= 1.0:
            raise ConfigError(
                "short_edge_ratio_threshold must lie in (0, 1], "
                f"got {self.short_edge_ratio_threshold}"
            )


def _tag_ensemble(boxes: Sequence[ScoredBox]) -> list[ScoredBox]:
    return [ScoredBox(sb.box, sb.score, SOURCE_ENSEMBLE, sb.label) for sb in boxes]


def and_ensemble(
    a: Sequence[ScoredBox], b: Sequence[ScoredBox], cfg: EnsembleConfig
) -> list[ScoredBox]:
    """Keep boxes confirmed by the other detector, collapsed by NMS.

    A box is confirmed when some box on the other side overlaps it with IoU
    above ``cfg.iou_threshold``; unconfirmed boxes are dropped.
    """
    if not a or not b:
        return []
    threshold = cfg.iou_threshold
    confirmed = [sa for sa in a if any(compare_iou(sa.box, sb.box, threshold) > 0 for sb in b)]
    confirmed += [sb for sb in b if any(compare_iou(sb.box, sa.box, threshold) > 0 for sa in a)]
    return _tag_ensemble(nms(confirmed, threshold))


def size_aware_ensemble(
    a: Sequence[ScoredBox],
    b_supplier: Callable[[], Sequence[ScoredBox]],
    image_w: int,
    image_h: int,
    cfg: EnsembleConfig,
) -> tuple[list[ScoredBox], bool]:
    """Pass small detector-A boxes through; confirm large ones against detector B.

    ``b_supplier`` runs detector B on the same frame and is called only when
    some A box is large: not below the short-edge-ratio threshold. Returns
    the fused detections plus whether B was invoked; ValueError when an A
    box exceeds the image.
    """
    small: list[ScoredBox] = []
    large: list[ScoredBox] = []
    for sa in a:
        if not sa.box.within(image_w, image_h):
            raise ValueError(f"box {sa.box} exceeds image extent {image_w}x{image_h}")
        if compare_ratio(min(sa.box.w, sa.box.h), min(image_w, image_h), cfg.short_edge_ratio_threshold) < 0:
            small.append(sa)
        else:
            large.append(sa)

    fused = _tag_ensemble(small)
    if large:
        fused.extend(and_ensemble(large, list(b_supplier()), cfg))
    return nms(fused, cfg.iou_threshold), bool(large)
