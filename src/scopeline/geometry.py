"""Exact integer box geometry: IoU, NMS, and the threshold rule for ratios.

Boxes are half-open pixel grids: ``(x, y, w, h)`` covers the pixel set
``[x, x+w) x [y, y+h)``. Areas and intersections are therefore exact
integers, IoU is their correctly rounded quotient, and a brute-force
pixel-counting check is an equality test rather than a tolerance test.

The threshold rule: every decision that compares a ratio of pixel counts
(IoU, short-edge ratio) with a threshold ``t`` reads ``t`` as the decimal it
prints as, ``Fraction(repr(t))``, and compares in integers, in
:func:`compare_ratio`. So an IoU of exactly 1/3 lies above ``0.3333333333333333``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

SOURCE_A = "detector-A"
SOURCE_B = "detector-B"
SOURCE_ENSEMBLE = "ensemble"

LABEL_POLYP = "polyp"
LABEL_INSTRUMENT = "instrument"

# The Python types a JSON number decodes to; ``bool`` is not one of them.
JSON_NUMBER = (int, float)

# NMS tie-break rank on equal scores; unknown tags sort last.
_SOURCE_RANK = {SOURCE_A: 0, SOURCE_B: 1, SOURCE_ENSEMBLE: 2}


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel rectangle: top-left corner plus size, all integers."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError(f"box corner must be non-negative, got ({self.x}, {self.y})")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"box size must be at least 1x1, got {self.w}x{self.h}")

    @property
    def right(self) -> int:
        """Exclusive right edge."""
        return self.x + self.w

    @property
    def bottom(self) -> int:
        """Exclusive bottom edge."""
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def within(self, image_w: int, image_h: int) -> bool:
        """True when the box lies entirely inside a ``image_w x image_h`` raster."""
        return self.right <= image_w and self.bottom <= image_h


@dataclass(frozen=True)
class ScoredBox:
    """A detection: bounding box, confidence, producing detector, class tag."""

    box: BoundingBox
    score: float
    source: str = SOURCE_A
    label: str = LABEL_POLYP

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


def json_field(record: Mapping, key: str, kind: type | tuple[type, ...]):
    """``record[key]``, of JSON type ``kind`` (or one of a tuple of types) exactly.

    ``2.7`` and ``true`` are no int, and ``true`` is no :data:`JSON_NUMBER`.
    KeyError when the key is absent, TypeError for a value of another type.
    """
    value = record[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"{key} must be of type {names}, got {value!r}")
    return value


def box_to_dict(box: BoundingBox, **fields) -> dict:
    """JSON record of a box: ``x``, ``y``, ``w``, ``h``, then the caller's ``fields`` in order."""
    return {"x": box.x, "y": box.y, "w": box.w, "h": box.h, **fields}


def box_from_dict(record: Mapping) -> BoundingBox:
    """The box of a :func:`box_to_dict` record; its coordinates must be JSON integers."""
    return BoundingBox(*(json_field(record, key, int) for key in "xywh"))


def intersection_area(a: BoundingBox, b: BoundingBox) -> int:
    """Exact pixel count of the overlap of two boxes (0 when disjoint)."""
    iw = min(a.right, b.right) - max(a.x, b.x)
    ih = min(a.bottom, b.bottom) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0
    return iw * ih


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 1.0 for identical boxes, 0.0 when disjoint."""
    inter = intersection_area(a, b)
    return inter / (a.area + b.area - inter)


@cache  # one entry per distinct threshold, and a config holds two or three
def _decimal_ratio(threshold: float) -> tuple[int, int]:
    return Fraction(repr(threshold)).as_integer_ratio()


def compare_ratio(part: int, whole: int, threshold: float) -> int:
    """-1, 0 or 1 as ``part / whole`` (``whole`` > 0) lies below, at or above ``threshold``."""
    num, den = _decimal_ratio(threshold)
    lhs, rhs = part * den, num * whole
    return (lhs > rhs) - (lhs < rhs)


def compare_iou(a: BoundingBox, b: BoundingBox, threshold: float) -> int:
    """:func:`compare_ratio` of the boxes' exact IoU with ``threshold``."""
    inter = intersection_area(a, b)
    return compare_ratio(inter, a.area + b.area - inter, threshold)


def _nms_sort_key(indexed: tuple[int, ScoredBox]) -> tuple[float, int, int]:
    index, scored = indexed
    rank = _SOURCE_RANK.get(scored.source, len(_SOURCE_RANK))
    return (-scored.score, rank, index)


def nms(boxes: Sequence[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-score box and discards remaining boxes whose
    IoU with it lies above ``iou_threshold`` (:func:`compare_iou`). Score ties
    fall to detector-A before detector-B, then to input order. Output is
    sorted by descending score.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    ordered = sorted(enumerate(boxes), key=_nms_sort_key)
    kept: list[ScoredBox] = []
    for _, candidate in ordered:
        if all(compare_iou(candidate.box, k.box, iou_threshold) <= 0 for k in kept):
            kept.append(candidate)
    return kept
