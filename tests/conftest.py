"""Shared test helpers: independent oracles and fixture builders."""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scopeline.annotations import FrameAnnotation
from scopeline.evaluation import CRITERION_IOU, ConfusionCounts
from scopeline.geometry import LABEL_POLYP, SOURCE_A, SOURCE_B, SOURCE_ENSEMBLE, BoundingBox, ScoredBox
from scopeline.media import Frame

# Backend subprocesses started by the tests (``python -m scopeline.backends.stub``)
# import the package from this checkout too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


# Backend children that stall: one never reads its requests, one reads a
# request but never answers it.
NEVER_READS = [sys.executable, "-c", "import time; time.sleep(60)"]
NEVER_ANSWERS = [sys.executable, "-c", "import sys, time; sys.stdin.buffer.read1(1 << 16); time.sleep(60)"]


def child_pids() -> set[int]:
    """Pids of this process's children, exited but unreaped ones included."""
    return {int(pid) for path in Path("/proc/self/task").glob("*/children") for pid in path.read_text().split()}


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test that leaves a child process behind it."""
    before = child_pids()
    yield
    left = child_pids() - before
    assert not left, f"child processes left running: {sorted(left)}"


def pixel_grid_iou(a: BoundingBox, b: BoundingBox) -> Fraction:
    """Brute-force IoU oracle: rasterize both boxes over their bounding region
    and count pixels. Independent of the arithmetic intersection formula."""
    x0 = min(a.x, b.x)
    y0 = min(a.y, b.y)
    x1 = max(a.right, b.right)
    y1 = max(a.bottom, b.bottom)
    grid_a = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[a.y - y0 : a.bottom - y0, a.x - x0 : a.right - x0] = True
    grid_b[b.y - y0 : b.bottom - y0, b.x - x0 : b.right - x0] = True
    inter = int(np.count_nonzero(grid_a & grid_b))
    union = int(np.count_nonzero(grid_a | grid_b))
    return Fraction(inter, union)


def decimal(threshold: float) -> Fraction:
    """A threshold as the decimal it prints as: ``0.1`` is exactly 1/10, not the double nearest it."""
    return Fraction(repr(threshold))


def random_threshold(rng: random.Random, ratios=()) -> float:
    """A threshold in (0, 1]: a short decimal (``0.15``), or the double nearest a fraction, either one
    of the case's own positive ``ratios`` (so that ties occur) or a small one (``5 / 7``)."""
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(1, 20) / 20
    positive = [ratio for ratio in ratios if ratio > 0]
    if roll < 0.7 and positive:
        return float(rng.choice(positive))
    d = rng.choice((3, 6, 7, 9, 11, 12))  # denominators of fractions that no short decimal prints
    return rng.randint(1, d) / d


def threshold_ties(ratios, threshold: float) -> Counter:
    """How many ``ratios`` equal the threshold's decimal (``exact``), and how many differ from it but
    round to the threshold's double (``above`` or ``below`` the decimal): the cases where a rule that
    reads the threshold as a double, or compares the ratio as one, can answer wrongly."""
    ties = Counter()
    for ratio in ratios:
        if ratio == decimal(threshold):
            ties["exact"] += 1
        elif float(ratio) == threshold:
            ties["above" if ratio > decimal(threshold) else "below"] += 1
    return ties


def oracle_nms(boxes: list[ScoredBox], threshold: float) -> list[ScoredBox]:
    """Greedy NMS in exact arithmetic: by descending score, then detector A, B and the ensemble,
    then input order, a box is kept unless its ``pixel_grid_iou`` with a kept box lies above
    the threshold's decimal."""
    rank = {SOURCE_A: 0, SOURCE_B: 1, SOURCE_ENSEMBLE: 2}
    order = sorted(range(len(boxes)), key=lambda i: (-Fraction(boxes[i].score), rank[boxes[i].source], i))
    kept: list[ScoredBox] = []
    for i in order:
        if all(pixel_grid_iou(boxes[i].box, k.box) <= decimal(threshold) for k in kept):
            kept.append(boxes[i])
    return kept


def oracle_and_ensemble(a: list[ScoredBox], b: list[ScoredBox], threshold: float) -> list[ScoredBox]:
    """The boxes of either side with a ``pixel_grid_iou`` above the threshold's decimal against
    some box of the other side, through :func:`oracle_nms`, tagged as the ensemble's."""
    confirmed = [x for x in a if any(pixel_grid_iou(x.box, y.box) > decimal(threshold) for y in b)]
    confirmed += [y for y in b if any(pixel_grid_iou(y.box, x.box) > decimal(threshold) for x in a)]
    return [replace(box, source=SOURCE_ENSEMBLE) for box in oracle_nms(confirmed, threshold)]


def oracle_is_small(box: BoundingBox, image_w: int, image_h: int, threshold: float) -> bool:
    """Whether the box's short edge over the image's lies below the threshold's decimal, in integers."""
    t = decimal(threshold)
    return min(box.w, box.h) * t.denominator < t.numerator * min(image_w, image_h)


def oracle_match_frame(
    predictions: list[ScoredBox], truth: FrameAnnotation | None, criterion: str, threshold: float
) -> ConfusionCounts:
    """Greedy matching oracle that shares no arithmetic with ``match_frame``.

    Polyp predictions go by descending score, equal scores in input order.
    Each claims the unmatched polyp truth box of greatest ``pixel_grid_iou``
    (the first such box on a tie) among those it may match: exact IoU at or
    above the threshold's decimal for ``iou``; for ``centroid``, its
    centre inside the half-open box, tested in integers on doubled
    coordinates.
    """
    gts = [lb.box for lb in truth.boxes if lb.label == LABEL_POLYP] if truth is not None else []
    polyps = [p for p in predictions if p.label == LABEL_POLYP]
    order = sorted(range(len(polyps)), key=lambda i: (-Fraction(polyps[i].score), i))
    matched: set[int] = set()
    for i in order:
        pred = polyps[i].box
        cx2, cy2 = 2 * pred.x + pred.w, 2 * pred.y + pred.h
        best = None
        for gi, gt in enumerate(gts):
            if gi in matched:
                continue
            overlap = pixel_grid_iou(pred, gt)
            if criterion == CRITERION_IOU:
                eligible = overlap >= decimal(threshold)
            else:
                eligible = 2 * gt.x <= cx2 < 2 * gt.right and 2 * gt.y <= cy2 < 2 * gt.bottom
            if eligible and (best is None or overlap > best[0]):
                best = (overlap, gi)
        if best is not None:
            matched.add(best[1])
    return ConfusionCounts(tp=len(matched), fp=len(polyps) - len(matched), fn=len(gts) - len(matched))


def solid_frame(rgb: tuple[int, int, int], width: int = 8, height: int = 8, index: int = 0) -> Frame:
    return Frame(index, 0.0, width, height, bytes(rgb) * (width * height))


def checkerboard_frame(width: int = 8, height: int = 8, index: int = 0, tile: int = 1) -> Frame:
    """Grey 0/255 squares of ``tile`` pixels; the top-left one is black."""
    cols = (np.arange(width) // tile % 2).astype(np.uint8)
    rows = (np.arange(height) // tile % 2).astype(np.uint8)
    white = rows[:, None] ^ cols
    return Frame(index, 0.0, width, height, np.repeat(white * 255, 3).tobytes())


class MemoryFrameStream:
    """A stream over pre-built frames: the ``frame_count`` and ``read_frame`` a pipeline reads."""

    def __init__(self, frames: list[Frame]):
        self._frames = list(frames)

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def read_frame(self, frame_index: int) -> Frame:
        return self._frames[frame_index]
