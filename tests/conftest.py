"""Shared test helpers: independent oracles and fixture builders."""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scopeline.annotations import FrameAnnotation
from scopeline.evaluation import CRITERION_IOU, ConfusionCounts
from scopeline.geometry import LABEL_POLYP, BoundingBox, ScoredBox
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


def oracle_match_frame(
    predictions: list[ScoredBox], truth: FrameAnnotation | None, criterion: str, threshold: float
) -> ConfusionCounts:
    """Greedy matching oracle that shares no arithmetic with ``match_frame``.

    Polyp predictions go by descending score, equal scores in input order.
    Each claims the unmatched polyp truth box of greatest ``pixel_grid_iou``
    (the first such box on a tie) among those it may match: exact IoU at or
    above the threshold's exact value for ``iou``; for ``centroid``, its
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
                eligible = overlap >= Fraction(threshold)
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
