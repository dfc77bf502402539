"""Shared test helpers: independent oracles and fixture builders."""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scopeline.geometry import BoundingBox
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
