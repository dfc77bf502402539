"""Seeded synthetic dataset generator: frames, manifests, annotations.

Clear frames carry a high-frequency checkerboard texture (far above any
sane blur-gate threshold); blurry frames are constant rasters (Laplacian
variance exactly zero). Pseudo-polyps are high-contrast bordered
rectangles. All sizes and placements come from one SplitMix64 stream per
video, so a fixed seed reproduces the dataset byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotations import FrameAnnotation, LabeledBox, save_annotations
from .codec import to_json
from .errors import ConfigError
from .geometry import BoundingBox, iou
from .media import Frame, StreamInfo, encode_ppm, frame_filename
from .rng import SplitMix64, frame_seed

# Pseudo-polyp fill/border and background tile colors (RGB).
_POLYP_FILL = (196, 112, 134)
_POLYP_BORDER = (54, 26, 38)
_TILE_DARK = (44, 40, 52)
_TILE_LIGHT = (212, 206, 188)
_TILE_PX = 4


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of a generated dataset."""

    videos: int = 1
    frames_per_video: int = 100
    polyps_per_video: int = 1
    blur_fraction: float = 0.0
    seed: int = 0
    width: int = 384
    height: int = 288
    fps: float = 60.0
    polyp_edge_range: tuple[int, int] = (24, 96)
    stagger_appearance: bool = False

    def __post_init__(self) -> None:
        if self.videos < 0 or self.frames_per_video < 0 or self.polyps_per_video < 0:
            raise ConfigError("videos, frames, and polyps must be non-negative")
        if not 0.0 <= self.blur_fraction <= 1.0:
            raise ConfigError(f"blur_fraction must lie in [0, 1], got {self.blur_fraction}")
        if self.width < 16 or self.height < 16:
            raise ConfigError(f"frames must be at least 16x16, got {self.width}x{self.height}")
        if not 0.0 < self.fps < math.inf:
            raise ConfigError(f"fps must be positive and finite, got {self.fps}")
        lo, hi = self.polyp_edge_range
        if not 1 <= lo <= hi:
            raise ConfigError(f"polyp_edge_range must satisfy 1 <= lo <= hi, got {self.polyp_edge_range}")
        if hi > min(self.width, self.height):
            raise ConfigError("polyp_edge_range exceeds the frame extent")


@dataclass(frozen=True)
class FramePlan:
    frame_index: int
    blurry: bool
    boxes: tuple[BoundingBox, ...]


def video_id_for(index: int) -> str:
    return f"video-{index:03d}"


def _draw_track_box(rng: SplitMix64, spec: DatasetSpec, existing: list[BoundingBox]) -> BoundingBox:
    lo, hi = spec.polyp_edge_range
    for _ in range(64):
        w = lo + rng.next_below(hi - lo + 1)
        h = lo + rng.next_below(hi - lo + 1)
        x = rng.next_below(spec.width - w + 1)
        y = rng.next_below(spec.height - h + 1)
        box = BoundingBox(x, y, w, h)
        if all(iou(box, other) <= 0.05 for other in existing):
            return box
    return box  # crowded spec; accept the last candidate


def plan_video(spec: DatasetSpec, video_index: int) -> list[FramePlan]:
    """Deterministic per-frame plan: blur assignment plus visible polyp boxes."""
    rng = SplitMix64(frame_seed(spec.seed, video_index))
    n = spec.frames_per_video

    order = list(range(n))
    rng.shuffle(order)
    blurry_count = round(spec.blur_fraction * n)
    blurry = {order[i] for i in range(blurry_count)}

    tracks = []
    boxes: list[BoundingBox] = []
    for _ in range(spec.polyps_per_video):
        appearance = rng.next_below(max(n // 2, 1)) if spec.stagger_appearance and n else 0
        box = _draw_track_box(rng, spec, boxes)
        boxes.append(box)
        tracks.append((appearance, box))

    plans = []
    for frame_index in range(n):
        if frame_index in blurry:
            plans.append(FramePlan(frame_index, True, ()))
        else:
            visible = tuple(box for appearance, box in tracks if frame_index >= appearance)
            plans.append(FramePlan(frame_index, False, visible))
    return plans


def render_frame(plan: FramePlan, spec: DatasetSpec) -> Frame:
    """Rasterize one planned frame."""
    if plan.blurry:
        # Constant raster; the level varies per frame but never the gradient.
        level = 96 + (plan.frame_index * 7) % 64
        raster = np.full((spec.height, spec.width, 3), level, dtype=np.uint8)
    else:
        ys, xs = np.mgrid[0 : spec.height, 0 : spec.width]
        checker = ((xs // _TILE_PX + ys // _TILE_PX + plan.frame_index) % 2).astype(np.uint8)
        raster = np.where(
            checker[:, :, None] == 0,
            np.array(_TILE_DARK, dtype=np.uint8),
            np.array(_TILE_LIGHT, dtype=np.uint8),
        )
        for box in plan.boxes:
            raster[box.y : box.bottom, box.x : box.right] = _POLYP_BORDER
            if box.w > 2 and box.h > 2:
                raster[box.y + 1 : box.bottom - 1, box.x + 1 : box.right - 1] = _POLYP_FILL
    return Frame(
        frame_index=plan.frame_index,
        timestamp_ms=plan.frame_index * 1000.0 / spec.fps,
        width=spec.width,
        height=spec.height,
        pixels=raster.tobytes(),
    )


def annotations_for_video(spec: DatasetSpec, video_index: int, plans: list[FramePlan]) -> list[FrameAnnotation]:
    video_id = video_id_for(video_index)
    return [
        FrameAnnotation(video_id, p.frame_index, tuple(LabeledBox(b) for b in p.boxes))
        for p in plans
        if p.boxes
    ]


def write_dataset(spec: DatasetSpec, out_dir: str | Path) -> list[Path]:
    """Write frame directories plus a dataset-level annotations.jsonl.

    Layout: ``<out>/videos/video-000/{manifest.json, 000000.ppm, ...}`` and
    ``<out>/annotations.jsonl``. Returns the video directories.
    """
    out = Path(out_dir)
    videos_dir = out / "videos"
    videos_dir.mkdir(parents=True, exist_ok=True)
    annotations: list[FrameAnnotation] = []
    video_dirs = []
    for video_index in range(spec.videos):
        plans = plan_video(spec, video_index)
        video_dir = videos_dir / video_id_for(video_index)
        video_dir.mkdir(parents=True, exist_ok=True)
        info = StreamInfo(video_id_for(video_index), spec.fps, spec.width, spec.height, spec.frames_per_video)
        (video_dir / "manifest.json").write_text(json.dumps(to_json(info), indent=2) + "\n", encoding="utf-8")
        for plan in plans:
            frame = render_frame(plan, spec)
            path = video_dir / frame_filename(plan.frame_index)
            path.write_bytes(encode_ppm(frame.width, frame.height, frame.pixels))
        annotations.extend(annotations_for_video(spec, video_index, plans))
        video_dirs.append(video_dir)
    save_annotations(out / "annotations.jsonl", annotations)
    return video_dirs
