"""Frame ingestion from binary PPM sequences and the Laplacian-variance blur scorer.

A frame directory holds ``manifest.json`` plus one ``<frame_index:06d>.ppm``
per frame. Only binary PPM ("P6", maxval 255) is supported; the decode is
bit-exact and round-trips through :func:`encode_ppm` for canonical headers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MediaFormatError

# ITU-R BT.601 luma weights.
_LUMA_R, _LUMA_G, _LUMA_B = 0.299, 0.587, 0.114

DEFAULT_FPS = 60.0
DEFAULT_BLUR_THRESHOLD = 100.0

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class Frame:
    """Decoded RGB8 raster with its position in the stream."""

    frame_index: int
    timestamp_ms: float
    width: int
    height: int
    pixels: bytes  # row-major RGB triples

    def __post_init__(self) -> None:
        if len(self.pixels) != 3 * self.width * self.height:
            raise ValueError(
                f"pixel payload is {len(self.pixels)} bytes, expected "
                f"{3 * self.width * self.height} for {self.width}x{self.height}"
            )

    def rgb(self) -> np.ndarray:
        """Pixels as a (height, width, 3) uint8 array view."""
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width, 3)


# One header integer after any whitespace and '#'-to-end-of-line comments; the
# digits group is empty where the header has no integer.
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\d*)")


def decode_ppm(data: bytes) -> tuple[int, int, bytes]:
    """Decode a binary PPM ("P6", maxval 255) into (width, height, pixels)."""
    if data[:2] != b"P6":
        raise MediaFormatError("not a binary PPM: expected magic 'P6' at byte 0")
    pos = 2
    values = []
    for what in ("width", "height", "maxval"):
        token = _PPM_TOKEN.match(data, pos)
        if not token.group(1):
            raise MediaFormatError(f"expected {what} digits at byte {token.start(1)}")
        values.append(int(token.group(1)))
        pos = token.end()
    width, height, maxval = values
    if width < 1 or height < 1:
        raise MediaFormatError(f"invalid raster extent {width}x{height} in header")
    if maxval != 255:
        raise MediaFormatError(f"unsupported maxval {maxval} at byte {token.start(1)}")
    if not data[pos : pos + 1].isspace():
        raise MediaFormatError(f"expected single whitespace after maxval at byte {pos}")
    pos += 1
    expected = 3 * width * height
    pixels = data[pos : pos + expected]
    if len(pixels) != expected:
        raise MediaFormatError(
            f"truncated raster: need {expected} bytes from byte {pos}, file ends at byte {len(data)}"
        )
    return width, height, pixels


def encode_ppm(width: int, height: int, pixels: bytes) -> bytes:
    """Encode with the canonical header 'P6\\n<w> <h>\\n255\\n'."""
    if len(pixels) != 3 * width * height:
        raise ValueError(f"pixel payload is {len(pixels)} bytes for {width}x{height}")
    return b"P6\n%d %d\n255\n" % (width, height) + pixels


def luma(frame: Frame) -> np.ndarray:
    """BT.601 luma, (height, width) float64: 0.299 R + 0.587 G + 0.114 B."""
    rgb = frame.rgb().astype(np.float64)
    return _LUMA_R * rgb[:, :, 0] + _LUMA_G * rgb[:, :, 1] + _LUMA_B * rgb[:, :, 2]


def laplacian_variance(gray: np.ndarray) -> float:
    """Population variance of the 4-neighbor Laplacian over interior pixels.

    Kernel [[0,1,0],[1,-4,1],[0,1,0]]; border pixels are excluded rather
    than padded.
    """
    if gray.ndim != 2 or gray.shape[0] < 3 or gray.shape[1] < 3:
        raise ValueError(f"grid must be at least 3x3, got shape {gray.shape}")
    g = gray.astype(np.float64, copy=False)
    response = (
        g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:] - 4.0 * g[1:-1, 1:-1]
    )
    return float(response.var())


def heuristic_blur_gate(frame: Frame, threshold: float = DEFAULT_BLUR_THRESHOLD) -> bool:
    """True (blurry) when the frame's Laplacian variance falls below ``threshold``."""
    return laplacian_variance(luma(frame)) < threshold


@dataclass(frozen=True)
class StreamInfo:
    """Frame-directory manifest contents."""

    video_id: str
    fps: float
    width: int
    height: int
    frame_count: int

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "fps": self.fps,
            "width": self.width,
            "height": self.height,
            "frame_count": self.frame_count,
        }

    @classmethod
    def from_dict(cls, row: dict) -> StreamInfo:
        try:
            return cls(
                video_id=str(row["video_id"]),
                fps=float(row["fps"]),
                width=int(row["width"]),
                height=int(row["height"]),
                frame_count=int(row["frame_count"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MediaFormatError(f"bad stream manifest: {exc}") from exc


def frame_filename(frame_index: int) -> str:
    return f"{frame_index:06d}.ppm"


class DirectoryFrameStream:
    """Reads a frame directory in strictly increasing frame order.

    Single consumer per instance; distinct instances may read concurrently.
    """

    def __init__(self, directory: str | Path, fps_override: float | None = None):
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise MediaFormatError(f"missing stream manifest: {manifest_path}")
        try:
            raw = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MediaFormatError(f"{manifest_path}: invalid JSON: {exc}") from exc
        info = StreamInfo.from_dict(raw)
        if fps_override is not None:
            info = StreamInfo(info.video_id, fps_override, info.width, info.height, info.frame_count)
        self.info = info
        if self.info.fps <= 0:
            raise MediaFormatError(f"{manifest_path}: fps must be positive")

    @property
    def video_id(self) -> str:
        return self.info.video_id

    @property
    def fps(self) -> float:
        return self.info.fps

    @property
    def frame_count(self) -> int:
        return self.info.frame_count

    def read_frame(self, frame_index: int) -> Frame:
        path = self.directory / frame_filename(frame_index)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise MediaFormatError(f"cannot read frame file {path}: {exc}") from exc
        try:
            width, height, pixels = decode_ppm(data)
        except MediaFormatError as exc:
            raise MediaFormatError(f"{path}: {exc}") from exc
        if (width, height) != (self.info.width, self.info.height):
            raise MediaFormatError(
                f"{path}: raster is {width}x{height}, manifest declares "
                f"{self.info.width}x{self.info.height}"
            )
        return Frame(frame_index, frame_index * 1000.0 / self.info.fps, width, height, pixels)


class MemoryFrameStream:
    """In-memory stream over pre-built frames; used by benches and tests."""

    def __init__(self, frames: Sequence[Frame], fps: float = DEFAULT_FPS, video_id: str = "memory"):
        self._frames = list(frames)
        self.fps = fps
        self.video_id = video_id

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def read_frame(self, frame_index: int) -> Frame:
        return self._frames[frame_index]
