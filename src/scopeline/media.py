"""Frame ingestion from binary PPM sequences and the exact Laplacian-variance blur scorer.

A frame directory holds ``manifest.json`` plus one ``<frame_index:06d>.ppm``
per frame. Only binary PPM ("P6", maxval 255) is supported; the decode is
bit-exact and round-trips through :func:`encode_ppm` for canonical headers.

The blur score is the population variance of the 4-neighbour Laplacian of
BT.601 luma over the interior pixels (Pech-Pacheco et al., ICPR 2000),
computed in exact integers. Luma is scaled by 1000 to
``Y' = 299 R + 587 G + 114 B`` and the Laplacian
``L' = Y'(up) + Y'(down) + Y'(left) + Y'(right) - 4 Y'`` is 1000 times the
Laplacian of the real-valued luma. With ``n`` interior pixels,
``S1 = sum L'`` and ``S2 = sum L'^2``, the variance is exactly
``(n S2 - S1^2) / (n^2 10^6)``, so a threshold comparison has no rounding.

Nothing overflows for any frame size: ``0 <= Y' <= 255000`` and
``|L'| <= 4 * 255000 < 2^20`` fit int32, ``L'^2 < 2^40``, and the sums are
taken in int64 over runs of at most ``2^16`` values (each partial sum below
``2^56``), then added as Python ints.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import MediaFormatError
from .geometry import JSON_NUMBER, json_field

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


class LaplacianVarianceScorer:
    """Exact Laplacian variance of frames, by the integer rule of the module docstring.

    The int32/int64 work buffers are kept between calls and reallocated only
    when the frame shape changes, so a stream of same-shape frames allocates
    nothing per frame. One caller at a time.
    """

    _RUN = 1 << 16  # Laplacian values per int64 partial sum

    def __init__(self) -> None:
        self._shape: tuple[int, int] | None = None

    def _resize(self, height: int, width: int) -> None:
        if height < 3 or width < 3:
            raise MediaFormatError(f"frame is {width}x{height}; the blur gate needs at least 3x3")
        # The Laplacian is taken over whole rows 1..height-2 of the flattened
        # luma; its first and last column wrap across rows and are zeroed.
        count = (height - 2) * width
        self._luma = np.empty(height * width, np.int32)
        self._term = np.empty(height * width, np.int32)
        self._laplacian = np.empty(count, np.int32)
        # Whole runs of the int64 sums; the padding past ``count`` stays zero.
        run = min(count, self._RUN)
        self._wide = np.zeros((-(-count // run), run), np.int64)
        self._partial = np.empty(len(self._wide), np.int64)
        self._shape = (height, width)

    def variance(self, frame: Frame) -> Fraction:
        """The frame's Laplacian variance; MediaFormatError below 3x3."""
        height, width = frame.height, frame.width
        if self._shape != (height, width):
            self._resize(height, width)
        rgb = np.frombuffer(frame.pixels, dtype=np.uint8)
        luma, term, lap = self._luma, self._term, self._laplacian
        count = len(lap)
        np.multiply(rgb[0::3], 299, out=luma, dtype=np.int32)
        np.multiply(rgb[1::3], 587, out=term, dtype=np.int32)
        luma += term
        np.multiply(rgb[2::3], 114, out=term, dtype=np.int32)
        luma += term
        np.add(luma[:count], luma[2 * width :], out=lap)
        lap += luma[width - 1 : width - 1 + count]
        lap += luma[width + 1 : width + 1 + count]
        centre = term[:count]
        np.left_shift(luma[width : width + count], 2, out=centre)
        lap -= centre
        rows = lap.reshape(height - 2, width)
        rows[:, 0] = 0
        rows[:, -1] = 0
        wide = self._wide
        np.copyto(wide.reshape(-1)[:count], lap)
        s1 = sum(np.einsum("ij->i", wide, out=self._partial).tolist())
        s2 = sum(np.einsum("ij,ij->i", wide, wide, out=self._partial).tolist())
        n = (height - 2) * (width - 2)
        return Fraction(n * s2 - s1 * s1, n * n * 1_000_000)


def heuristic_blur_gate(frame: Frame, threshold: float = DEFAULT_BLUR_THRESHOLD) -> bool:
    """True (blurry) when the frame's Laplacian variance falls below ``threshold``.

    One-shot form of ``HeuristicBlurGate``: it allocates its work buffers per call.
    """
    return LaplacianVarianceScorer().variance(frame) < threshold


@dataclass(frozen=True)
class StreamInfo:
    """Frame-directory manifest contents."""

    video_id: str
    fps: float
    width: int
    height: int
    frame_count: int

    def __post_init__(self) -> None:
        if not 0.0 < self.fps < math.inf:
            raise MediaFormatError(f"stream fps must be positive and finite, got {self.fps}")
        if self.width < 1 or self.height < 1:
            raise MediaFormatError(f"stream width and height must be at least 1, got {self.width}x{self.height}")
        if self.frame_count < 0:
            raise MediaFormatError(f"stream frame_count must be non-negative, got {self.frame_count}")

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
                video_id=json_field(row, "video_id", str),
                fps=float(json_field(row, "fps", JSON_NUMBER)),
                width=json_field(row, "width", int),
                height=json_field(row, "height", int),
                frame_count=json_field(row, "frame_count", int),
            )
        except (KeyError, TypeError, OverflowError) as exc:
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
            info = replace(info, fps=fps_override)
        self.info = info

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
