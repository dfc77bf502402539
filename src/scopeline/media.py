"""Frame ingestion from binary PPM sequences and the exact Laplacian-variance blur scorer.

A frame directory holds ``manifest.json`` plus one ``<frame_index:06d>.ppm``
per frame. Only binary PPM ("P6", maxval 255) is supported; the decode is
bit-exact and round-trips through :func:`encode_ppm` for canonical headers.

The blur score is the population variance of the 4-neighbour Laplacian of
BT.601 luma over the interior pixels (Pech-Pacheco et al., ICPR 2000),
computed exactly. Luma is scaled by 1000 to
``Y' = 299 R + 587 G + 114 B`` and the Laplacian
``L' = Y'(up) + Y'(down) + Y'(left) + Y'(right) - 4 Y'`` is 1000 times the
Laplacian of the real-valued luma. With ``n`` interior pixels,
``S1 = sum L'`` and ``S2 = sum L'^2``, the variance is exactly
``(n S2 - S1^2) / (n^2 10^6)``, so a threshold comparison has no rounding.

Every step is exact in floating point, because every value it forms is an
integer the format holds exactly, whatever the order of the additions (BLAS
and fused multiply-adds included):

* luma and Laplacian in float32: each product, partial sum and result is an
  integer of magnitude at most ``4 * 255000 = 1020000 < 2^24``;
* ``S1`` and ``S2`` in float64, over runs of ``2^13`` Laplacian values: a
  run's sum of squares is at most ``2^13 * 1020000^2 < 8.6e15 < 2^53``.

The run totals are then added as Python ints, so no frame size overflows.

A clear verdict can come from a subset of the Laplacian values. The spread
``n S2 - S1^2 = 1/2 sum_i sum_j (L'_i - L'_j)^2`` is a sum of non-negative
terms over pairs of values, so the ``m`` values of any subset have
``m S2_m - S1_m^2 <= n S2 - S1^2``: dropping values only drops pairs. Once a
subset's spread reaches ``threshold n^2 10^6`` the frame is clear, exactly,
whichever rows the subset holds and in whatever order they are visited.
A blurry verdict still needs every value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .codec import from_json, read_json
from .errors import MediaFormatError

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
    """Exact Laplacian variance of frames, by the rule of the module docstring.

    The float32/float64 work buffers are kept between calls and reallocated
    only when the frame shape changes, so a stream of same-shape frames
    allocates nothing per frame. One caller at a time.
    """

    # Laplacian values per float64 run: 2^13 * (4 * 255000)^2 < 2^53, so a
    # run's sum of squares is exact in any order.
    _RUN = 1 << 13
    # Pixels per band of the float32 RGB copy that feeds the luma matmul. The
    # 192 KiB band stays in a core's L2 cache; on a Xeon with 2 MiB of L2 per
    # core, one whole-frame copy made a 384x288 frame about 0.1 ms slower.
    _BAND = 1 << 14
    _LUMA_WEIGHTS = np.array([299, 587, 114], np.float32)
    # Laplacian rows of the centre strip that ``centre_proves_clear`` scores.
    # Each NumPy call costs about as much as a 16-row strip's arithmetic, so
    # one short probe keeps the extra cost of an undecided frame small.
    _PROBE_ROWS = 16

    def __init__(self) -> None:
        self._shape: tuple[int, int] | None = None

    def _resize(self, height: int, width: int) -> None:
        if height < 3 or width < 3:
            raise MediaFormatError(f"frame is {width}x{height}; the blur gate needs at least 3x3")
        # The Laplacian is taken over whole rows 1..height-2 of the flattened
        # luma; its first and last column wrap across rows and are zeroed.
        count = (height - 2) * width
        self._rgb = np.empty((min(height * width, self._BAND), 3), np.float32)
        self._luma = np.empty(height * width, np.float32)
        self._laplacian = np.empty(count, np.float32)
        # Whole runs of the float64 sums; the padding past ``count`` stays zero.
        run = min(count, self._RUN)
        self._wide = np.zeros((-(-count // run), run), np.float64)
        # The probe works in the heads of the same buffers, which the full pass
        # overwrites: luma rows ``top .. top + rows + 1`` give its ``rows``
        # Laplacian rows. A frame with no more Laplacian rows has no probe.
        rows = self._PROBE_ROWS
        self._probe = None
        if height - 2 > rows:
            top, values = (height - 2 - rows) // 2, rows * width
            run = min(values, self._RUN)
            wide = self._wide.reshape(-1)[: -(-values // run) * run].reshape(-1, run)
            luma = self._luma[top * width : (top + rows + 2) * width]
            self._probe = (top * width, luma, self._laplacian[:values], wide)
        self._shape = (height, width)

    def _sums(
        self, pixels: np.ndarray, luma: np.ndarray, lap: np.ndarray, wide: np.ndarray, width: int
    ) -> tuple[int, int]:
        """``S1`` and ``S2`` of the Laplacian of RGB rows ``pixels``, via the given buffers.

        ``luma`` holds one value per pixel and ``lap`` two rows fewer;
        ``wide`` takes ``lap`` in runs.
        """
        rgb = self._rgb
        band = len(rgb)
        for start in range(0, len(luma), band):
            part = rgb[: len(luma) - start]
            np.copyto(part, pixels[start : start + band])
            np.matmul(part, self._LUMA_WEIGHTS, out=luma[start : start + band])
        count = len(lap)
        np.multiply(luma[width : width + count], -4, out=lap)
        lap += luma[:count]
        lap += luma[2 * width :]
        lap += luma[width - 1 : width - 1 + count]
        lap += luma[width + 1 : width + 1 + count]
        rows = lap.reshape(-1, width)
        rows[:, 0] = 0
        rows[:, -1] = 0
        np.copyto(wide.reshape(-1)[:count], lap)
        s1 = sum(map(int, np.einsum("ij->i", wide).tolist()))
        s2 = sum(map(int, np.matmul(wide[:, None, :], wide[:, :, None]).ravel().tolist()))
        return s1, s2

    def variance(self, frame: Frame) -> Fraction:
        """The frame's Laplacian variance, from every row; MediaFormatError below 3x3."""
        height, width = frame.height, frame.width
        if self._shape != (height, width):
            self._resize(height, width)
        pixels = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(-1, 3)
        s1, s2 = self._sums(pixels, self._luma, self._laplacian, self._wide, width)
        n = (height - 2) * (width - 2)
        return Fraction(n * s2 - s1 * s1, n * n * 1_000_000)

    def centre_proves_clear(self, frame: Frame, threshold: float) -> bool:
        """True when ``_PROBE_ROWS`` centre rows alone prove the variance is at least ``threshold``.

        Applies the subset bound of the module docstring, compared in
        integers. False means undecided: the frame has no more Laplacian rows
        than the probe, the threshold is not finite, or the strip's spread
        falls short. MediaFormatError below 3x3.
        """
        height, width = frame.height, frame.width
        if self._shape != (height, width):
            self._resize(height, width)
        if self._probe is None:
            return False
        try:
            num, den = threshold.as_integer_ratio()
        except (OverflowError, ValueError):  # infinite or nan: no bound to reach
            return False
        start, luma, lap, wide = self._probe
        wide.reshape(-1)[len(lap) :] = 0  # the last run's padding, which a full pass fills
        pixels = np.frombuffer(frame.pixels, np.uint8, 3 * len(luma), 3 * start).reshape(-1, 3)
        s1, s2 = self._sums(pixels, luma, lap, wide, width)
        # The strip's m values leave out its wrapped first and last columns, which are zero.
        n, m = (height - 2) * (width - 2), self._PROBE_ROWS * (width - 2)
        return (m * s2 - s1 * s1) * den >= num * n * n * 1_000_000


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
        if self.frame_count < 1:
            raise MediaFormatError(f"stream frame_count must be at least 1, got {self.frame_count}")


def frame_filename(frame_index: int) -> str:
    return f"{frame_index:06d}.ppm"


class DirectoryFrameStream:
    """Reads a frame directory in strictly increasing frame order.

    The directory's ``manifest.json`` is the only source of the stream's video
    id, fps, raster size and frame count. Single consumer per instance;
    distinct instances may read concurrently.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise MediaFormatError(f"missing stream manifest: {manifest_path}")
        self.info = from_json(StreamInfo, read_json(manifest_path, MediaFormatError), "manifest", MediaFormatError)

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
