"""PPM codec, the exact blur scorer against float and Fraction oracles, and frame streams."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from scopeline.backends.base import HeuristicBlurGate
from scopeline.codec import from_json, to_json
from scopeline.errors import MediaFormatError
from scopeline.media import (
    DirectoryFrameStream,
    Frame,
    LaplacianVarianceScorer,
    StreamInfo,
    decode_ppm,
    encode_ppm,
    heuristic_blur_gate,
)

from conftest import checkerboard_frame, solid_frame


def rgb(frame: Frame) -> np.ndarray:
    """Pixels as a (height, width, 3) uint8 array."""
    return np.frombuffer(frame.pixels, dtype=np.uint8).reshape(frame.height, frame.width, 3)


def luma(frame: Frame) -> np.ndarray:
    """Float oracle: BT.601 luma, (height, width) float64: 0.299 R + 0.587 G + 0.114 B."""
    pixels = rgb(frame).astype(np.float64)
    return 0.299 * pixels[:, :, 0] + 0.587 * pixels[:, :, 1] + 0.114 * pixels[:, :, 2]


def laplacian_variance(gray: np.ndarray) -> float:
    """Float oracle: population variance of the 4-neighbour Laplacian over interior pixels.

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


def fraction_laplacian_variance(frame: Frame) -> Fraction:
    """Exact oracle: two-pass variance (mean, then mean squared deviation) of the
    per-pixel Laplacians, in Python ints on luma scaled by 1000."""
    gray = [[299 * r + 587 * g + 114 * b for r, g, b in row] for row in rgb(frame).tolist()]
    responses = [
        gray[y - 1][x] + gray[y + 1][x] + gray[y][x - 1] + gray[y][x + 1] - 4 * gray[y][x]
        for y in range(1, frame.height - 1)
        for x in range(1, frame.width - 1)
    ]
    n, total = len(responses), sum(responses)
    # Laplacian r / 1000 has mean total / (1000 n); its squared deviation is (n r - total)^2 / (1000 n)^2.
    return Fraction(sum((n * r - total) ** 2 for r in responses), n**3 * 1000**2)


def random_frame(rng: np.random.Generator, width: int, height: int, index: int = 0) -> Frame:
    return Frame(index, 0.0, width, height, rng.integers(0, 256, size=3 * width * height, dtype=np.uint8).tobytes())


class TestPpmCodec:
    def test_single_pixel(self):
        assert decode_ppm(b"P6\n1 1\n255\n" + bytes([255, 0, 0])) == (1, 1, bytes([255, 0, 0]))

    def test_comment_in_header(self):
        plain = b"P6\n2 1\n255\n" + bytes(6)
        commented = b"P6\n# c\n2 1\n255\n" + bytes(6)
        assert decode_ppm(commented) == decode_ppm(plain)

    def test_crlf_and_multiple_spaces(self):
        data = b"P6\r\n  3   2\t255 " + bytes(18)
        assert decode_ppm(data)[:2] == (3, 2)

    def test_unsupported_maxval(self):
        with pytest.raises(MediaFormatError, match="maxval 65535"):
            decode_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_bad_magic_names_offset(self):
        with pytest.raises(MediaFormatError, match="byte 0"):
            decode_ppm(b"P5\n1 1\n255\n\x00")

    def test_truncated_payload_names_offset(self):
        with pytest.raises(MediaFormatError, match="byte"):
            decode_ppm(b"P6\n2 2\n255\n" + bytes(5))

    def test_missing_header_token(self):
        with pytest.raises(MediaFormatError, match="height"):
            decode_ppm(b"P6\n17")

    def test_comment_straight_after_a_digit(self):
        assert decode_ppm(b"P6 2#c\n1 255\n" + bytes(6)) == (2, 1, bytes(6))

    def test_vertical_tab_and_form_feed_separate_tokens(self):
        assert decode_ppm(b"P6\x0b2\x0c1\x0b255\x0c" + bytes(6)) == (2, 1, bytes(6))

    def test_non_space_after_maxval_names_offset(self):
        with pytest.raises(MediaFormatError, match="after maxval at byte 10"):
            decode_ppm(b"P6\n1 1\n255x" + bytes(3))

    def test_unsupported_maxval_names_its_first_digit(self):
        with pytest.raises(MediaFormatError, match="maxval 7 at byte 7"):
            decode_ppm(b"P6 1 1 007\n" + bytes(3))

    def test_round_trip_random_rasters(self):
        rng = random.Random(99)
        for _ in range(200):
            w = rng.randrange(1, 17)
            h = rng.randrange(1, 17)
            pixels = bytes(rng.randrange(256) for _ in range(3 * w * h))
            encoded = encode_ppm(w, h, pixels)
            assert decode_ppm(encoded) == (w, h, pixels)
            # Canonical header: re-encoding the decode is byte-identical.
            assert encode_ppm(*decode_ppm(encoded)) == encoded


class TestLuma:
    def test_white_is_255(self):
        assert luma(solid_frame((255, 255, 255)))[0, 0] == pytest.approx(255.0)

    def test_pure_red(self):
        assert luma(solid_frame((255, 0, 0)))[0, 0] == pytest.approx(76.245)

    def test_black_is_zero(self):
        assert not luma(solid_frame((0, 0, 0))).any()

    def test_shape(self):
        frame = solid_frame((1, 2, 3), width=5, height=3)
        assert luma(frame).shape == (3, 5)


def oracle_laplacian_variance(gray: np.ndarray) -> float:
    """Direct per-pixel reference implementation."""
    h, w = gray.shape
    responses = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            responses.append(
                gray[y - 1, x] + gray[y + 1, x] + gray[y, x - 1] + gray[y, x + 1] - 4 * gray[y, x]
            )
    mean = sum(responses) / len(responses)
    return sum((r - mean) ** 2 for r in responses) / len(responses)


class TestLaplacianVariance:
    def test_constant_image_is_zero(self):
        assert laplacian_variance(np.full((8, 8), 77.0)) == 0.0

    def test_checkerboard_matches_oracle(self):
        gray = luma(checkerboard_frame(4, 4))
        assert laplacian_variance(gray) == pytest.approx(oracle_laplacian_variance(gray))

    def test_random_grids_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gray = rng.uniform(0, 255, size=(rng.integers(3, 12), rng.integers(3, 12)))
            assert laplacian_variance(gray) == pytest.approx(oracle_laplacian_variance(gray))

    def test_smoothing_lowers_score(self):
        sharp = luma(checkerboard_frame(8, 8))
        # Cheap 3x3 box blur as a stand-in Gaussian smoothing.
        padded = np.pad(sharp, 1, mode="edge")
        smooth = sum(
            padded[dy : dy + 8, dx : dx + 8] for dy in range(3) for dx in range(3)
        ) / 9.0
        assert laplacian_variance(smooth) < laplacian_variance(sharp)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(13)
        gray = rng.uniform(0, 200, size=(9, 9))
        assert laplacian_variance(gray + 40.0) == pytest.approx(laplacian_variance(gray))

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            laplacian_variance(np.zeros((2, 5)))


class TestBlurGate:
    def test_constant_frame_is_blurry(self):
        assert heuristic_blur_gate(solid_frame((128, 128, 128)), 10.0) is True

    def test_checkerboard_is_clear(self):
        assert heuristic_blur_gate(checkerboard_frame(), 10.0) is False

    def test_zero_threshold_never_blurry(self):
        assert heuristic_blur_gate(solid_frame((0, 0, 0)), 0.0) is False

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raster = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
            frame = Frame(0, 0.0, 6, 6, raster.tobytes())
            verdicts = [heuristic_blur_gate(frame, t) for t in (0.0, 1.0, 50.0, 1e4, 1e9)]
            # Once blurry at some threshold, blurry at every higher threshold.
            first_blurry = verdicts.index(True) if True in verdicts else len(verdicts)
            assert all(verdicts[i] for i in range(first_blurry, len(verdicts)))


def scorer_frames() -> list[Frame]:
    """Random frames from 3x3 up, 3xN and Nx3 strips, and 0/255 checkerboards of maximal contrast."""
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, int(rng.integers(3, 14)), int(rng.integers(3, 14)), i) for i in range(30)]
    frames += [random_frame(rng, 3, 3), random_frame(rng, 3, 17), random_frame(rng, 17, 3)]
    frames += [checkerboard_frame(w, h, tile=tile) for w, h, tile in ((3, 3, 1), (16, 16, 1), (15, 9, 1), (16, 12, 3))]
    frames += [solid_frame((255, 255, 255), 5, 4), solid_frame((1, 2, 3), 3, 3)]
    return frames


def frame_id(frame: Frame) -> str:
    return f"{frame.width}x{frame.height}"


class TestExactScorer:
    """``LaplacianVarianceScorer`` and ``HeuristicBlurGate`` against the float and Fraction oracles."""

    @pytest.mark.parametrize("frame", scorer_frames(), ids=frame_id)
    def test_equals_the_fraction_oracle_and_agrees_with_the_float_oracle(self, frame):
        score = LaplacianVarianceScorer().variance(frame)
        assert score == fraction_laplacian_variance(frame)
        # The float oracle rounds ~n terms in float64; 1e-12 relative is far above its error.
        assert float(score) == pytest.approx(laplacian_variance(luma(frame)), rel=1e-12, abs=1e-9)

    def test_sums_span_several_float64_runs(self):
        # 258 rows of 262 Laplacian values (67,596, the wrapped columns included): more than
        # eight 2^13-value float64 runs.
        rng = np.random.default_rng(3)
        for frame in (random_frame(rng, 262, 260), checkerboard_frame(262, 260)):
            assert LaplacianVarianceScorer().variance(frame) == fraction_laplacian_variance(frame)

    # Either side of one 2^13-value float64 run: frames 3 high hold ``width`` Laplacian values
    # (2^13 - 1 to 2^13 + 1 for widths 8191-8193) and ``width - 2`` interior pixels (2^13 - 1 to
    # 2^13 + 1 for widths 8193-8195); 130x66 has 2^13 interior pixels, 2733x5 has 2^13 + 1.
    # Either side of one 2^14-pixel RGB band: 127x129, 128x128 and 113x145.
    @pytest.mark.parametrize(
        "width, height",
        [(w, 3) for w in range(8191, 8196)] + [(3, 8193), (130, 66), (2733, 5), (127, 129), (128, 128), (113, 145)],
        ids=str,
    )
    def test_counts_at_the_run_and_band_bounds(self, width, height):
        frame = random_frame(np.random.default_rng(width * height), width, height)
        assert LaplacianVarianceScorer().variance(frame) == fraction_laplacian_variance(frame)

    @pytest.mark.parametrize("width, height", [(1920, 1080), (3840, 2160), (1921, 1081)])
    def test_maximal_contrast_checkerboard_matches_the_closed_form(self, width, height):
        # Every interior L' of a 0/255 checkerboard is +-4 * 255000: + on black, - on white. So
        # S2 = n * 1020000^2, S1 = 1020000 * (black - white), and each full float64 run's sum of
        # squares sits at its bound, 2^13 * 1020000^2.
        frame = checkerboard_frame(width, height)
        # Interior pixel (x, y) is white when x + y is odd; x runs over 1..width-2.
        odd_x, odd_y = (width - 1) // 2, (height - 1) // 2
        even_x, even_y = width - 2 - odd_x, height - 2 - odd_y
        white = odd_x * even_y + even_x * odd_y
        n = (width - 2) * (height - 2)
        s1, s2 = 1_020_000 * (n - 2 * white), n * 1_020_000**2
        assert LaplacianVarianceScorer().variance(frame) == Fraction(n * s2 - s1 * s1, n * n * 1_000_000)

    @pytest.mark.parametrize("frame", scorer_frames(), ids=frame_id)
    def test_verdict_is_exact_at_the_threshold_edge(self, frame):
        exact = fraction_laplacian_variance(frame)
        floated = laplacian_variance(luma(frame))
        gate = HeuristicBlurGate()
        for value in (float(exact), floated):
            for threshold in (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)):
                gate.threshold = threshold
                expected = exact < Fraction(threshold)
                assert gate.is_blurry(frame) is expected
                assert heuristic_blur_gate(frame, threshold) is expected
        # Not vacuous: just above the exact variance the frame is blurry.
        gate.threshold = math.nextafter(float(exact), math.inf)
        assert gate.is_blurry(frame) is True

    def test_one_scorer_alternating_between_two_shapes(self):
        rng = np.random.default_rng(5)
        frames = [random_frame(rng, *shape, index=i) for i, shape in enumerate([(9, 7), (4, 11)] * 3)]
        scorer = LaplacianVarianceScorer()
        for frame in frames:
            assert scorer.variance(frame) == fraction_laplacian_variance(frame)

    def test_same_shape_frames_reuse_the_work_buffers(self):
        rng = np.random.default_rng(9)
        first, second = (random_frame(rng, 384, 288, i) for i in range(2))
        gate = HeuristicBlurGate()
        tracemalloc.start()
        try:
            gate.is_blurry(first)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gate.is_blurry(second)
            _, second_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The first call allocates the buffers, so tracing does see NumPy's allocations.
        assert held > 1 << 20
        assert second_peak - held < 64 << 10

    @pytest.mark.parametrize("width, height", [(2, 2), (1, 1), (2, 5), (5, 2)])
    def test_frames_under_3x3_are_a_media_format_error(self, width, height):
        frame = solid_frame((9, 9, 9), width=width, height=height)
        with pytest.raises(MediaFormatError, match="at least 3x3"):
            HeuristicBlurGate().is_blurry(frame)
        with pytest.raises(MediaFormatError, match="at least 3x3"):
            heuristic_blur_gate(frame)


class TestFrameInvariants:
    def test_payload_length_checked(self):
        with pytest.raises(ValueError):
            Frame(0, 0.0, 2, 2, bytes(5))


class TestDirectoryFrameStream:
    def _write_stream(self, tmp_path, frames, fps=60.0):
        manifest = {
            "video_id": "vid",
            "fps": fps,
            "width": frames[0].width,
            "height": frames[0].height,
            "frame_count": len(frames),
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        for i, frame in enumerate(frames):
            (tmp_path / f"{i:06d}.ppm").write_bytes(
                encode_ppm(frame.width, frame.height, frame.pixels)
            )

    def test_iterates_in_order_with_timestamps(self, tmp_path):
        frames = [solid_frame((i, i, i), index=i) for i in range(5)]
        self._write_stream(tmp_path, frames, fps=50.0)
        stream = DirectoryFrameStream(tmp_path)
        got = [stream.read_frame(i) for i in range(stream.frame_count)]
        assert [f.frame_index for f in got] == [0, 1, 2, 3, 4]
        assert [f.timestamp_ms for f in got] == [i * 20.0 for i in range(5)]

    def test_default_fps_matches_paper_window(self, tmp_path):
        # 6 frames must span 100 ms at the default rate.
        frames = [solid_frame((0, 0, 0), index=i) for i in range(7)]
        self._write_stream(tmp_path, frames, fps=60.0)
        stream = DirectoryFrameStream(tmp_path)
        assert stream.read_frame(6).timestamp_ms - stream.read_frame(0).timestamp_ms == 100.0

    def test_fps_override(self, tmp_path):
        frames = [solid_frame((0, 0, 0), index=i) for i in range(2)]
        self._write_stream(tmp_path, frames, fps=60.0)
        stream = DirectoryFrameStream(tmp_path, fps_override=30.0)
        assert stream.fps == 30.0

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MediaFormatError, match="manifest"):
            DirectoryFrameStream(tmp_path)

    def test_size_mismatch_rejected(self, tmp_path):
        frames = [solid_frame((0, 0, 0))]
        self._write_stream(tmp_path, frames)
        (tmp_path / "000000.ppm").write_bytes(encode_ppm(2, 2, bytes(12)))
        with pytest.raises(MediaFormatError, match="manifest declares"):
            DirectoryFrameStream(tmp_path).read_frame(0)


MANIFEST = {"video_id": "vid", "fps": 60.0, "width": 384, "height": 288, "frame_count": 600}

# A mistyped or out-of-range manifest field, and the error it must raise.
BAD_MANIFEST_FIELDS = [
    ("video_id", 5, "video_id must be of type str"),
    ("video_id", None, "video_id must be of type str"),
    ("fps", "60", "fps must be of type int or float"),
    ("fps", True, "fps must be of type int or float"),
    ("fps", None, "fps must be of type int or float"),
    ("fps", 0, "fps must be positive"),
    ("fps", -1.5, "fps must be positive"),
    ("fps", math.inf, "fps must be a finite number"),
    ("fps", 10**400, "too large"),
    ("width", 7.9, "width must be of type int"),
    ("width", 0, "width and height must be at least 1"),
    ("height", True, "height must be of type int"),
    ("height", -2, "width and height must be at least 1"),
    ("frame_count", "600", "frame_count must be of type int"),
    ("frame_count", 600.0, "frame_count must be of type int"),
    ("frame_count", -1, "frame_count must be non-negative"),
]


def load_manifest(raw) -> StreamInfo:
    return from_json(StreamInfo, raw, "manifest", MediaFormatError)


class TestStreamManifest:
    def test_loads_exact_values(self):
        assert load_manifest(MANIFEST) == StreamInfo("vid", 60.0, 384, 288, 600)
        assert to_json(load_manifest(MANIFEST)) == MANIFEST

    def test_integer_fps_and_empty_stream_accepted(self):
        info = load_manifest({**MANIFEST, "fps": 25, "frame_count": 0})
        assert (info.fps, type(info.fps), info.frame_count) == (25.0, float, 0)

    @pytest.mark.parametrize(
        "field, value, match", BAD_MANIFEST_FIELDS, ids=[f"{field}={value!r:.12}" for field, value, _ in BAD_MANIFEST_FIELDS]
    )
    def test_mistyped_or_out_of_range_field_rejected(self, field, value, match):
        with pytest.raises(MediaFormatError, match=match):
            load_manifest({**MANIFEST, field: value})

    @pytest.mark.parametrize("field", sorted(MANIFEST))
    def test_missing_field_rejected(self, field):
        with pytest.raises(MediaFormatError, match=field):
            load_manifest({k: v for k, v in MANIFEST.items() if k != field})

    def test_directory_stream_rejects_a_coerced_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({**MANIFEST, "frame_count": "600"}))
        with pytest.raises(MediaFormatError, match="frame_count"):
            DirectoryFrameStream(tmp_path)
