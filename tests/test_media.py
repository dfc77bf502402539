"""PPM codec, the exact blur scorer against float and Fraction oracles, and frame streams."""

from __future__ import annotations

import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from scopeline import media
from scopeline.backends.base import HeuristicBlurGate
from scopeline.codec import from_json, to_json
from scopeline.datagen import DatasetSpec, plan_video, render_frame
from scopeline.errors import MediaFormatError
from scopeline.media import (
    DirectoryFrameStream,
    Frame,
    LaplacianVarianceScorer,
    StreamInfo,
    decode_ppm,
    encode_ppm,
    float32_dot_margin,
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


def early_exit_frames() -> list[Frame]:
    """Frames for the gate's centre probe (16 Laplacian rows, so at least 19 pixels high).

    Texture only in the first rows, only in the last rows or only in one corner leaves the
    centre strip flat, so the probe cannot settle them. Then frames shorter than the probe
    and just tall enough for it, single-Laplacian-row strips, and strips of 16 rows of 511,
    512 and 513 values: one 2^13-value float64 run is exactly 16 rows of 512.
    """
    rng = np.random.default_rng(17)
    frames = []
    for rows, cols in ((slice(0, 4), slice(None)), (slice(-4, None), slice(None)), (slice(-6, None), slice(-6, None))):
        raster = np.full((40, 24, 3), 90, np.uint8)
        raster[rows, cols] = rng.integers(0, 256, raster[rows, cols].shape)
        frames.append(Frame(0, 0.0, 24, 40, raster.tobytes()))
    frames += [random_frame(rng, 9, height) for height in (17, 18, 19, 20)]
    frames += [random_frame(rng, 3, 3), random_frame(rng, 40, 3), random_frame(rng, 3, 40)]
    frames += [random_frame(rng, width, 24) for width in (511, 512, 513)]
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
        exact = Fraction(n * s2 - s1 * s1, n * n * 1_000_000)
        assert LaplacianVarianceScorer().variance(frame) == exact
        # The gates' verdicts at the exact variance's float and either side of it.
        gate = HeuristicBlurGate()
        value = float(exact)
        for threshold in (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)):
            gate.threshold = threshold
            expected = exact < Fraction(threshold)
            assert gate.is_blurry(frame) is expected
            assert heuristic_blur_gate(frame, threshold) is expected
        assert expected is True

    @pytest.mark.parametrize("frame", scorer_frames() + early_exit_frames(), ids=frame_id)
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

    # 2x40 is tall enough for the gate's centre probe.
    @pytest.mark.parametrize("width, height", [(2, 2), (1, 1), (2, 5), (5, 2), (2, 40)])
    def test_frames_under_3x3_are_a_media_format_error(self, width, height):
        frame = solid_frame((9, 9, 9), width=width, height=height)
        with pytest.raises(MediaFormatError, match="at least 3x3"):
            HeuristicBlurGate().is_blurry(frame)
        with pytest.raises(MediaFormatError, match="at least 3x3"):
            heuristic_blur_gate(frame)


class TestEarlyExitGate:
    """``HeuristicBlurGate``'s centre probe: its exact clear verdict and every way past it."""

    @pytest.mark.parametrize("frame", [f for f in early_exit_frames() if f.height >= 19], ids=frame_id)
    def test_probe_fires_exactly_at_the_centre_strip_bound(self, frame):
        # The probe scores the 16 Laplacian rows in the middle of the frame (the upper middle
        # when the count left over is odd), leaving out the first and last column.
        first = (frame.height - 2 - 16) // 2 + 1
        gray = [[299 * r + 587 * g + 114 * b for r, g, b in row] for row in rgb(frame).tolist()]
        strip = [
            gray[y - 1][x] + gray[y + 1][x] + gray[y][x - 1] + gray[y][x + 1] - 4 * gray[y][x]
            for y in range(first, first + 16)
            for x in range(1, frame.width - 1)
        ]
        m, n = len(strip), (frame.width - 2) * (frame.height - 2)
        spread = m * sum(v * v for v in strip) - sum(strip) ** 2
        bound = float(Fraction(spread, n * n * 1_000_000))
        thresholds = [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
        scorer = LaplacianVarianceScorer()
        scorer.variance(frame)  # the probe shares the full pass's buffers; it must not read what that left
        verdicts = [scorer.centre_proves_clear(frame, t) for t in thresholds]
        assert verdicts == [spread >= Fraction(t) * n * n * 1_000_000 for t in thresholds]
        if spread:
            assert verdicts[0] and not verdicts[2]
        exact = fraction_laplacian_variance(frame)
        for threshold in thresholds:
            assert HeuristicBlurGate(threshold).is_blurry(frame) is (exact < threshold)

    def test_a_clear_datagen_frame_is_decided_without_the_full_pass(self, monkeypatch):
        spec = DatasetSpec(frames_per_video=2, polyps_per_video=1, blur_fraction=0.5, seed=7)
        plans = plan_video(spec, 0)
        clear, blurry = (render_frame(next(p for p in plans if p.blurry is b), spec) for b in (False, True))
        clear_variance = LaplacianVarianceScorer().variance(clear)
        exact_sums = LaplacianVarianceScorer._exact_sums

        def probe_sums_only(lap, wide):
            if len(lap) == (spec.height - 2) * spec.width:
                raise AssertionError("full pass taken")
            return exact_sums(lap, wide)

        monkeypatch.setattr(LaplacianVarianceScorer, "_exact_sums", staticmethod(probe_sums_only))
        gate = HeuristicBlurGate()
        assert gate.is_blurry(clear) is False
        # The float32 screen proves the blurry frame without the exact sums too.
        assert gate.is_blurry(blurry) is True
        # Not vacuous: at the clear frame's own variance the gate does reach the patched full pass.
        gate.threshold = float(clear_variance)
        with pytest.raises(AssertionError, match="full pass taken"):
            gate.is_blurry(clear)

    @pytest.mark.parametrize(
        "threshold, blurry", [(math.inf, True), (-math.inf, False), (math.nan, False), (-1.0, False), (0.0, False)]
    )
    def test_non_finite_and_non_positive_thresholds(self, threshold, blurry):
        # 8x8 frames are too short for the probe; 8x40 ones have it.
        for height in (8, 40):
            for frame in (checkerboard_frame(8, height), solid_frame((128, 128, 128), 8, height)):
                assert heuristic_blur_gate(frame, threshold) is blurry
                assert HeuristicBlurGate(threshold).is_blurry(frame) is blurry
                # The threshold is read on every call, so a reassigned one takes effect.
                gate = HeuristicBlurGate()
                gate.is_blurry(frame)
                gate.threshold = threshold
                assert gate.is_blurry(frame) is blurry


def bordered_texture_frame(rng: np.random.Generator, width: int, height: int) -> Frame:
    """Random texture inside a flat 2-pixel border: every Laplacian sum ``S1`` telescopes to 0.

    So the spread is exactly ``n S2``, the quantity the float32 screen bounds, and a screen
    without its error margin calls a frame just above the threshold blurry when its dot rounds down.
    """
    raster = np.full((height, width, 3), 77, np.uint8)
    raster[2:-2, 2:-2] = rng.integers(0, 256, (height - 4, width - 4, 3))
    return Frame(0, 0.0, width, height, raster.tobytes())


def screen_frames() -> list[Frame]:
    rng = np.random.default_rng(27)
    frames = [bordered_texture_frame(rng, w, h) for w, h in ((384, 288), (384, 288), (200, 150), (97, 61), (33, 21))]
    return frames + [random_frame(rng, w, h) for w, h in ((384, 288), (64, 48), (12, 9))]


class TestFloat32Screen:
    """The gate's float32 proof of a blurry frame, against the Fraction oracle."""

    @pytest.mark.parametrize("frame", screen_frames(), ids=frame_id)
    def test_verdict_equals_the_oracle_near_the_threshold(self, frame, monkeypatch):
        exact = fraction_laplacian_variance(frame)
        value = float(exact)
        full = (frame.height - 2) * frame.width
        exact_sums = LaplacianVarianceScorer._exact_sums
        full_sums = []

        def counted(lap, wide):
            full_sums.append(len(lap) == full)
            return exact_sums(lap, wide)

        monkeypatch.setattr(LaplacianVarianceScorer, "_exact_sums", staticmethod(counted))
        gate = HeuristicBlurGate()
        near = (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf), value * 0.995)
        for threshold in (*near, value * 1.005, value * 1.05):
            gate.threshold = threshold
            full_sums.clear()
            assert gate.is_blurry(frame) is (exact < threshold)
            if threshold in near:
                # No float32 bound separates a threshold this near: the exact sums decide.
                assert full_sums[-1:] == [True]
        # Not vacuous: 5% above its variance, a frame of these sizes is proved blurry without them.
        assert True not in full_sums

    def test_margin_at_the_largest_count_and_past_it(self):
        d = 1 << 24
        assert float32_dot_margin(0) == (d - 1, d - 2)
        # 2g = D - 2: the last count with a margin; 2g = D: none.
        assert float32_dot_margin(d // 2 - 2) == (d // 2 + 1, 2)
        assert float32_dot_margin(d // 2 - 1) is None
        assert float32_dot_margin(d) is None


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

    def test_fps_comes_from_the_manifest_only(self, tmp_path):
        frames = [solid_frame((0, 0, 0), index=i) for i in range(4)]
        self._write_stream(tmp_path, frames, fps=30.0)
        stream = DirectoryFrameStream(tmp_path)
        assert (stream.fps, stream.read_frame(3).timestamp_ms) == (30.0, 100.0)
        with pytest.raises(TypeError):
            DirectoryFrameStream(tmp_path, fps_override=60.0)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MediaFormatError, match="manifest"):
            DirectoryFrameStream(tmp_path)

    def test_size_mismatch_rejected(self, tmp_path):
        frames = [solid_frame((0, 0, 0))]
        self._write_stream(tmp_path, frames)
        (tmp_path / "000000.ppm").write_bytes(encode_ppm(2, 2, bytes(12)))
        with pytest.raises(MediaFormatError, match="manifest declares"):
            DirectoryFrameStream(tmp_path).read_frame(0)


# Every fault of ``TestPpmCodec``, as a frame file: (declared width, height, file bytes).
PPM_FAULTS = {
    "unsupported-maxval": (1, 1, b"P6\n1 1\n65535\n" + bytes(6)),
    "bad-magic": (1, 1, b"P5\n1 1\n255\n\x00"),
    "truncated-raster": (2, 2, b"P6\n2 2\n255\n" + bytes(5)),
    "missing-header-token": (17, 1, b"P6\n17"),
    "non-space-after-maxval": (1, 1, b"P6\n1 1\n255x" + bytes(3)),
    "maxval-007": (1, 1, b"P6 1 1 007\n" + bytes(3)),
    "zero-extent": (1, 1, b"P6\n0 1\n255\n"),
    "empty-file": (1, 1, b""),
    # A fault past the bytes read ahead for the header.
    "maxval-after-a-long-comment": (1, 1, b"P6\n#" + b"c" * 300 + b"\n1 1\n65535\n" + bytes(6)),
}


class TestReadFrameFile:
    """``read_frame``'s single read of a frame file against ``decode_ppm`` of the whole file."""

    def _stream(self, tmp_path, width: int, height: int, data: bytes) -> tuple[DirectoryFrameStream, object]:
        manifest = {"video_id": "vid", "fps": 60.0, "width": width, "height": height, "frame_count": 1}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        path = tmp_path / "000000.ppm"
        path.write_bytes(data)
        return DirectoryFrameStream(tmp_path), path

    @pytest.mark.parametrize("fault", list(PPM_FAULTS), ids=list(PPM_FAULTS))
    def test_a_faulty_file_raises_decode_ppms_message_after_its_path(self, tmp_path, fault):
        width, height, data = PPM_FAULTS[fault]
        with pytest.raises(MediaFormatError) as decoded:
            decode_ppm(data)
        stream, path = self._stream(tmp_path, width, height, data)
        with pytest.raises(MediaFormatError) as read:
            stream.read_frame(0)
        assert str(read.value) == f"{path}: {decoded.value}"

    def test_a_truncated_raster_keeps_its_offsets(self, tmp_path):
        stream, path = self._stream(tmp_path, 4, 3, encode_ppm(4, 3, bytes(36))[:-7])
        with pytest.raises(MediaFormatError) as read:
            stream.read_frame(0)
        assert str(read.value) == f"{path}: truncated raster: need 36 bytes from byte 11, file ends at byte 40"

    def test_trailing_bytes_are_ignored_as_decode_ppm_ignores_them(self, tmp_path):
        pixels = bytes(range(36))
        stream, _ = self._stream(tmp_path, 4, 3, encode_ppm(4, 3, pixels) + b"trailing")
        assert stream.read_frame(0).pixels == pixels

    # The header's last byte, the whitespace after maxval, from just inside the bytes read
    # ahead to just past them; a comment of 300 bytes runs far past them.
    @pytest.mark.parametrize("end", [media._HEAD_BYTES + k for k in range(-3, 4)] + [310], ids=str)
    def test_a_header_past_the_bytes_read_ahead_is_read_whole(self, tmp_path, end):
        pixels = bytes(range(6))
        tail = b"\n2 1\n255\n"
        header = b"P6" + b"#" + b"c" * (end + 1 - len(tail) - 3) + tail
        assert len(header) == end + 1
        stream, _ = self._stream(tmp_path, 2, 1, header + pixels)
        frame = stream.read_frame(0)
        assert (frame.width, frame.height, frame.pixels) == (2, 1, pixels)

    def test_digits_cut_by_the_bytes_read_ahead_are_read_whole(self, tmp_path):
        # Width 12 with its "1" the last byte read ahead: a cut header must not read as width 1.
        pixels = bytes(range(36))
        header = b"P6" + b" " * (media._HEAD_BYTES - 3) + b"12 1\n255\n"
        stream, _ = self._stream(tmp_path, 12, 1, header + pixels)
        assert stream.read_frame(0).pixels == pixels
        # The same file declared 1x1 is refused as today, by the whole file's size.
        stream, path = self._stream(tmp_path, 1, 1, header + pixels)
        with pytest.raises(MediaFormatError, match="raster is 12x1, manifest declares 1x1"):
            stream.read_frame(0)

    def test_a_directory_in_place_of_a_frame_file(self, tmp_path):
        stream, path = self._stream(tmp_path, 1, 1, b"")
        path.unlink()
        path.mkdir()
        with pytest.raises(MediaFormatError, match=f"cannot read frame file {re.escape(str(path))}: "):
            stream.read_frame(0)


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
    ("frame_count", 0, "frame_count must be at least 1"),
    ("frame_count", -1, "frame_count must be at least 1"),
]


def load_manifest(raw) -> StreamInfo:
    return from_json(StreamInfo, raw, "manifest", MediaFormatError)


class TestStreamManifest:
    def test_loads_exact_values(self):
        assert load_manifest(MANIFEST) == StreamInfo("vid", 60.0, 384, 288, 600)
        assert to_json(load_manifest(MANIFEST)) == MANIFEST

    def test_integer_fps_and_one_frame_stream_accepted(self):
        info = load_manifest({**MANIFEST, "fps": 25, "frame_count": 1})
        assert (info.fps, type(info.fps), info.frame_count) == (25.0, float, 1)

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
