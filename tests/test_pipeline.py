"""Pipeline behaviour pinned end to end: golden results, mode equivalence,
size-aware B invocation, latency accounting, and the parallel join."""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from time import perf_counter

import pytest

from scopeline import cli, pipeline as pipeline_module
from scopeline.annotations import FrameAnnotation, LabeledBox, annotations_by_frame, load_annotations
from scopeline.backends.synthetic import SyntheticDetectorConfig, synthetic_detect
from scopeline.datagen import DatasetSpec, FramePlan, plan_video, render_frame, write_dataset
from scopeline.ensemble import EnsembleConfig
from scopeline.errors import BackendError
from scopeline.geometry import BoundingBox
from scopeline.media import DirectoryFrameStream
from scopeline.backends.external import SocketTransport
from scopeline.pipeline import GateConfig, Pipeline, PipelineConfig

from conftest import MemoryFrameStream, checkerboard_frame, oracle_is_small

# Polyp edges of 10-14 px straddle the size-aware threshold of 0.1 x 120 = 12 px,
# so detector A's jitter decides frame by frame whether B runs.
SPEC = DatasetSpec(
    videos=1,
    frames_per_video=40,
    polyps_per_video=2,
    blur_fraction=0.25,
    seed=5,
    width=160,
    height=120,
    polyp_edge_range=(10, 14),
)

STUB = [sys.executable, "-m", "scopeline.backends.stub"]


def synthetic(seed: int) -> dict:
    return {"kind": "synthetic", "seed": seed, "p_tp": 0.9, "fp_rate": 0.5, "jitter_px": 2.0}


def stub_b() -> dict:
    """Stub detector B answering every frame with the dataset's polyp boxes."""
    track_boxes = next(plan.boxes for plan in plan_video(SPEC, 0) if not plan.blurry)
    command = list(STUB)
    for box in track_boxes:
        command += ["--box", f"{box.x},{box.y},{box.w},{box.h},0.7"]
    return {"kind": "external", "transport": "subprocess", "command": command}


AND_CONFIG = {"detector_a": synthetic(1), "detector_b": synthetic(2)}
SIZE_AWARE_CONFIG = {
    "detector_a": synthetic(1),
    "detector_b": synthetic(2),
    "ensemble": {"mode": "size_aware"},
}

# sha256 of results.jsonl, recorded before the stage-timer refactor.
GOLDEN = {
    "and-sequential": "555c4b84e7483d699654780bc81d5b3e6dcdcc863f2bf21493ffdf2d61cbff83",
    "and-parallel": "555c4b84e7483d699654780bc81d5b3e6dcdcc863f2bf21493ffdf2d61cbff83",
    "size-aware-stub": "86562e5445580c1fecacf08b271e98d1eceece0f21f6b6d8b672b74725025772",
}


@pytest.fixture(scope="module")
def video_dir(tmp_path_factory) -> Path:
    [directory] = write_dataset(SPEC, tmp_path_factory.mktemp("dataset"))
    return directory


def run_cli(workdir: Path, raw_config: dict, video_dir: Path, annotations: Path | None = None) -> Path:
    """Run ``video_dir`` into ``workdir / "out"``, with its dataset's annotations unless others are named."""
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(raw_config), encoding="utf-8")
    out = workdir / "out"
    annotations = annotations or video_dir.parent.parent / "annotations.jsonl"
    code = cli.main(["run", "--config", str(config_path), "--input", str(video_dir),
                     "--annotations", str(annotations), "--output", str(out)])
    assert code == 0
    return out


def digest(out: Path) -> str:
    return hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, raw_config",
    [
        ("and-sequential", {**AND_CONFIG, "execution": "sequential"}),
        ("and-parallel", {**AND_CONFIG, "execution": "parallel"}),
        ("size-aware-stub", {**SIZE_AWARE_CONFIG, "detector_b": stub_b()}),
    ],
)
def test_results_match_golden_digest(tmp_path, video_dir, name, raw_config):
    out = run_cli(tmp_path, raw_config, video_dir)
    assert digest(out) == GOLDEN[name]


def test_sequential_and_parallel_rows_identical(tmp_path, video_dir):
    rows = {}
    for mode in ("sequential", "parallel"):
        (tmp_path / mode).mkdir()
        out = run_cli(tmp_path / mode, {**AND_CONFIG, "execution": mode}, video_dir)
        rows[mode] = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(rows["sequential"]) == SPEC.frames_per_video
    assert rows["sequential"] == rows["parallel"]


def test_size_aware_calls_b_exactly_on_frames_with_a_large_a_box(video_dir):
    config = PipelineConfig.from_dict(SIZE_AWARE_CONFIG)
    threshold = config.ensemble.short_edge_ratio_threshold
    stream = DirectoryFrameStream(video_dir)
    truth = annotations_by_frame(
        load_annotations(video_dir.parent.parent / "annotations.jsonl"), stream.video_id
    )
    called, expected = [], []
    with Pipeline(config, truth) as pipeline:
        for plan in plan_video(SPEC, 0):
            frame = stream.read_frame(plan.frame_index)
            result = pipeline.process_frame(frame)
            called.append(int("detector_b" in result.stage_latencies))
            boxes_a = [] if plan.blurry else synthetic_detect(
                config.detector_a, plan.frame_index, truth.get(plan.frame_index), SPEC.width, SPEC.height
            )
            expected.append(
                int(any(not oracle_is_small(sb.box, SPEC.width, SPEC.height, threshold) for sb in boxes_a))
            )
    assert called == expected
    clear = sum(not plan.blurry for plan in plan_video(SPEC, 0))
    assert 0 < sum(called) < clear


POLYP = BoundingBox(40, 30, 40, 40)


def profiled_pipeline(execution: str, mode: str, truth: dict) -> Pipeline:
    """Gate, detector A and detector B charged 3, 20 and 20 simulated ms."""
    return Pipeline(
        PipelineConfig(
            detector_a=SyntheticDetectorConfig(seed=1, simulated_latency_ms=20.0),
            detector_b=SyntheticDetectorConfig(seed=2, simulated_latency_ms=20.0),
            gate=GateConfig(simulated_latency_ms=3.0),
            ensemble=EnsembleConfig(mode=mode),
            execution=execution,
        ),
        truth,
    )


@pytest.mark.parametrize(
    "execution, mode, blurry, polyp, simulated_ms, b_stage",
    [
        ("sequential", "and", False, True, 43.0, True),
        ("parallel", "and", False, True, 23.0, True),
        ("sequential", "and", True, True, 3.0, False),
        ("parallel", "and", True, True, 3.0, False),
        ("sequential", "size_aware", False, True, 43.0, True),
        ("sequential", "size_aware", False, False, 23.0, False),
        ("parallel", "size_aware", False, False, 23.0, False),
    ],
)
def test_total_wall_is_simulated_cost_plus_real_time(execution, mode, blurry, polyp, simulated_ms, b_stage):
    boxes = (POLYP,) if polyp and not blurry else ()
    frame = render_frame(FramePlan(0, blurry, boxes), SPEC)
    truth = FrameAnnotation("video-000", 0, tuple(LabeledBox(b) for b in boxes))
    with profiled_pipeline(execution, mode, {0: truth}) as pipeline:
        pipeline.process_frame(frame)  # warm the thread pool
        start = perf_counter()
        result = pipeline.process_frame(frame)
        elapsed_ms = (perf_counter() - start) * 1000.0
    total = result.stage_latencies["total_wall"]
    assert simulated_ms <= total <= simulated_ms + elapsed_ms
    assert ("detector_b" in result.stage_latencies) == b_stage
    assert result.blurry == blurry


class RaisingDetector:
    source = "detector-A"

    def detect(self, frame):
        raise BackendError("detector A failed")


class SlowDetector:
    """Sleeps in ``detect`` and records the most calls ever in flight at once."""

    source = "detector-B"

    def __init__(self, delay_s: float):
        self.calls = 0
        self.delay_s = delay_s
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def detect(self, frame):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.delay_s)
        with self._lock:
            self.in_flight -= 1
        return []


def test_parallel_failure_waits_for_the_other_detector():
    config = PipelineConfig(
        detector_a=SyntheticDetectorConfig(seed=1),
        detector_b=SyntheticDetectorConfig(seed=2),
        gate=GateConfig(kind="disabled"),
        execution="parallel",
    )
    frames = [render_frame(FramePlan(i, False, ()), SPEC) for i in range(20)]
    slow = SlowDetector(delay_s=0.01)
    with Pipeline(config) as pipeline:
        pipeline.detector_a = RaisingDetector()
        pipeline.detector_b = slow
        report = pipeline.process_stream(MemoryFrameStream(frames), lambda result: None)
    assert report["failed_frames"] == 20
    assert slow.calls == 20
    assert slow.max_in_flight == 1


def test_run_memory_is_8_bytes_a_stage_sample():
    frames = 4000
    stream = MemoryFrameStream([checkerboard_frame(16, 16)] * frames)  # clear: every stage runs
    config = PipelineConfig(detector_a=SyntheticDetectorConfig(seed=1), detector_b=SyntheticDetectorConfig(seed=2))
    with Pipeline(config) as pipeline:
        tracemalloc.start()
        try:
            report = pipeline.process_stream(stream, lambda result: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    stages = report["stages"]
    assert sorted(stages) == ["detector_a", "detector_b", "ensemble", "gate", "total_wall"]
    assert all(stats["count"] == frames for stats in stages.values())
    # Five stages a frame: about 115 bytes a frame as float arrays, 185 as lists of float objects.
    assert peak < 150 * frames


def test_failed_build_closes_the_backends_already_started(tmp_path, monkeypatch):
    started = []

    class RecordingTransport(SocketTransport):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(pipeline_module, "SocketTransport", RecordingTransport)
    config = PipelineConfig.from_dict({
        "gate": {"kind": "external", "external": {"command": STUB}},
        "detector_a": {"kind": "external", "command": STUB},
        "detector_b": {"kind": "external", "command": [str(tmp_path / "absent-detector")]},
    })
    with pytest.raises(BackendError, match="cannot start"):
        Pipeline(config)
    assert len(started) == 2
    # Both stub children were reaped: close() waited for them.
    assert all(transport._proc.returncode is not None for transport in started)

def test_manifest_replay_reproduces_results_and_fps(tmp_path):
    [video_dir] = write_dataset(SPEC, tmp_path / "dataset")
    # Outside the input tree and not named annotations.jsonl, so only the
    # manifest can lead a replay to it.
    annotations = tmp_path / "truth.jsonl"
    (tmp_path / "dataset" / "annotations.jsonl").rename(annotations)
    (tmp_path / "first").mkdir()
    first = run_cli(tmp_path / "first", AND_CONFIG, video_dir, annotations)
    replay = tmp_path / "replay"
    assert cli.main(["run", "--config", str(first / "manifest.json"), "--output", str(replay)]) == 0
    assert (replay / "results.jsonl").read_bytes() == (first / "results.jsonl").read_bytes()
    manifest = json.loads((replay / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["input"]["fps"] == SPEC.fps
    assert manifest["annotations"] == str(annotations)


def test_replay_of_a_manifest_with_a_seeds_key(tmp_path, video_dir):
    # Earlier runs also recorded each synthetic seed under "seeds"; replay ignores that copy.
    first = run_cli(tmp_path, AND_CONFIG, video_dir)
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    manifest["seeds"] = {"detector_a": 1, "detector_b": 2}
    old = tmp_path / "old-manifest.json"
    old.write_text(json.dumps(manifest), encoding="utf-8")
    replay = tmp_path / "replay"
    assert cli.main(["run", "--config", str(old), "--output", str(replay)]) == 0
    assert (replay / "results.jsonl").read_bytes() == (first / "results.jsonl").read_bytes()


def test_replay_rejects_a_non_numeric_recorded_fps(tmp_path, video_dir):
    first = run_cli(tmp_path, AND_CONFIG, video_dir)
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    manifest["input"]["fps"] = "fast"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")
    assert cli.main(["run", "--config", str(edited), "--output", str(tmp_path / "replay")]) == 2
