"""CLI exit codes, atomic output files, golden eval outputs, and byte-reproducible synthetic datasets."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from scopeline import cli
from scopeline.annotations import annotations_by_frame, load_annotations
from scopeline.backends import external
from scopeline.datagen import DatasetSpec, write_dataset
from scopeline.media import MANIFEST_NAME, encode_ppm, frame_filename

from conftest import NEVER_ANSWERS, NEVER_READS, child_pids

SPEC = DatasetSpec(videos=1, frames_per_video=8, polyps_per_video=1, blur_fraction=0.25, seed=3,
                   width=32, height=24, polyp_edge_range=(4, 12))
CONFIG = {"detector_a": {"kind": "synthetic", "seed": 1}, "detector_b": {"kind": "synthetic", "seed": 2}}


@pytest.fixture
def dataset(tmp_path) -> Path:
    """A dataset root holding ``videos/video-000`` and ``annotations.jsonl``."""
    write_dataset(SPEC, tmp_path / "dataset")
    return tmp_path / "dataset"


def write_config(path: Path, config) -> Path:
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    return path


def run(tmp_path: Path, dataset: Path, *extra: str, config=CONFIG, annotations: Path | None = None) -> int:
    """Run the dataset's video-000 into ``tmp_path / "out"``, with the dataset's annotations unless others are named."""
    config_path = write_config(tmp_path / "config.json", config)
    annotations = annotations or dataset / "annotations.jsonl"
    return cli.main(["run", "--config", str(config_path), "--input", str(dataset / "videos" / "video-000"),
                     "--annotations", str(annotations), "--output", str(tmp_path / "out"), *extra])


def test_good_run_exits_0_and_leaves_no_tmp(tmp_path, dataset):
    assert run(tmp_path, dataset) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["latency_report.json", "manifest.json", "results.jsonl"]
    assert len((out / "results.jsonl").read_text(encoding="utf-8").splitlines()) == SPEC.frames_per_video


def test_eval_exits_0_and_leaves_no_tmp(tmp_path, dataset):
    assert run(tmp_path, dataset) == 0
    metrics = tmp_path / "metrics"
    code = cli.main(["eval", "--results", str(tmp_path / "out"),
                     "--annotations", str(dataset / "annotations.jsonl"), "--output", str(metrics)])
    assert code == 0
    assert sorted(p.name for p in metrics.iterdir()) == [
        "clips.csv", "fp_cdf.csv", "metrics.json", "recall_curve.csv"
    ]


@pytest.mark.parametrize(
    "config",
    [
        "{not json",
        {**CONFIG, "unknown_key": 1},
        {"detector_a": {"kind": "synthetic", "seed": 1}},
    ],
    ids=["invalid-json", "unknown-key", "missing-key"],
)
def test_bad_config_exits_2(tmp_path, dataset, config):
    assert run(tmp_path, dataset, config=config) == 2
    assert not (tmp_path / "out" / "results.jsonl").exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, dataset, capsys):
    (tmp_path / "config.json").write_bytes(b"\xff{}")
    code = cli.main(["run", "--config", str(tmp_path / "config.json"),
                     "--input", str(dataset / "videos" / "video-000"), "--output", str(tmp_path / "out")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_jitter_past_its_bound_exits_2(tmp_path, dataset, capsys):
    config = {**CONFIG, "detector_a": {"kind": "synthetic", "seed": 1, "jitter_px": 1.7e308}}
    assert run(tmp_path, dataset, config=config) == 2
    assert "jitter_px" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_2(tmp_path, dataset):
    code = cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--input", str(dataset / "videos" / "video-000"), "--output", str(tmp_path / "out")])
    assert code == 2


def test_missing_input_directory_exits_3(tmp_path, dataset):
    config_path = write_config(tmp_path / "config.json", CONFIG)
    code = cli.main(["run", "--config", str(config_path), "--input", str(tmp_path / "absent"),
                     "--annotations", str(dataset / "annotations.jsonl"), "--output", str(tmp_path / "out")])
    assert code == 3


def test_corrupt_stream_manifest_exits_3(tmp_path, dataset):
    (dataset / "videos" / "video-000" / "manifest.json").write_text("{", encoding="utf-8")
    assert run(tmp_path, dataset) == 3


def test_stream_manifest_that_is_not_utf8_exits_3(tmp_path, dataset):
    (dataset / "videos" / "video-000" / "manifest.json").write_bytes(b"\xff{}")
    assert run(tmp_path, dataset) == 3


def test_missing_annotations_file_exits_3(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset, annotations=tmp_path / "absent.jsonl") == 3
    assert f"annotations file not found: {tmp_path / 'absent.jsonl'}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert run(tmp_path, dataset) == 0
    code = cli.main(["eval", "--results", str(tmp_path / "out"),
                     "--annotations", str(tmp_path / "absent.jsonl"), "--output", str(tmp_path / "metrics")])
    assert code == 3


def test_corrupt_frame_fails_that_frame_only(tmp_path, dataset, capsys):
    (dataset / "videos" / "video-000" / frame_filename(2)).write_bytes(b"P6\n32 24\n255\n")
    assert run(tmp_path, dataset) == 0
    rows = [json.loads(line) for line in (tmp_path / "out" / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["frame_index"] for row in rows if row["error"]] == [2]
    assert "truncated raster" in rows[2]["error"]
    assert "1 failed" in capsys.readouterr().out


def test_frames_under_3x3_fail_each_frame_not_the_run(tmp_path, capsys):
    video = tmp_path / "tiny"
    video.mkdir()
    manifest = {"video_id": "tiny", "fps": 60.0, "width": 2, "height": 2, "frame_count": 3}
    (video / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
    for i in range(3):
        (video / frame_filename(i)).write_bytes(encode_ppm(2, 2, bytes(range(12))))
    (tmp_path / "annotations.jsonl").write_text("", encoding="utf-8")
    config_path = write_config(tmp_path / "config.json", CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--input", str(video), "--output", str(out),
                     "--annotations", str(tmp_path / "annotations.jsonl")]) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["frame_index"] for row in rows] == [0, 1, 2]
    assert all("at least 3x3" in row["error"] for row in rows)
    assert "3 failed" in capsys.readouterr().out


def test_backend_that_cannot_start_leaves_no_tmp(tmp_path, dataset):
    config = {**CONFIG, "detector_b": {"kind": "external", "command": [str(tmp_path / "absent-detector")]}}
    assert run(tmp_path, dataset, config=config) == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_backend_command_with_a_nul_byte_cannot_start(tmp_path, dataset, capsys):
    config = {**CONFIG, "detector_b": {"kind": "external", "command": ["detector\0"]}}
    assert run(tmp_path, dataset, config=config) == 1
    assert "cannot start backend process" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def read_rows(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("command", [NEVER_READS, NEVER_ANSWERS], ids=["never-reads", "never-answers"])
def test_a_stalled_detector_fails_its_frames_without_freezing_the_run(tmp_path, dataset, monkeypatch, command):
    monkeypatch.setattr(external, "IO_TIMEOUT_S", 0.5)
    before = child_pids()
    start = time.monotonic()
    assert run(tmp_path, dataset, config={**CONFIG, "detector_b": {"kind": "external", "command": command}}) == 0
    assert time.monotonic() - start < 5
    errors = [row["error"] for row in read_rows(tmp_path / "out") if not row["blurry"]]
    # The first clear frame waits out the timeout; the closed client fails the rest at once.
    assert "timed out" in errors[0]
    assert len(errors) > 1 and all("closed" in error for error in errors[1:])
    assert child_pids() == before


def run_eval(tmp_path: Path, dataset: Path) -> int:
    return cli.main(["eval", "--results", str(tmp_path / "out"), "--annotations", str(dataset / "annotations.jsonl"),
                     "--output", str(tmp_path / "metrics")])


@pytest.mark.parametrize("name", ["results", "annotations"])
def test_eval_of_a_jsonl_file_that_is_not_utf8_exits_3(tmp_path, dataset, capsys, name):
    assert run(tmp_path, dataset) == 0
    path = tmp_path / "out" / "results.jsonl" if name == "results" else dataset / "annotations.jsonl"
    lineno = len(path.read_bytes().splitlines()) + 1
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    assert run_eval(tmp_path, dataset) == 3
    assert f"{path}:{lineno}: invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_eval_rejects_a_duplicate_annotation_as_run_does(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    annotations = dataset / "annotations.jsonl"
    rows = annotations.read_text(encoding="utf-8").splitlines()
    first = json.loads(rows[0])
    annotations.write_text("\n".join(rows + [json.dumps({**first, "boxes": []})]) + "\n", encoding="utf-8")
    message = f"duplicate annotation for frame {first['frame_index']} of video video-000"
    assert run_eval(tmp_path, dataset) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()
    (tmp_path / "replay").mkdir()
    assert run(tmp_path / "replay", dataset) == 3
    assert message in capsys.readouterr().err


def append_row(path: Path, row: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


def test_eval_rejects_a_duplicate_results_row(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    results = tmp_path / "out" / "results.jsonl"
    row = json.loads(results.read_text(encoding="utf-8").splitlines()[5])
    append_row(results, {**row, "detections": []})
    assert run_eval(tmp_path, dataset) == 3
    assert f"{results}: duplicate results row for frame 5" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_eval_reports_a_duplicate_results_row_before_a_later_bad_line(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    results = tmp_path / "out" / "results.jsonl"
    row = json.loads(results.read_text(encoding="utf-8").splitlines()[5])
    append_row(results, {**row, "detections": []})
    with open(results, "ab") as fh:
        fh.write(b"\xff\n")
    assert run_eval(tmp_path, dataset) == 3
    assert f"{results}: duplicate results row for frame 5" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_eval_rejects_a_video_named_by_two_results_entries(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    (tmp_path / "again").mkdir()
    assert run(tmp_path / "again", dataset) == 0
    first, second = tmp_path / "out" / "results.jsonl", tmp_path / "again" / "out" / "results.jsonl"
    code = eval_runs_to(tmp_path / "metrics", dataset / "annotations.jsonl", [first.parent, second.parent])
    assert code == 3
    assert f"video video-000 has two results files: {first} and {second}" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_eval_rejects_an_annotated_video_without_results(tmp_path, capsys):
    spec = DatasetSpec(videos=3, frames_per_video=6, polyps_per_video=1, seed=4, width=32, height=24,
                       polyp_edge_range=(4, 12))
    write_dataset(spec, tmp_path / "dataset")
    runs = run_videos(tmp_path, CONFIG, spec.videos)
    annotations = tmp_path / "dataset" / "annotations.jsonl"
    assert eval_runs_to(tmp_path / "metrics", annotations, runs[1:2]) == 3
    assert f"{annotations}: no results for annotated videos video-000, video-002" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()
    # With the other videos' rows filtered out, the same run evaluates.
    rows = annotations.read_text(encoding="utf-8").splitlines()
    annotations.write_text("".join(row + "\n" for row in rows if '"video-001"' in row), encoding="utf-8")
    assert eval_runs_to(tmp_path / "metrics", annotations, runs[1:2]) == 0
    assert json.loads((tmp_path / "metrics" / "metrics.json").read_text(encoding="utf-8"))["clips"]["total"] == 1


@pytest.mark.parametrize(
    "kind, frame",
    [("results", SPEC.frames_per_video), ("results", -3), ("annotation", SPEC.frames_per_video), ("annotation", -50)],
    ids=["results-past-the-end", "results-before-0", "annotation-past-the-end", "annotation-before-0"],
)
def test_eval_rejects_a_frame_outside_the_video(tmp_path, dataset, capsys, kind, frame):
    assert run(tmp_path, dataset) == 0
    path = tmp_path / "out" / "results.jsonl" if kind == "results" else dataset / "annotations.jsonl"
    last = json.loads(path.read_text(encoding="utf-8").splitlines()[-1])
    append_row(path, {**last, "frame_index": frame})
    assert run_eval(tmp_path, dataset) == 3
    message = f"video video-000: {kind} frame {frame} lies outside [0, {SPEC.frames_per_video})"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_eval_rejects_a_results_file_with_a_missing_row(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    results = tmp_path / "out" / "results.jsonl"
    rows = results.read_text(encoding="utf-8").splitlines()
    results.write_text("".join(row + "\n" for row in rows[:5]), encoding="utf-8")
    assert run_eval(tmp_path, dataset) == 3
    assert f"{results}: no results row for frame 5 of {SPEC.frames_per_video}" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_eval_of_a_run_without_its_manifest_exits_3(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    manifest = tmp_path / "out" / "manifest.json"
    manifest.unlink()
    assert run_eval(tmp_path, dataset) == 3
    assert f"run manifest not found: {manifest}" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_run_refuses_a_stream_of_no_frames(tmp_path, dataset, capsys):
    # eval refuses a run manifest edited to say the same: "zero-frame-count" in EVAL_MANIFEST_FAULTS.
    video = tmp_path / "empty"
    video.mkdir()
    manifest = {"video_id": "empty", "fps": 60.0, "width": 32, "height": 24, "frame_count": 0}
    (video / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
    config_path = write_config(tmp_path / "config.json", CONFIG)
    assert cli.main(["run", "--config", str(config_path), "--input", str(video), "--output", str(tmp_path / "out"),
                     "--annotations", str(dataset / "annotations.jsonl")]) == 3
    assert "data error: stream frame_count must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A staggered polyp video, and a polyp-free one: video-001's rows leave the
# annotations before it runs, so its detectors see no truth.
EVAL_SPEC = DatasetSpec(videos=2, frames_per_video=90, polyps_per_video=2, blur_fraction=0.2, seed=21,
                        width=64, height=48, polyp_edge_range=(6, 16), stagger_appearance=True)
NOISY = {
    "detector_a": {"kind": "synthetic", "seed": 7, "p_tp": 0.4, "fp_rate": 1.0, "jitter_px": 3.0},
    "detector_b": {"kind": "synthetic", "seed": 8, "p_tp": 0.4, "fp_rate": 1.0, "jitter_px": 3.0},
}

# sha256 of eval's outputs for EVAL_SPEC, recorded before eval scored each video in one pass.
# The clip's delay is 11 frames under iou and 2 under centroid; the polyp-free video has 4 FP incidents.
EVAL_GOLDEN = {
    "iou": {
        "metrics.json": "1f9cebac9069b9192a580ad03b9a47a0fef52b98f61929373ab55733d0739ff5",
        "clips.csv": "c85c5c0533b4437cbd3747dcdb5fd426c79863186c1e91dca8d2eb3070308bf8",
        "recall_curve.csv": "508ce1974aaac8ffe96065eed6d32f3d31a3f5bb62b18d202743507866f30af8",
        "fp_cdf.csv": "4dc81cd84b1d6b952b88052b527977e61e3d684c7457841149cbf85600bb81a3",
    },
    "centroid": {
        "metrics.json": "bc0435d0c24dfa80818fe60d7632e15074bba598f6a5cd1d8387973587489dc0",
        "clips.csv": "5ff90d94e3b51f4974a994fb1bf64928b7d57b4beb3d63349a2f1cf4925bea26",
        "recall_curve.csv": "508ce1974aaac8ffe96065eed6d32f3d31a3f5bb62b18d202743507866f30af8",
        "fp_cdf.csv": "4dc81cd84b1d6b952b88052b527977e61e3d684c7457841149cbf85600bb81a3",
    },
}


@pytest.fixture(scope="module")
def eval_runs(tmp_path_factory) -> tuple[Path, list[Path]]:
    """The annotations of EVAL_SPEC and the run directories of its two videos."""
    root = tmp_path_factory.mktemp("eval")
    write_dataset(EVAL_SPEC, root / "dataset")
    annotations = root / "dataset" / "annotations.jsonl"
    rows = annotations.read_text(encoding="utf-8").splitlines()
    annotations.write_text("".join(row + "\n" for row in rows if '"video-001"' not in row), encoding="utf-8")
    return annotations, run_videos(root, NOISY, EVAL_SPEC.videos)


def run_videos(root: Path, config: dict, videos: int) -> list[Path]:
    """Run each video of the dataset under ``root / "dataset"``; returns the run directories."""
    config_path = write_config(root / "config.json", config)
    runs = []
    for index in range(videos):
        video = f"video-{index:03d}"
        runs.append(root / video)
        assert cli.main(["run", "--config", str(config_path), "--input", str(root / "dataset" / "videos" / video),
                         "--annotations", str(root / "dataset" / "annotations.jsonl"), "--output", str(runs[-1])]) == 0
    return runs


def eval_runs_to(out: Path, annotations: Path, runs: list[Path], *extra: str) -> int:
    args = ["eval", "--annotations", str(annotations), "--output", str(out), *extra]
    for run_dir in runs:
        args += ["--results", str(run_dir)]
    return cli.main(args)


@pytest.mark.parametrize("criterion", sorted(EVAL_GOLDEN))
def test_eval_outputs_match_golden_digests(tmp_path, eval_runs, criterion):
    assert eval_runs_to(tmp_path / "metrics", *eval_runs, "--match", criterion) == 0
    got = {name: hashlib.sha256((tmp_path / "metrics" / name).read_bytes()).hexdigest() for name in EVAL_GOLDEN[criterion]}
    assert got == EVAL_GOLDEN[criterion]


def test_eval_hands_each_annotation_row_to_annotations_by_frame_once(tmp_path, monkeypatch):
    spec = DatasetSpec(videos=3, frames_per_video=6, polyps_per_video=1, seed=4, width=32, height=24,
                       polyp_edge_range=(4, 12))
    write_dataset(spec, tmp_path / "dataset")
    runs = run_videos(tmp_path, CONFIG, spec.videos)
    handed = []

    def counting(rows, video_id):
        handed.extend(rows)
        return annotations_by_frame(rows, video_id)

    monkeypatch.setattr(cli, "annotations_by_frame", counting)
    annotations = tmp_path / "dataset" / "annotations.jsonl"
    assert eval_runs_to(tmp_path / "metrics", annotations, runs) == 0
    rows = load_annotations(annotations)
    assert len({row.video_id for row in rows}) == 3
    assert sorted(handed, key=str) == sorted(rows, key=str)


def read_report(out: Path) -> dict:
    return json.loads((out / "latency_report.json").read_text(encoding="utf-8"))


def test_latency_report_counts_the_frames_that_did_not_fail(tmp_path, dataset, capsys):
    (dataset / "videos" / "video-000" / frame_filename(5)).write_bytes(b"P6\n32 24\n255\n")
    assert run(tmp_path, dataset) == 0
    report = read_report(tmp_path / "out")
    rows = read_rows(tmp_path / "out")
    assert report["frames"] == SPEC.frames_per_video
    assert report["stages"]["total_wall"]["count"] == sum(row["error"] is None for row in rows) == 7
    assert report["failed_frames"] == sum(row["error"] is not None for row in rows) == 1
    blurry = sum(row["blurry"] for row in rows)
    assert report["blurry_frames"] == blurry > 0
    assert f"processed {SPEC.frames_per_video} frames ({blurry} blurry, 1 failed)" in capsys.readouterr().out


def test_latency_report_carries_the_charged_costs(tmp_path, dataset):
    config = {
        "gate": {"simulated_latency_ms": 3.0},
        "detector_a": {"kind": "synthetic", "seed": 1, "simulated_latency_ms": 20.0},
        "detector_b": {"kind": "synthetic", "seed": 2, "simulated_latency_ms": 20.0},
    }
    start = time.perf_counter()
    assert run(tmp_path, dataset, config=config) == 0
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    stages = read_report(tmp_path / "out")["stages"]
    clear = sum(not row["blurry"] for row in read_rows(tmp_path / "out"))
    assert 0 < clear < SPEC.frames_per_video
    assert stages["gate"]["count"] == SPEC.frames_per_video
    assert stages["detector_a"]["count"] == stages["detector_b"]["count"] == clear
    # Most frames are clear, so even the median total is charged all three stages.
    for name, charged in (("gate", 3.0), ("detector_a", 20.0), ("detector_b", 20.0), ("total_wall", 43.0)):
        assert charged <= stages[name]["p50"] <= stages[name]["max"] < charged + elapsed_ms, name


def write_manifest(run_dir: Path, edit) -> None:
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(edit(manifest)), encoding="utf-8")


def set_at(path: str, value):
    """An edit that sets the manifest's dotted key ``path`` to ``value``."""
    def edit(manifest):
        *parents, leaf = path.split(".")
        node = manifest
        for key in parents:
            node = node[key]
        node[leaf] = value
        return manifest
    return edit


# A type, shape or range fault in a run manifest; replaying it is a config error.
MANIFEST_FAULTS = {
    "non-numeric-fps": set_at("input.fps", "fast"),
    "boolean-fps": set_at("input.fps", True),
    "zero-fps": set_at("input.fps", 0),
    "non-numeric-frame-count": set_at("input.frame_count", "many"),
    "zero-frame-count": set_at("input.frame_count", 0),
    "fractional-width": set_at("input.width", 7.9),
    "zero-width": set_at("input.width", 0),
    "numeric-path": set_at("input.path", 5),
    "input-of-only-a-numeric-path": set_at("input", {"path": 5}),
    "numeric-annotations": set_at("annotations", 5),
    "fractional-seed": set_at("config.detector_a.seed", 7.9),
    "unknown-key": set_at("bogus", 1),
    "no-input": lambda manifest: {k: v for k, v in manifest.items() if k != "input"},
    "input-not-an-object": lambda manifest: {**manifest, "input": [manifest["input"]]},
}


@pytest.mark.parametrize("edit", list(MANIFEST_FAULTS.values()), ids=list(MANIFEST_FAULTS))
def test_replay_of_a_bad_run_manifest_exits_2(tmp_path, dataset, capsys, edit):
    assert run(tmp_path, dataset) == 0
    write_manifest(tmp_path / "out", edit)
    replay = tmp_path / "replay"
    assert cli.main(["run", "--config", str(tmp_path / "out" / "manifest.json"), "--output", str(replay)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {tmp_path / 'out' / 'manifest.json'}: ")
    assert not replay.exists()


EVAL_MANIFEST_FAULTS = {
    **MANIFEST_FAULTS,
    "bad-execution": set_at("config.execution", "distributed"),
    "not-an-object": lambda manifest: [manifest],
}


@pytest.mark.parametrize("edit", list(EVAL_MANIFEST_FAULTS.values()), ids=list(EVAL_MANIFEST_FAULTS))
def test_eval_of_a_bad_run_manifest_exits_3(tmp_path, dataset, capsys, edit):
    assert run(tmp_path, dataset) == 0
    write_manifest(tmp_path / "out", edit)
    metrics = tmp_path / "metrics"
    code = cli.main(["eval", "--results", str(tmp_path / "out"),
                     "--annotations", str(dataset / "annotations.jsonl"), "--output", str(metrics)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'out' / 'manifest.json'}: ")
    assert not metrics.exists()


def test_eval_reports_a_bad_run_manifest_before_a_bad_results_file(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset) == 0
    write_manifest(tmp_path / "out", set_at("input.fps", "fast"))
    with open(tmp_path / "out" / "results.jsonl", "ab") as fh:
        fh.write(b"\xff\n")
    assert run_eval(tmp_path, dataset) == 3
    assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'out' / 'manifest.json'}: ")
    assert not (tmp_path / "metrics").exists()


def test_run_keeps_only_its_own_videos_annotation_rows(tmp_path, dataset):
    # 20,000 rows of 40 other videos beside the fixture's own.
    box = [{"x": 1, "y": 2, "w": 3, "h": 4, "label": "polyp"}]
    with open(dataset / "annotations.jsonl", "a", encoding="utf-8") as fh:
        for video in range(40):
            for frame in range(500):
                fh.write(json.dumps({"video_id": f"other-{video:03d}", "frame_index": frame, "boxes": box}) + "\n")
    tracemalloc.start()
    try:
        assert run(tmp_path, dataset) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding every parsed row takes about 9.6 MB; parsing each row as it is read, about 0.3 MB in all.
    assert peak < 1_000_000


def test_eval_holds_one_run_at_a_time(tmp_path):
    # Both detectors draw the same FP boxes, so the AND rule confirms every one into the results.
    noise = {"kind": "synthetic", "seed": 5, "fp_rate": 2.0}
    spec = DatasetSpec(videos=12, frames_per_video=200, polyps_per_video=0, width=32, height=24,
                       polyp_edge_range=(4, 12))
    write_dataset(spec, tmp_path / "dataset")
    runs = run_videos(tmp_path, {"detector_a": noise, "detector_b": noise}, spec.videos)
    assert sum(len(row["detections"]) for row in read_rows(runs[0])) > spec.frames_per_video
    tracemalloc.start()
    try:
        assert eval_runs_to(tmp_path / "metrics", tmp_path / "dataset" / "annotations.jsonl", runs) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Every run's detections held until scoring take about 1.8 MB; one run at a time, about 0.55 MB in all.
    assert peak < 1_000_000


def test_replay_from_another_working_directory(tmp_path, dataset, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "config.json", CONFIG)
    assert cli.main(["run", "--config", "config.json", "--input", "dataset/videos/video-000",
                     "--annotations", "dataset/annotations.jsonl", "--output", "out"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert Path(manifest["input"]["path"]).is_absolute() and Path(manifest["annotations"]).is_absolute()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli.main(["run", "--config", "../out/manifest.json", "--output", "replay"]) == 0
    assert (elsewhere / "replay" / "results.jsonl").read_bytes() == (tmp_path / "out" / "results.jsonl").read_bytes()
    # A manifest with relative paths, as earlier versions wrote them, replays from the directory they are relative to.
    monkeypatch.chdir(tmp_path)
    write_manifest(tmp_path / "out", lambda m: {**m, "input": {**m["input"], "path": "dataset/videos/video-000"},
                                                "annotations": "dataset/annotations.jsonl"})
    assert cli.main(["run", "--config", "out/manifest.json", "--output", "relative"]) == 0
    assert (tmp_path / "relative" / "results.jsonl").read_bytes() == (tmp_path / "out" / "results.jsonl").read_bytes()


STUB = [sys.executable, "-m", "scopeline.backends.stub", "--box", "2,3,8,6,0.9"]


def test_a_stub_run_inside_a_dataset_reads_no_annotations(tmp_path, dataset):
    # Unreadable rows: a run that parsed the dataset's annotations would exit 3.
    with open(dataset / "annotations.jsonl", "ab") as fh:
        fh.write(b"\xff\n")
    config_path = write_config(tmp_path / "config.json", {"detector_a": {"kind": "external", "command": STUB},
                                                          "detector_b": {"kind": "external", "command": STUB}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--input", str(dataset / "videos" / "video-000"),
                     "--output", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["annotations"] is None
    rows = read_rows(out)
    assert [bool(row["detections"]) for row in rows] == [not row["blurry"] for row in rows]


def test_a_fresh_synthetic_run_without_annotations_exits_2(tmp_path, dataset, capsys):
    config_path = write_config(tmp_path / "config.json", CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--input", str(dataset / "videos" / "video-000"),
                     "--output", str(out)]) == 2
    assert capsys.readouterr().err == "config error: a synthetic detector draws its boxes from the truth: pass --annotations\n"
    assert not out.exists()


def test_a_manifest_that_recorded_no_annotations_replays_without_truth(tmp_path, dataset):
    # Outside the dataset, so only a search of the input's parents could reach the dataset's own file.
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run(tmp_path, dataset, annotations=empty) == 0
    write_manifest(tmp_path / "out", lambda manifest: {**manifest, "annotations": None})
    replay = tmp_path / "replay"
    assert cli.main(["run", "--config", str(tmp_path / "out" / "manifest.json"), "--output", str(replay)]) == 0
    assert (replay / "results.jsonl").read_bytes() == (tmp_path / "out" / "results.jsonl").read_bytes()
    assert json.loads((replay / "manifest.json").read_text(encoding="utf-8"))["annotations"] is None


def test_run_refuses_to_write_into_its_input_frame_directory(tmp_path, dataset, capsys):
    video = dataset / "videos" / "video-000"
    before = tree_digest(video)
    config_path = write_config(tmp_path / "config.json", CONFIG)
    code = cli.main(["run", "--config", str(config_path), "--input", str(video),
                     "--annotations", str(dataset / "annotations.jsonl"), "--output", str(video / ".." / "video-000")])
    assert code == 2
    assert "output directory is the input frame directory" in capsys.readouterr().err
    assert tree_digest(video) == before
    assert run(tmp_path, dataset) == 0


# A run manifest exactly as this version wrote it before its codec, for the
# dataset under ROOT; versions before it also wrote a "seeds" key.
EARLIER_MANIFEST = """{
  "tool": "scopeline",
  "version": "0.1.0",
  "config": {
    "detector_a": {
      "kind": "synthetic",
      "seed": 1,
      "p_tp": 1.0,
      "fp_rate": 0.0,
      "jitter_px": 0.0,
      "tp_score_range": [
        0.6,
        1.0
      ],
      "fp_score_range": [
        0.05,
        0.6
      ],
      "simulated_latency_ms": 0.0
    },
    "detector_b": {
      "kind": "synthetic",
      "seed": 2,
      "p_tp": 1.0,
      "fp_rate": 0.0,
      "jitter_px": 0.0,
      "tp_score_range": [
        0.6,
        1.0
      ],
      "fp_score_range": [
        0.05,
        0.6
      ],
      "simulated_latency_ms": 0.0
    },
    "gate": {
      "kind": "heuristic",
      "threshold": 100.0,
      "simulated_latency_ms": 0.0,
      "external": null
    },
    "ensemble": {
      "iou_threshold": 0.1,
      "mode": "and",
      "short_edge_ratio_threshold": 0.1
    },
    "execution": "sequential"
  },
  "input": {
    "path": "ROOT/videos/video-000",
    "video_id": "video-000",
    "fps": 60.0,
    "width": 32,
    "height": 24,
    "frame_count": 8
  },
  "annotations": "ROOT/annotations.jsonl"
}
"""
SEEDS = '  "seeds": {"detector_a": 1, "detector_b": 2},\n'


@pytest.mark.parametrize("seeds", ["", SEEDS], ids=["as-written", "with-seeds"])
def test_a_manifest_as_earlier_versions_wrote_it_replays_and_evaluates(tmp_path, dataset, seeds):
    text = EARLIER_MANIFEST.replace("ROOT", str(dataset)).replace('  "annotations"', seeds + '  "annotations"')
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    (earlier / "manifest.json").write_text(text, encoding="utf-8")
    assert run(tmp_path, dataset) == 0
    out = tmp_path / "out"
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8")) == json.loads(EARLIER_MANIFEST.replace("ROOT", str(dataset)))

    replay = tmp_path / "replay"
    assert cli.main(["run", "--config", str(earlier / "manifest.json"), "--output", str(replay)]) == 0
    assert (replay / "results.jsonl").read_bytes() == (out / "results.jsonl").read_bytes()

    (earlier / "results.jsonl").write_bytes((out / "results.jsonl").read_bytes())
    for results, metrics in ((out, tmp_path / "metrics"), (earlier, tmp_path / "earlier-metrics")):
        assert cli.main(["eval", "--results", str(results), "--annotations", str(dataset / "annotations.jsonl"),
                         "--output", str(metrics)]) == 0
    assert (tmp_path / "earlier-metrics" / "metrics.json").read_bytes() == (tmp_path / "metrics" / "metrics.json").read_bytes()


def test_run_takes_the_fps_from_the_frame_directory_only(tmp_path, dataset, capsys):
    assert run(tmp_path, dataset, "--fps", "30") == 2
    assert "unrecognized arguments: --fps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    stream_manifest = dataset / "videos" / "video-000" / MANIFEST_NAME
    stream_manifest.write_text(json.dumps({**json.loads(stream_manifest.read_text(encoding="utf-8")), "fps": 25}),
                               encoding="utf-8")
    assert run(tmp_path, dataset) == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))["input"]["fps"] == 25.0
    # A replay reads the frame directory again, not the fps its manifest recorded.
    write_manifest(tmp_path / "out", set_at("input.fps", 30.0))
    replay = tmp_path / "replay"
    assert cli.main(["run", "--config", str(tmp_path / "out" / "manifest.json"), "--output", str(replay)]) == 0
    assert json.loads((replay / "manifest.json").read_text(encoding="utf-8"))["input"]["fps"] == 25.0


def test_eval_rejects_a_negative_merge_window_before_reading_a_file(tmp_path, capsys):
    metrics = tmp_path / "metrics"
    code = cli.main(["eval", "--results", str(tmp_path / "absent"), "--merge-window", "-1",
                     "--annotations", str(tmp_path / "absent.jsonl"), "--output", str(metrics)])
    assert code == 2
    assert "--merge-window must be non-negative" in capsys.readouterr().err
    assert not metrics.exists()


def test_eval_rejects_a_negative_merge_window_for_a_video_without_polyps(tmp_path, capsys):
    write_dataset(DatasetSpec(frames_per_video=4, polyps_per_video=0, width=32, height=24,
                              polyp_edge_range=(4, 12)), tmp_path / "dataset")
    config_path = write_config(tmp_path / "config.json", CONFIG)
    assert cli.main(["run", "--config", str(config_path), "--input", str(tmp_path / "dataset" / "videos" / "video-000"),
                     "--annotations", str(tmp_path / "dataset" / "annotations.jsonl"), "--output", str(tmp_path / "out")]) == 0
    code = cli.main(["eval", "--results", str(tmp_path / "out"), "--merge-window", "-1",
                     "--annotations", str(tmp_path / "dataset" / "annotations.jsonl"), "--output", str(tmp_path / "metrics")])
    assert code == 2
    assert "--merge-window must be non-negative" in capsys.readouterr().err


def test_bench_is_not_a_command(capsys):
    assert cli.main(["bench"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def scopeline(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "scopeline", *args], capture_output=True, text=True, timeout=60)


def test_run_flags_name_only_files(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--help"])
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["--config", "--input", "--output", "--annotations"]


def test_eval_flags_take_no_fps(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["eval", "--help"])
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["--results", "--annotations", "--output", "--match", "--match-threshold", "--merge-window"]


@pytest.mark.parametrize(
    "flag, value",
    [("--mode", "parallel"), ("--ensemble", "size_aware"), ("--iou-threshold", "0.3"),
     ("--short-edge-threshold", "0.2"), ("--seed", "4")],
)
def test_detection_parameter_flags_are_gone(tmp_path, dataset, capsys, flag, value):
    assert run(tmp_path, dataset, flag, value) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_manifest_records_no_seed_copy(tmp_path, dataset):
    assert run(tmp_path, dataset) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["annotations", "config", "input", "tool", "version"]


def test_module_entry_point_lists_exactly_the_commands():
    done = scopeline("--help")
    assert done.returncode == 0
    commands = re.search(r"\{([^}]*)\}", done.stdout).group(1)
    assert commands.split(",") == ["run", "eval", "gen-synthetic"]


def test_module_entry_point_prints_the_version():
    done = scopeline("--version")
    assert done.returncode == 0
    assert done.stdout == "scopeline 0.1.0\n"


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def gen_synthetic(out: Path, seed: int) -> dict[str, str]:
    code = cli.main(["gen-synthetic", "--out", str(out), "--seed", str(seed), "--videos", "2", "--frames", "6",
                     "--polyps", "2", "--blur-fraction", "0.3", "--width", "32", "--height", "24",
                     "--polyp-edge-range", "4,12", "--stagger"])
    assert code == 0
    return tree_digest(out)


@pytest.mark.parametrize("fps", ["0", "nan", "inf"])
def test_gen_synthetic_rejects_a_non_positive_or_non_finite_fps(tmp_path, capsys, fps):
    out = tmp_path / "dataset"
    assert cli.main(["gen-synthetic", "--out", str(out), "--fps", fps]) == 2
    assert "fps must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_synthetic_is_byte_identical_for_a_seed(tmp_path):
    first = gen_synthetic(tmp_path / "first", seed=11)
    assert len(first) == 2 * (6 + 1) + 1  # frames and a manifest per video, one annotations file
    assert gen_synthetic(tmp_path / "second", seed=11) == first
    other = gen_synthetic(tmp_path / "other", seed=12)
    assert other.keys() == first.keys()
    assert other != first


def test_gen_synthetic_rejects_a_video_of_no_frames(tmp_path, capsys):
    out = tmp_path / "dataset"
    assert cli.main(["gen-synthetic", "--out", str(out), "--frames", "0"]) == 2
    assert "frames_per_video must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()
