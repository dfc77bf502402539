"""CLI exit codes, atomic output files, and byte-reproducible synthetic datasets."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scopeline import cli
from scopeline.datagen import DatasetSpec, write_dataset
from scopeline.media import MANIFEST_NAME, encode_ppm, frame_filename

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


def run(tmp_path: Path, dataset: Path, *extra: str, config=CONFIG) -> int:
    config_path = write_config(tmp_path / "config.json", config)
    return cli.main(["run", "--config", str(config_path), "--input", str(dataset / "videos" / "video-000"),
                     "--output", str(tmp_path / "out"), *extra])


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
                     "--output", str(tmp_path / "out")])
    assert code == 3


def test_corrupt_stream_manifest_exits_3(tmp_path, dataset):
    (dataset / "videos" / "video-000" / "manifest.json").write_text("{", encoding="utf-8")
    assert run(tmp_path, dataset) == 3


def test_missing_annotations_file_exits_3(tmp_path, dataset):
    assert run(tmp_path, dataset, "--annotations", str(tmp_path / "absent.jsonl")) == 3
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
    config_path = write_config(tmp_path / "config.json", CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--input", str(video), "--output", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["frame_index"] for row in rows] == [0, 1, 2]
    assert all("at least 3x3" in row["error"] for row in rows)
    assert "3 failed" in capsys.readouterr().out


def test_backend_that_cannot_start_leaves_no_tmp(tmp_path, dataset):
    config = {**CONFIG, "detector_b": {"kind": "external", "command": [str(tmp_path / "absent-detector")]}}
    assert run(tmp_path, dataset, config=config) == 1
    assert list((tmp_path / "out").iterdir()) == []


def read_rows(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()]


def read_report(out: Path) -> dict:
    return json.loads((out / "latency_report.json").read_text(encoding="utf-8"))


def test_latency_report_counts_the_frames_that_did_not_fail(tmp_path, dataset):
    (dataset / "videos" / "video-000" / frame_filename(5)).write_bytes(b"P6\n32 24\n255\n")
    assert run(tmp_path, dataset) == 0
    report = read_report(tmp_path / "out")
    assert report["frames"] == SPEC.frames_per_video
    assert report["stages"]["total_wall"]["count"] == sum(row["error"] is None for row in read_rows(tmp_path / "out")) == 7


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


def set_input(key, value):
    def edit(manifest):
        manifest["input"][key] = value
        return manifest
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        set_input("fps", "fast"),
        set_input("fps", 0),
        set_input("frame_count", "many"),
        set_input("width", 7.9),
        lambda manifest: {k: v for k, v in manifest.items() if k != "input"},
        lambda manifest: {**manifest, "input": [manifest["input"]]},
        lambda manifest: [manifest],
    ],
    ids=["non-numeric-fps", "zero-fps", "non-numeric-frame-count", "fractional-width", "no-input",
         "input-not-an-object", "not-an-object"],
)
def test_eval_of_a_bad_run_manifest_exits_3(tmp_path, dataset, edit):
    assert run(tmp_path, dataset) == 0
    write_manifest(tmp_path / "out", edit)
    metrics = tmp_path / "metrics"
    code = cli.main(["eval", "--results", str(tmp_path / "out"),
                     "--annotations", str(dataset / "annotations.jsonl"), "--output", str(metrics)])
    assert code == 3
    assert not metrics.exists()


def test_eval_rejects_a_non_positive_fps_fallback(tmp_path, dataset):
    assert run(tmp_path, dataset) == 0
    (tmp_path / "out" / "manifest.json").unlink()
    metrics = tmp_path / "metrics"
    code = cli.main(["eval", "--results", str(tmp_path / "out"), "--fps", "0",
                     "--annotations", str(dataset / "annotations.jsonl"), "--output", str(metrics)])
    assert code == 2
    assert not metrics.exists()


def test_bench_is_not_a_command(capsys):
    assert cli.main(["bench"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def scopeline(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "scopeline", *args], capture_output=True, text=True, timeout=60)


def test_run_flags_name_only_files_and_the_fps(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--help"])
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["--config", "--input", "--output", "--annotations", "--fps"]


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


def test_gen_synthetic_is_byte_identical_for_a_seed(tmp_path):
    first = gen_synthetic(tmp_path / "first", seed=11)
    assert len(first) == 2 * (6 + 1) + 1  # frames and a manifest per video, one annotations file
    assert gen_synthetic(tmp_path / "second", seed=11) == first
    other = gen_synthetic(tmp_path / "other", seed=12)
    assert other.keys() == first.keys()
    assert other != first
