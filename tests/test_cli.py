"""CLI exit codes, atomic output files, and byte-reproducible synthetic datasets."""

from __future__ import annotations

import hashlib
import json
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
