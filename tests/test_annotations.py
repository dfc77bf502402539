"""JSON Lines loading: annotations and results files name the bad line."""

from __future__ import annotations

import json
import re

import pytest

from scopeline.annotations import FrameAnnotation, LabeledBox, load_annotations, save_annotations
from scopeline.errors import DataFormatError
from scopeline.geometry import BoundingBox
from scopeline.pipeline import PipelineResult, load_results, result_to_dict

ANNOTATION = {"video_id": "v", "frame_index": 0, "boxes": [{"x": 1, "y": 2, "w": 3, "h": 4, "label": "polyp"}]}
RESULT = {"frame_index": 0, "blurry": False, "detections": [], "error": None}

LOADERS = [
    pytest.param(load_annotations, ANNOTATION, {"video_id": "v", "frame_index": 1}, id="annotations"),
    pytest.param(load_results, RESULT, {"frame_index": "one", "blurry": False, "detections": []}, id="results"),
]


def write_lines(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.mark.parametrize("load, good, bad", LOADERS)
def test_invalid_json_names_path_and_line(tmp_path, load, good, bad):
    path = tmp_path / "rows.jsonl"
    write_lines(path, [json.dumps(good), "", "{not json"])
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: invalid JSON")):
        load(path)


@pytest.mark.parametrize("load, good, bad", LOADERS)
def test_bad_row_names_path_and_line(tmp_path, load, good, bad):
    path = tmp_path / "rows.jsonl"
    write_lines(path, [json.dumps(good), json.dumps(bad)])
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: bad")):
        load(path)


@pytest.mark.parametrize("load, good, bad", LOADERS)
def test_blank_lines_are_skipped(tmp_path, load, good, bad):
    path = tmp_path / "rows.jsonl"
    write_lines(path, ["", json.dumps(good), "   ", json.dumps(good)])
    assert len(load(path)) == 2


def test_annotations_round_trip(tmp_path):
    annotations = [
        FrameAnnotation("v", 0, (LabeledBox(BoundingBox(1, 2, 3, 4)),)),
        FrameAnnotation("v", 5, (LabeledBox(BoundingBox(0, 0, 9, 9), "instrument"),)),
    ]
    path = tmp_path / "annotations.jsonl"
    save_annotations(path, annotations)
    assert load_annotations(path) == annotations


def test_results_round_trip(tmp_path):
    result = PipelineResult(3, True, (), {}, error="backend failed")
    path = tmp_path / "results.jsonl"
    write_lines(path, [json.dumps(result_to_dict(result))])
    assert load_results(path) == [result]
