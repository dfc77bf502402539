"""JSON Lines loading: annotations and results files name the bad line."""

from __future__ import annotations

import json
import re

import pytest

from scopeline.annotations import FrameAnnotation, LabeledBox, load_annotations, save_annotations
from scopeline.errors import DataFormatError
from scopeline.geometry import BoundingBox, ScoredBox
from scopeline.pipeline import PipelineResult, load_results, result_to_dict

ANNOTATION = {"video_id": "v", "frame_index": 0, "boxes": [{"x": 1, "y": 2, "w": 3, "h": 4, "label": "polyp"}]}
RESULT = {"frame_index": 0, "blurry": False, "detections": [], "error": None}

LOADERS = [
    pytest.param(load_annotations, ANNOTATION, {"video_id": "v", "frame_index": 1}, id="annotations"),
    pytest.param(load_results, RESULT, {"frame_index": "one", "blurry": False, "detections": []}, id="results"),
]

MISTYPED_ANNOTATIONS = {
    "integer video_id": {**ANNOTATION, "video_id": 5},
    "fractional frame_index": {**ANNOTATION, "frame_index": 2.7},
    "boolean frame_index": {**ANNOTATION, "frame_index": True},
    "fractional box x": {**ANNOTATION, "boxes": [{"x": 0.99, "y": 2, "w": 3, "h": 4}]},
    "boolean box w": {**ANNOTATION, "boxes": [{"x": 1, "y": 2, "w": True, "h": 4}]},
    "box h as text": {**ANNOTATION, "boxes": [{"x": 1, "y": 2, "w": 3, "h": "4"}]},
}
DETECTION = {"x": 1, "y": 2, "w": 3, "h": 4, "score": 0.5, "source": "detector-A", "label": "polyp"}
MISTYPED_RESULTS = {
    "blurry as text": {**RESULT, "blurry": "false"},
    "blurry as an integer": {**RESULT, "blurry": 0},
    "fractional frame_index": {**RESULT, "frame_index": 2.7},
    "boolean frame_index": {**RESULT, "frame_index": False},
    "fractional box x": {**RESULT, "detections": [{**DETECTION, "x": 7.9}]},
    "boolean box w": {**RESULT, "detections": [{**DETECTION, "w": True}]},
    "boolean score": {**RESULT, "detections": [{**DETECTION, "score": True}]},
    "score as text": {**RESULT, "detections": [{**DETECTION, "score": "0.5"}]},
    "integer source": {**RESULT, "detections": [{**DETECTION, "source": 7}]},
    "null label": {**RESULT, "detections": [{**DETECTION, "label": None}]},
    "integer error": {**RESULT, "error": 5},
}

# A mistyped value is rejected, not truncated or coerced: (load, good row, bad row).
MISTYPED = [
    pytest.param(load_annotations, ANNOTATION, row, id=f"annotations-{name}")
    for name, row in MISTYPED_ANNOTATIONS.items()
] + [pytest.param(load_results, RESULT, row, id=f"results-{name}") for name, row in MISTYPED_RESULTS.items()]


def write_lines(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.mark.parametrize("load, good, bad", LOADERS)
def test_invalid_json_names_path_and_line(tmp_path, load, good, bad):
    path = tmp_path / "rows.jsonl"
    write_lines(path, [json.dumps(good), "", "{not json"])
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: invalid JSON")):
        load(path)


@pytest.mark.parametrize("load, good, bad", LOADERS + MISTYPED)
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


# Rows as earlier versions wrote them, byte for byte.
ANNOTATION_LINE = '{"video_id":"v","frame_index":5,"boxes":[{"x":0,"y":1,"w":9,"h":8,"label":"instrument"}]}'
RESULT_LINE = (
    '{"frame_index":3,"blurry":false,"detections":[{"x":1,"y":2,"w":3,"h":4,"score":0.75,'
    '"source":"detector-B","label":"polyp"}],"error":null}'
)


def test_annotation_line_loads_and_is_rewritten_byte_for_byte(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_lines(path, [ANNOTATION_LINE])
    [annotation] = load_annotations(path)
    assert annotation == FrameAnnotation("v", 5, (LabeledBox(BoundingBox(0, 1, 9, 8), "instrument"),))
    save_annotations(tmp_path / "again.jsonl", [annotation])
    assert (tmp_path / "again.jsonl").read_text(encoding="utf-8") == ANNOTATION_LINE + "\n"


def test_results_line_loads_and_is_rewritten_byte_for_byte(tmp_path):
    path = tmp_path / "results.jsonl"
    write_lines(path, [RESULT_LINE])
    [result] = load_results(path)
    assert result == PipelineResult(3, False, (ScoredBox(BoundingBox(1, 2, 3, 4), 0.75, "detector-B"),), {})
    assert json.dumps(result_to_dict(result), separators=(",", ":")) == RESULT_LINE
