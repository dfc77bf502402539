"""Ground-truth annotation records and their JSON Lines serialization.

One row per annotated frame:
``{"video_id": s, "frame_index": n, "boxes": [{"x","y","w","h","label"}]}``.
Frames without a row carry no annotations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import DataFormatError
from .geometry import LABEL_INSTRUMENT, LABEL_POLYP, BoundingBox, box_from_dict, box_to_dict, json_field

_KNOWN_LABELS = (LABEL_POLYP, LABEL_INSTRUMENT)

T = TypeVar("T")


@dataclass(frozen=True)
class LabeledBox:
    box: BoundingBox
    label: str = LABEL_POLYP

    def __post_init__(self) -> None:
        if self.label not in _KNOWN_LABELS:
            raise ValueError(f"unknown label {self.label!r}, expected one of {_KNOWN_LABELS}")


@dataclass(frozen=True)
class FrameAnnotation:
    """All ground-truth boxes for one frame of one video."""

    video_id: str
    frame_index: int
    boxes: tuple[LabeledBox, ...]

    def polyp_boxes(self) -> list[BoundingBox]:
        return [lb.box for lb in self.boxes if lb.label == LABEL_POLYP]


def annotation_to_dict(annotation: FrameAnnotation) -> dict:
    return {
        "video_id": annotation.video_id,
        "frame_index": annotation.frame_index,
        "boxes": [box_to_dict(lb.box, label=lb.label) for lb in annotation.boxes],
    }


def annotation_from_dict(row: Mapping) -> FrameAnnotation:
    try:
        boxes = tuple(LabeledBox(box_from_dict(b), str(b.get("label", LABEL_POLYP))) for b in row["boxes"])
        return FrameAnnotation(json_field(row, "video_id", str), json_field(row, "frame_index", int), boxes)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad annotation row: {exc}") from exc


def iter_jsonl(path: str | Path, parse_row: Callable[[object], T]) -> Iterator[T]:
    """``parse_row`` applied to each non-blank line of a JSON Lines file, yielded as it is read.

    A line that is not UTF-8 or not JSON, and a row that ``parse_row``
    rejects with DataFormatError, raise DataFormatError naming ``path:lineno``.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    yield parse_row(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except DataFormatError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def load_annotations(path: str | Path) -> list[FrameAnnotation]:
    """Read an annotations JSONL file; raises DataFormatError naming the bad line."""
    return list(iter_jsonl(path, annotation_from_dict))


def save_annotations(path: str | Path, annotations: Iterable[FrameAnnotation]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for annotation in annotations:
            fh.write(json.dumps(annotation_to_dict(annotation), separators=(",", ":")))
            fh.write("\n")


def annotations_by_frame(annotations: Iterable[FrameAnnotation], video_id: str) -> dict[int, FrameAnnotation]:
    """Index the annotations of one video by frame; a frame annotated twice is a DataFormatError."""
    indexed: dict[int, FrameAnnotation] = {}
    for annotation in annotations:
        if annotation.video_id != video_id:
            continue
        if annotation.frame_index in indexed:
            raise DataFormatError(f"duplicate annotation for frame {annotation.frame_index} of video {video_id}")
        indexed[annotation.frame_index] = annotation
    return indexed
