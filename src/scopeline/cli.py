"""Operator entry point: run pipelines, evaluate results, generate fixtures.

``run`` takes every detection parameter from its config file and records it
in a :class:`RunManifest`, the ``manifest.json`` that ``run --config`` replays
and ``eval`` reads. Each other input has one source: the frames and their
fps come from the ``--input`` frame directory and its ``manifest.json``, and
the truth from the ``--annotations`` file, which a synthetic detector needs;
a replay takes what those flags leave out from the manifest it replays.
``run`` records absolute input and annotations paths, so a replay works from
any working directory, and refuses to write into its input frame directory,
whose own ``manifest.json`` it would replace.
``eval`` takes each run's video id, fps and frame count from the
``manifest.json`` beside its ``results.jsonl``, and scores one run before it
reads the next. ``run`` and ``eval`` parse JSON Lines rows as they read
them, and report the first fault they reach.

Exit codes: 0 success, 1 any other scopeline error (such as a backend that
cannot start), 2 configuration error, 3 input-data error. Output files are
written to a temporary name and atomically renamed into place; a failed
write leaves no temporary file behind.
Log verbosity comes from the SCOPELINE_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from . import __version__
from .annotations import FrameAnnotation, annotation_from_dict, annotations_by_frame, iter_jsonl
from .backends.synthetic import SyntheticDetectorConfig
from .codec import from_json, read_json, to_json
from .datagen import DatasetSpec, write_dataset
from .errors import ConfigError, DataFormatError, MediaFormatError, ScopelineError
from .evaluation import (
    CRITERION_CENTROID,
    CRITERION_IOU,
    DEFAULT_FP_MERGE_WINDOW_FRAMES,
    MatchConfig,
    VideoEvalInput,
    evaluate_videos,
)
from .media import MANIFEST_NAME, DirectoryFrameStream, StreamInfo
from .pipeline import Pipeline, PipelineConfig, result_from_dict, result_to_dict

log = logging.getLogger("scopeline")

RESULTS_NAME = "results.jsonl"
LATENCY_REPORT_NAME = "latency_report.json"


@contextmanager
def _atomic_output(path: Path) -> Iterator[TextIO]:
    """A temporary text file that replaces ``path`` when the block ends, or is removed if it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    with _atomic_output(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


@dataclass(frozen=True)
class RecordedStream(StreamInfo):
    """The input stream of a run, with the frame directory it was read from."""

    path: str


@dataclass(frozen=True)
class RunManifest:
    """A run's ``manifest.json``: what ``run --config`` replays and ``eval`` reads."""

    tool: str
    version: str
    config: PipelineConfig
    input: RecordedStream
    annotations: str | None

    RETIRED_KEYS = ("seeds",)  # a copy of the synthetic detectors' seeds, held by the config


def _load_run_config(config_path: Path) -> tuple[PipelineConfig, RunManifest | None]:
    """The pipeline config of a config file, and the run manifest when the file is one."""
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    raw = read_json(config_path)
    try:
        if isinstance(raw, dict) and "config" in raw:
            manifest = from_json(RunManifest, raw, "manifest")
            return manifest.config, manifest
        return from_json(PipelineConfig, raw, "config"), None
    except (ConfigError, MediaFormatError) as exc:  # the recorded stream raises MediaFormatError
        raise ConfigError(f"{config_path}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    config, recorded = _load_run_config(Path(args.config))
    # A replayed manifest supplies what the flags leave out.
    input_path = args.input or (recorded.input.path if recorded else None)
    annotations = args.annotations if args.annotations is not None or not recorded else recorded.annotations
    synthetic = any(isinstance(spec, SyntheticDetectorConfig) for spec in (config.detector_a, config.detector_b))
    if synthetic and annotations is None and not recorded:
        raise ConfigError("a synthetic detector draws its boxes from the truth: pass --annotations")

    if not input_path:
        raise ConfigError("no input directory: pass --input or replay a run manifest")
    input_dir = Path(input_path)
    if not input_dir.is_dir():
        raise MediaFormatError(f"input frame directory not found: {input_dir}")
    out = Path(args.output)
    if out.resolve() == input_dir.resolve():
        # The run manifest would replace the frame directory's stream manifest.json.
        raise ConfigError(f"output directory is the input frame directory: {out}")
    stream = DirectoryFrameStream(input_dir)

    truth = {}
    if annotations is not None:
        path = Path(annotations)
        if not path.is_file():
            raise DataFormatError(f"annotations file not found: {path}")
        annotations = os.path.abspath(path)
        truth = annotations_by_frame(iter_jsonl(path, annotation_from_dict), stream.video_id)
        log.info("loaded %d annotated frames from %s", len(truth), path)

    out.mkdir(parents=True, exist_ok=True)

    with _atomic_output(out / RESULTS_NAME) as fh, Pipeline(config, truth) as pipeline:
        def sink(result) -> None:
            fh.write(json.dumps(result_to_dict(result), separators=(",", ":")) + "\n")

        report = pipeline.process_stream(stream, sink)

    recorded_input = RecordedStream(**asdict(stream.info), path=os.path.abspath(input_dir))
    manifest = RunManifest("scopeline", __version__, config, recorded_input, annotations)
    _write_json(out / MANIFEST_NAME, to_json(manifest))
    _write_json(out / LATENCY_REPORT_NAME, report)

    fps = report["throughput_fps"]
    fps_text = f", accounted throughput {fps:.2f} fps" if fps else ""
    print(
        f"processed {report['frames']} frames ({report['blurry_frames']} blurry, "
        f"{report['failed_frames']} failed){fps_text}"
    )
    return 0


def _eval_inputs(entries: Sequence[str], rows_by_video: dict[str, list[FrameAnnotation]]) -> Iterator[VideoEvalInput]:
    """Each results entry's video, as the run manifest beside it names it, with its rows popped from ``rows_by_video``."""
    scored: dict[str, Path] = {}  # the results file of each video read so far
    for entry in entries:
        results_path = Path(entry)
        if results_path.is_dir():
            results_path = results_path / RESULTS_NAME
        if not results_path.is_file():
            raise DataFormatError(f"results file not found: {results_path}")
        manifest_path = results_path.parent / MANIFEST_NAME
        if not manifest_path.is_file():
            raise DataFormatError(f"run manifest not found: {manifest_path}")
        try:
            info = from_json(RunManifest, read_json(manifest_path, DataFormatError), "manifest").input
        except (ConfigError, MediaFormatError) as exc:  # the recorded stream raises MediaFormatError
            raise DataFormatError(f"{manifest_path}: {exc}") from exc
        if info.video_id in scored:
            raise DataFormatError(f"video {info.video_id} has two results files: {scored[info.video_id]} and {results_path}")
        scored[info.video_id] = results_path
        detections_by_frame = {}
        for r in iter_jsonl(results_path, result_from_dict):
            if r.frame_index in detections_by_frame:
                raise DataFormatError(f"{results_path}: duplicate results row for frame {r.frame_index}")
            detections_by_frame[r.frame_index] = r.detections
        annotations = tuple(annotations_by_frame(rows_by_video.pop(info.video_id, ()), info.video_id).values())
        video = VideoEvalInput(info.video_id, info.fps, info.frame_count, annotations, detections_by_frame)
        # Every row lies in range and none repeats, so too few rows means a frame has none.
        if len(detections_by_frame) < info.frame_count:
            missing = next(i for i in range(info.frame_count) if i not in detections_by_frame)
            raise DataFormatError(f"{results_path}: no results row for frame {missing} of {info.frame_count}")
        yield video


def cmd_eval(args: argparse.Namespace) -> int:
    if args.merge_window < 0:
        raise ConfigError(f"--merge-window must be non-negative, got {args.merge_window}")
    match_cfg = MatchConfig(criterion=args.match, iou_match_threshold=args.match_threshold)
    rows_by_video: dict[str, list[FrameAnnotation]] = {}
    for annotation in iter_jsonl(Path(args.annotations), annotation_from_dict):
        rows_by_video.setdefault(annotation.video_id, []).append(annotation)

    report = evaluate_videos(_eval_inputs(args.results, rows_by_video), match_cfg, args.merge_window)
    # Recall and FP rates cover every annotated video, so a partial eval needs a filtered annotations file.
    if rows_by_video:
        raise DataFormatError(f"{args.annotations}: no results for annotated videos {', '.join(sorted(rows_by_video))}")

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "metrics.json", report.to_dict())
    for name, rows in report.tables().items():
        with _atomic_output(out / name) as fh:
            csv.writer(fh).writerows(rows)

    metrics = report.metrics

    def fmt(value: float | None) -> str:
        return "undefined" if value is None else f"{value:.2f}%"

    print(
        f"tp={report.counts.tp} fp={report.counts.fp} fn={report.counts.fn} "
        f"precision={fmt(metrics.precision)} recall={fmt(metrics.recall)} "
        f"f1={fmt(metrics.f1)} f2={fmt(metrics.f2)}"
    )
    return 0


def _parse_edge_range(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"edge range must be lo,hi in pixels, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"edge range must be integers, got {text!r}") from exc
    return lo, hi


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    spec = DatasetSpec(
        videos=args.videos,
        frames_per_video=args.frames,
        polyps_per_video=args.polyps,
        blur_fraction=args.blur_fraction,
        seed=args.seed,
        width=args.width,
        height=args.height,
        fps=args.fps,
        polyp_edge_range=_parse_edge_range(args.polyp_edge_range),
        stagger_appearance=args.stagger,
    )
    video_dirs = write_dataset(spec, Path(args.out))
    print(f"wrote {len(video_dirs)} videos x {spec.frames_per_video} frames under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scopeline", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"scopeline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pipeline over a frame directory")
    run.add_argument("--config", required=True, help="pipeline config JSON (or a run manifest to replay)")
    run.add_argument("--input", default=None, help="frame directory with manifest.json")
    run.add_argument("--output", required=True, help="output directory for results and manifest")
    run.add_argument("--annotations", default=None,
                     help="annotations JSONL, the truth a synthetic detector draws from; required for one")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="evaluate results files against annotations")
    ev.add_argument("--results", action="append", required=True,
                    help="run directory, or a results.jsonl with its manifest.json beside it (repeatable)")
    ev.add_argument("--annotations", required=True)
    ev.add_argument("--output", required=True)
    ev.add_argument("--match", choices=[CRITERION_IOU, CRITERION_CENTROID], default=CRITERION_IOU)
    ev.add_argument("--match-threshold", type=float, default=0.5)
    ev.add_argument("--merge-window", type=int, default=DEFAULT_FP_MERGE_WINDOW_FRAMES)
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen-synthetic", help="generate a deterministic synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--videos", type=int, default=1)
    gen.add_argument("--frames", type=int, default=100)
    gen.add_argument("--polyps", type=int, default=1, help="polyp tracks per video")
    gen.add_argument("--blur-fraction", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--width", type=int, default=384)
    gen.add_argument("--height", type=int, default=288)
    gen.add_argument("--fps", type=float, default=60.0)
    gen.add_argument("--polyp-edge-range", default="24,96")
    gen.add_argument("--stagger", action="store_true", help="randomize each track's appearance frame")
    gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("SCOPELINE_LOG", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MediaFormatError, DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ScopelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
