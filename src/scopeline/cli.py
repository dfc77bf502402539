"""Operator entry point: run pipelines, evaluate results, generate fixtures.

``run`` takes every detection parameter from its config file and records it
in a :class:`RunManifest`, the ``manifest.json`` that ``run --config`` replays
and ``eval`` reads.

Exit codes: 0 success, 1 any other scopeline error (such as a backend that
cannot start), 2 configuration error, 3 input-data error. Output files are
written to a temporary name and atomically renamed into place; a failed
write leaves no temporary file behind.
Log verbosity comes from the SCOPELINE_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .annotations import annotations_by_frame, load_annotations
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
    write_clips_csv,
    write_fp_cdf_csv,
    write_metrics_json,
    write_recall_curve_csv,
)
from .media import DirectoryFrameStream, StreamInfo
from .pipeline import Pipeline, PipelineConfig, load_results, result_to_dict

log = logging.getLogger("scopeline")

RESULTS_NAME = "results.jsonl"
MANIFEST_NAME = "manifest.json"
LATENCY_REPORT_NAME = "latency_report.json"


def _atomic_write(path: Path, write_fn: Callable[[Path], None]) -> None:
    """``write_fn`` writes a temporary file that replaces ``path``, or is removed if it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _atomic_write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, lambda p: p.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8"))


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
    if isinstance(raw, dict) and "config" in raw:
        manifest = from_json(RunManifest, raw, "manifest")
        return manifest.config, manifest
    return from_json(PipelineConfig, raw, "config"), None


def _check_fps(fps: float | None) -> None:
    if fps is not None and not 0.0 < fps < math.inf:
        raise ConfigError(f"--fps must be positive and finite, got {fps}")


def _discover_annotations(input_dir: Path, explicit: str | None) -> Path | None:
    if explicit is not None:
        path = Path(explicit)
        if not path.is_file():
            raise DataFormatError(f"annotations file not found: {path}")
        return path
    for candidate in (
        input_dir / "annotations.jsonl",
        input_dir.parent / "annotations.jsonl",
        input_dir.parent.parent / "annotations.jsonl",
    ):
        if candidate.is_file():
            return candidate
    return None


def cmd_run(args: argparse.Namespace) -> int:
    _check_fps(args.fps)
    config, recorded = _load_run_config(Path(args.config))
    # A replayed manifest supplies what the flags leave out.
    input_path = args.input or (recorded.input.path if recorded else None)
    fps = args.fps if args.fps is not None or not recorded else recorded.input.fps
    annotations = args.annotations if args.annotations is not None or not recorded else recorded.annotations

    if not input_path:
        raise ConfigError("no input directory: pass --input or replay a run manifest")
    input_dir = Path(input_path)
    if not input_dir.is_dir():
        raise MediaFormatError(f"input frame directory not found: {input_dir}")
    stream = DirectoryFrameStream(input_dir, fps_override=fps)

    annotations_path = _discover_annotations(input_dir, annotations)
    truth = {}
    if annotations_path is not None:
        truth = annotations_by_frame(load_annotations(annotations_path), stream.video_id)
        log.info("loaded %d annotated frames from %s", len(truth), annotations_path)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    summaries = []

    def write_rows(tmp_path: Path) -> None:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            def sink(result) -> None:
                fh.write(json.dumps(result_to_dict(result), separators=(",", ":")) + "\n")

            with Pipeline(config, truth) as pipeline:
                summaries.append(pipeline.process_stream(stream, sink))

    _atomic_write(out / RESULTS_NAME, write_rows)
    summary = summaries[0]

    recorded_input = RecordedStream(**asdict(stream.info), path=str(input_dir))
    annotations = str(annotations_path) if annotations_path else None
    manifest = RunManifest("scopeline", __version__, config, recorded_input, annotations)
    _atomic_write_json(out / MANIFEST_NAME, to_json(manifest))
    _atomic_write_json(out / LATENCY_REPORT_NAME, summary.latency)

    fps = summary.latency["throughput_fps"]
    fps_text = f", accounted throughput {fps:.2f} fps" if fps else ""
    print(
        f"processed {summary.frames} frames ({summary.blurry_frames} blurry, "
        f"{summary.failed_frames} failed){fps_text}"
    )
    return 0


def _results_source(entry: str) -> tuple[Path, Path | None]:
    path = Path(entry)
    if path.is_dir():
        results = path / RESULTS_NAME
        manifest = path / MANIFEST_NAME
        return results, manifest if manifest.is_file() else None
    manifest = path.parent / MANIFEST_NAME
    return path, manifest if manifest.is_file() else None


def cmd_eval(args: argparse.Namespace) -> int:
    _check_fps(args.fps)
    if args.merge_window < 0:
        raise ConfigError(f"--merge-window must be non-negative, got {args.merge_window}")
    match_cfg = MatchConfig(criterion=args.match, iou_match_threshold=args.match_threshold)
    annotations = load_annotations(Path(args.annotations))

    inputs = []
    for index, entry in enumerate(args.results):
        results_path, manifest_path = _results_source(entry)
        if not results_path.is_file():
            raise DataFormatError(f"results file not found: {results_path}")
        results = load_results(results_path)
        if manifest_path is not None:
            try:
                info = from_json(RunManifest, read_json(manifest_path, DataFormatError), "manifest").input
            except ConfigError as exc:
                raise DataFormatError(f"{manifest_path}: {exc}") from exc
            video_id, fps, frame_count = info.video_id, info.fps, info.frame_count
        else:
            video_id = results_path.parent.name or f"run-{index:03d}"
            fps = args.fps
            frame_count = 0
        video_annotations = tuple(a for a in annotations if a.video_id == video_id)
        if not frame_count:
            candidates = [r.frame_index for r in results]
            candidates += [a.frame_index for a in video_annotations]
            frame_count = max(candidates) + 1 if candidates else 0
        if frame_count < 1:
            raise DataFormatError(f"cannot determine frame count for {results_path}")
        inputs.append(
            VideoEvalInput(
                video_id=video_id,
                fps=fps,
                frame_count=frame_count,
                annotations=video_annotations,
                detections_by_frame={r.frame_index: r.detections for r in results},
            )
        )

    report = evaluate_videos(inputs, match_cfg, args.merge_window)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "metrics.json", lambda p: write_metrics_json(p, report))
    _atomic_write(out / "clips.csv", lambda p: write_clips_csv(p, report.clip_records))
    _atomic_write(out / "recall_curve.csv", lambda p: write_recall_curve_csv(p, report.clip_records))
    _atomic_write(out / "fp_cdf.csv", lambda p: write_fp_cdf_csv(p, report.fp_rates))

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
    run.add_argument("--annotations", default=None, help="annotations JSONL for synthetic backends")
    run.add_argument("--fps", type=float, default=None, help="override the stream fps")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="evaluate results files against annotations")
    ev.add_argument("--results", action="append", required=True, help="run directory or results.jsonl (repeatable)")
    ev.add_argument("--annotations", required=True)
    ev.add_argument("--output", required=True)
    ev.add_argument("--match", choices=[CRITERION_IOU, CRITERION_CENTROID], default=CRITERION_IOU)
    ev.add_argument("--match-threshold", type=float, default=0.5)
    ev.add_argument("--fps", type=float, default=60.0, help="fps fallback when no run manifest is present")
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
