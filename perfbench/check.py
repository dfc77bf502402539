"""Correctness check: every results row against a single-threaded reference.

The reference is built here from the stage functions alone:
``heuristic_blur_gate``, ``synthetic_detect``, the stub's configured boxes
clipped to the frame, ``and_ensemble`` / ``size_aware_ensemble`` and
``result_to_dict``. Each ``blurry`` verdict is also checked against the
``datagen.plan_video`` plan, an oracle independent of the gate, and the
run's F1/F2 from ``evaluate_videos`` must equal the reference's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from scopeline.backends.synthetic import SyntheticDetectorConfig, synthetic_detect
from scopeline.datagen import FramePlan
from scopeline.ensemble import MODE_SIZE_AWARE, and_ensemble, size_aware_ensemble
from scopeline.errors import DataFormatError
from scopeline.evaluation import VideoEvalInput, evaluate_videos
from scopeline.geometry import SOURCE_A, SOURCE_B, BoundingBox, ScoredBox
from scopeline.media import Frame, decode_ppm, frame_filename, heuristic_blur_gate
from scopeline.pipeline import PipelineConfig, PipelineResult, load_results, result_to_dict


def _row(result: PipelineResult) -> str:
    return json.dumps(result_to_dict(result), separators=(",", ":"))


def stub_answer(boxes, source: str, width: int, height: int) -> list[ScoredBox]:
    """What the stub backend returns for a frame: its boxes clipped to the frame."""
    answer = []
    for x, y, w, h, score in boxes:
        w = min(w, width - x)
        h = min(h, height - y)
        if x >= 0 and y >= 0 and w >= 1 and h >= 1:
            answer.append(ScoredBox(BoundingBox(x, y, w, h), score, source))
    return answer


@dataclass(frozen=True)
class Reference:
    rows: list[str]
    plans: list[FramePlan]
    eval_input: VideoEvalInput  # with the reference's detections


def build_reference(video_dir: Path, fps: float, plans, truth, config: PipelineConfig, stub_boxes) -> Reference:
    """``stub_boxes`` maps a detector slot ("a"/"b") to its stub boxes, or None if synthetic."""
    results = []
    for plan in plans:
        i = plan.frame_index
        width, height, pixels = decode_ppm((video_dir / frame_filename(i)).read_bytes())
        frame = Frame(i, i * 1000.0 / fps, width, height, pixels)
        if heuristic_blur_gate(frame, config.gate.threshold):
            results.append(PipelineResult(i, True, (), {}))
            continue

        def detect(spec, boxes, source):
            if isinstance(spec, SyntheticDetectorConfig):
                return synthetic_detect(spec, i, truth.get(i), width, height, source)
            return stub_answer(boxes, source, width, height)

        boxes_a = detect(config.detector_a, stub_boxes["a"], SOURCE_A)
        if config.ensemble.mode == MODE_SIZE_AWARE:
            fused, _ = size_aware_ensemble(
                boxes_a, lambda: detect(config.detector_b, stub_boxes["b"], SOURCE_B),
                width, height, config.ensemble,
            )
        else:
            boxes_b = detect(config.detector_b, stub_boxes["b"], SOURCE_B)
            fused = and_ensemble(boxes_a, boxes_b, config.ensemble)
        results.append(PipelineResult(i, False, tuple(fused), {}))
    return Reference(
        rows=[_row(r) for r in results],
        plans=plans,
        eval_input=_eval_input(results, fps, len(plans), truth),
    )


def _eval_input(results, fps: float, frame_count: int, truth) -> VideoEvalInput:
    return VideoEvalInput(
        video_id="video-000",
        fps=fps,
        frame_count=frame_count,
        annotations=tuple(truth[i] for i in sorted(truth)),
        detections_by_frame={r.frame_index: r.detections for r in results},
    )


def f_scores(eval_input: VideoEvalInput) -> tuple:
    metrics = evaluate_videos([eval_input]).metrics
    return metrics.f1, metrics.f2


@dataclass
class RunCheck:
    frame_ok: list[bool]
    problems: list[str]

    @property
    def failed(self) -> int:
        return self.frame_ok.count(False)


def check_run(results_path: Path, reference: Reference, fps: float, truth, timed_eval=None) -> RunCheck:
    """Compare one run's results.jsonl with the reference, frame by frame.

    A frame fails when its row is missing, carries an error, differs from the
    reference row, or has a ``blurry`` verdict the plan contradicts. If the
    run's F1/F2 differ from the reference's, every frame of the run fails.
    ``timed_eval`` wraps the run's ``evaluate_videos`` call when traced.
    """
    n = len(reference.rows)
    problems = []
    lines = results_path.read_text(encoding="utf-8").splitlines() if results_path.is_file() else []
    if len(lines) != n:
        problems.append(f"{len(lines)} result rows for {n} frames")
    frame_ok = []
    for i in range(n):
        got = lines[i] if i < len(lines) else None
        if got != reference.rows[i]:
            problem = f"frame {i}: got {got!r}, want {reference.rows[i]!r}"
        elif json.loads(got)["blurry"] != reference.plans[i].blurry:
            problem = f"frame {i}: blurry verdict contradicts the dataset plan"
        else:
            problem = None
        frame_ok.append(problem is None)
        if problem is not None and len(problems) < 5:
            problems.append(problem)
    if len(lines) == n:
        try:
            run_results = load_results(results_path)
        except DataFormatError as exc:
            problems.append(f"results do not load: {exc}")
            return RunCheck([False] * n, problems)
        evaluate = timed_eval or f_scores
        got = evaluate(_eval_input(run_results, fps, n, truth))
        want = f_scores(reference.eval_input)
        if got != want:
            problems.append(f"F1/F2 {got} differ from the reference's {want}")
            frame_ok = [False] * n
    return RunCheck(frame_ok, problems)
