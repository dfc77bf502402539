"""Latency benchmark: simulated per-stage costs over an in-memory stream.

The default profile charges 3 ms to the blur gate and 20 ms to each
detector, so a clear frame accounts to about 43 ms sequentially
(3 + 20 + 20) and about 23 ms with overlapped detectors (3 + max(20, 20)),
while a blurry frame accounts to about 3 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends.synthetic import SyntheticDetectorConfig
from .datagen import DatasetSpec, plan_video, render_frame
from .ensemble import EnsembleConfig
from .errors import ConfigError
from .media import MemoryFrameStream
from .pipeline import (
    EXECUTION_PARALLEL,
    EXECUTION_SEQUENTIAL,
    GateConfig,
    Pipeline,
    PipelineConfig,
    STAGE_TOTAL,
)

DEFAULT_PROFILE = (3.0, 20.0, 20.0)


@dataclass(frozen=True)
class BenchSpec:
    frames: int = 240
    width: int = 160
    height: int = 120
    blur_fraction: float = 0.0
    seed: int = 0
    profile: tuple[float, float, float] = DEFAULT_PROFILE  # gate, detector A, detector B (ms)
    ensemble: EnsembleConfig = EnsembleConfig()

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ConfigError(f"bench needs at least one frame, got {self.frames}")
        if any(cost < 0 for cost in self.profile):
            raise ConfigError(f"profile costs must be non-negative, got {self.profile}")


def make_bench_frames(spec: BenchSpec) -> MemoryFrameStream:
    dataset = DatasetSpec(
        videos=1,
        frames_per_video=spec.frames,
        polyps_per_video=0,
        blur_fraction=spec.blur_fraction,
        seed=spec.seed,
        width=spec.width,
        height=spec.height,
    )
    plans = plan_video(dataset, 0)
    frames = [render_frame(plan, dataset) for plan in plans]
    return MemoryFrameStream(frames, fps=dataset.fps, video_id="bench")


def _pipeline_config(spec: BenchSpec, execution: str) -> PipelineConfig:
    gate_ms, det_a_ms, det_b_ms = spec.profile
    return PipelineConfig(
        detector_a=SyntheticDetectorConfig(seed=1, simulated_latency_ms=det_a_ms),
        detector_b=SyntheticDetectorConfig(seed=2, simulated_latency_ms=det_b_ms),
        gate=GateConfig(kind="heuristic", simulated_latency_ms=gate_ms),
        ensemble=spec.ensemble,
        execution=execution,
    )


def run_bench(spec: BenchSpec, modes: tuple[str, ...] = (EXECUTION_SEQUENTIAL, EXECUTION_PARALLEL)) -> dict:
    """Run the bench stream through each execution mode and report accounted costs."""
    stream = make_bench_frames(spec)
    report: dict = {
        "frames": spec.frames,
        "width": spec.width,
        "height": spec.height,
        "blur_fraction": spec.blur_fraction,
        "profile": {
            "gate_ms": spec.profile[0],
            "detector_a_ms": spec.profile[1],
            "detector_b_ms": spec.profile[2],
        },
        "modes": {},
    }
    for mode in modes:
        clear_totals: list[float] = []
        blurry_totals: list[float] = []

        def sink(result) -> None:
            total = result.stage_latencies.get(STAGE_TOTAL)
            if total is None:
                return
            (blurry_totals if result.blurry else clear_totals).append(total)

        with Pipeline(_pipeline_config(spec, mode)) as pipeline:
            summary = pipeline.process_stream(stream, sink)
        report["modes"][mode] = {
            "clear_ms_mean": sum(clear_totals) / len(clear_totals) if clear_totals else None,
            "blurry_ms_mean": sum(blurry_totals) / len(blurry_totals) if blurry_totals else None,
            "fps": summary.latency.throughput_fps,
            "stages": summary.latency.to_dict()["stages"],
        }
    return report


def format_bench_table(report: dict) -> str:
    lines = [
        f"bench: {report['frames']} frames at {report['width']}x{report['height']}, "
        f"blur fraction {report['blur_fraction']:g}",
        f"profile: gate {report['profile']['gate_ms']:g} ms, "
        f"detector A {report['profile']['detector_a_ms']:g} ms, "
        f"detector B {report['profile']['detector_b_ms']:g} ms",
        f"{'mode':<12} {'clear ms':>10} {'blurry ms':>10} {'fps':>8}",
    ]
    for mode, stats in report["modes"].items():
        clear = f"{stats['clear_ms_mean']:.2f}" if stats["clear_ms_mean"] is not None else "-"
        blurry = f"{stats['blurry_ms_mean']:.2f}" if stats["blurry_ms_mean"] is not None else "-"
        fps = f"{stats['fps']:.2f}" if stats["fps"] is not None else "-"
        lines.append(f"{mode:<12} {clear:>10} {blurry:>10} {fps:>8}")
    return "\n".join(lines)
