"""Per-frame orchestration: blur gate, detector pair, ensemble, latency accounting.

Each stage of a frame records its real time (monotonic clock, less any stage
nested in it) and the simulated latency its config charges, so the
paper-scale timing arithmetic is testable in milliseconds of real time. A
stage's accounted time is its real time plus its simulated latency. The
accounting rule: ``total_wall`` is the frame's real wall time plus a
surcharge. Each stage adds its simulated latency to it; the overlapped
detector block of parallel execution instead adds its slower stage's
accounted time less the block's real wall time.

Execution modes: ``sequential`` runs detector A then B; ``parallel``
overlaps them. The size-aware ensemble decides whether B runs at all from
A's output, so its detector invocations are inherently sequential in both
modes.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Sequence

import numpy as np

from .annotations import FrameAnnotation, iter_jsonl
from .backends.base import BlurGate, DetectorBackend, HeuristicBlurGate
from .backends.external import ExternalBlurGate, ExternalClient, ExternalDetectorBackend, SocketTransport
from .backends.synthetic import SyntheticDetector, SyntheticDetectorConfig
from .codec import from_json
from .ensemble import MODE_SIZE_AWARE, EnsembleConfig, and_ensemble, size_aware_ensemble
from .errors import ConfigError, DataFormatError, ScopelineError
from .geometry import JSON_NUMBER, SOURCE_A, SOURCE_B, ScoredBox, box_from_dict, box_to_dict, json_field
from .media import DEFAULT_BLUR_THRESHOLD, Frame

STAGE_GATE = "gate"
STAGE_DETECTOR_A = "detector_a"
STAGE_DETECTOR_B = "detector_b"
STAGE_ENSEMBLE = "ensemble"
STAGE_TOTAL = "total_wall"

GATE_HEURISTIC = "heuristic"
GATE_EXTERNAL = "external"
GATE_DISABLED = "disabled"

EXECUTION_SEQUENTIAL = "sequential"
EXECUTION_PARALLEL = "parallel"

TRANSPORT_SUBPROCESS = "subprocess"
TRANSPORT_TCP = "tcp"


@dataclass(frozen=True)
class ExternalBackendSpec:
    """Where an out-of-process backend lives."""

    transport: str = TRANSPORT_SUBPROCESS
    command: tuple[str, ...] = ()
    host: str = "127.0.0.1"
    port: int = 0

    KIND = "external"  # a detector spec's "kind" in config files

    def __post_init__(self) -> None:
        if self.transport not in (TRANSPORT_SUBPROCESS, TRANSPORT_TCP):
            raise ConfigError(f"transport must be 'subprocess' or 'tcp', got {self.transport!r}")
        if self.transport == TRANSPORT_SUBPROCESS and not self.command:
            raise ConfigError("subprocess backend needs a non-empty 'command'")
        if self.transport == TRANSPORT_TCP and not 0 < self.port < 65536:
            raise ConfigError(f"tcp backend needs a port in (0, 65536), got {self.port}")


@dataclass(frozen=True)
class GateConfig:
    kind: str = GATE_HEURISTIC
    threshold: float = DEFAULT_BLUR_THRESHOLD
    simulated_latency_ms: float = 0.0
    external: ExternalBackendSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in (GATE_HEURISTIC, GATE_EXTERNAL, GATE_DISABLED):
            raise ConfigError(f"gate kind must be heuristic/external/disabled, got {self.kind!r}")
        if self.kind == GATE_EXTERNAL and self.external is None:
            raise ConfigError("external gate needs an 'external' backend spec")
        if self.simulated_latency_ms < 0.0:
            raise ConfigError("gate simulated_latency_ms must be non-negative")


DetectorSpec = SyntheticDetectorConfig | ExternalBackendSpec


@dataclass(frozen=True)
class PipelineConfig:
    detector_a: DetectorSpec
    detector_b: DetectorSpec
    gate: GateConfig = GateConfig()
    ensemble: EnsembleConfig = EnsembleConfig()
    execution: str = EXECUTION_SEQUENTIAL

    def __post_init__(self) -> None:
        if self.execution not in (EXECUTION_SEQUENTIAL, EXECUTION_PARALLEL):
            raise ConfigError(
                f"execution must be 'sequential' or 'parallel', got {self.execution!r}"
            )

    @classmethod
    def from_dict(cls, raw: Mapping) -> PipelineConfig:
        """The config of a JSON object; ConfigError on any fault."""
        return from_json(cls, raw, "config")


@dataclass(frozen=True)
class PipelineResult:
    """Per-frame outcome: blur verdict, final detections, per-stage latencies."""

    frame_index: int
    blurry: bool
    detections: tuple[ScoredBox, ...]
    stage_latencies: dict[str, float]
    error: str | None = None


def _nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    rank = math.ceil(fraction * len(sorted_values))
    return float(sorted_values[min(max(rank, 1), len(sorted_values)) - 1])


def latency_report(samples: Mapping[str, Sequence[float]], frames: int) -> dict:
    """The ``latency_report.json`` document for a run's per-stage samples (ms).

    Each stage with samples, in name order, gets its mean, nearest-rank p50
    and p95, max and count. ``throughput_fps`` is the accounted throughput
    ``1000 n / sum(total_wall)``, or None when no frame has a total. Each
    stage is sorted as a copy in doubles, 8 bytes a sample.
    """
    stages = {}
    for name in sorted(samples):
        values = samples[name]
        if values:
            ordered = np.sort(values)
            stages[name] = {
                "mean": sum(values) / len(values),
                "p50": _nearest_rank(ordered, 0.50),
                "p95": _nearest_rank(ordered, 0.95),
                "max": float(ordered[-1]),
                "count": len(values),
            }
    totals = samples.get(STAGE_TOTAL, ())
    return {
        "frames": frames,
        "throughput_fps": 1000.0 * len(totals) / sum(totals) if totals else None,
        "stages": stages,
    }


def _connect(spec: ExternalBackendSpec) -> ExternalClient:
    if spec.transport == TRANSPORT_SUBPROCESS:
        return ExternalClient(SocketTransport.spawn(spec.command))
    return ExternalClient(SocketTransport.connect(spec.host, spec.port))


def build_detector(spec: DetectorSpec, source: str, truth: Mapping[int, FrameAnnotation]) -> DetectorBackend:
    if isinstance(spec, SyntheticDetectorConfig):
        return SyntheticDetector(spec, source, truth)
    return ExternalDetectorBackend(_connect(spec), source)


def build_gate(config: GateConfig) -> BlurGate | None:
    if config.kind == GATE_DISABLED:
        return None
    if config.kind == GATE_HEURISTIC:
        return HeuristicBlurGate(config.threshold)
    return ExternalBlurGate(_connect(config.external))


def _timed(fn: Callable, *args) -> tuple[object, float]:
    """``fn(*args)`` and the real milliseconds it took."""
    start = perf_counter()
    result = fn(*args)
    return result, (perf_counter() - start) * 1000.0


class StageTimer:
    """One frame's stage clock: ``(real_ms, simulated_ms)`` per stage, from a table of simulated ms.

    A stage's real time excludes the stages nested inside it. ``total_wall``
    is the frame's real wall time plus a surcharge, by the module docstring's rule.
    """

    def __init__(self, simulated_ms: Mapping[str, float]) -> None:
        self.stages: dict[str, tuple[float, float]] = {}
        self._simulated = simulated_ms
        self._start = perf_counter()
        # Real ms of the finished stages nested in each open stage; [0] is the frame.
        self._nested = [0.0]
        self._surcharge = 0.0

    def run(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` as stage ``name`` and return its result."""
        simulated = self._simulated[name]
        self._nested.append(0.0)
        result, real_ms = _timed(fn, *args)
        self.stages[name] = (real_ms - self._nested.pop(), simulated)
        self._nested[-1] += real_ms
        self._surcharge += simulated
        return result

    def run_overlapped(self, pool: ThreadPoolExecutor, *calls: tuple) -> list:
        """Run each ``(name, fn, *args)`` call as a stage, all at once on ``pool``.

        Waits for every call before raising the first failure, so that no
        call outlives its frame.
        """
        start = perf_counter()
        futures = [pool.submit(_timed, fn, *args) for _name, fn, *args in calls]
        wait(futures)
        wall_ms = (perf_counter() - start) * 1000.0
        self._nested[-1] += wall_ms
        results = []
        for (name, *_), future in zip(calls, futures):
            result, real_ms = future.result()
            self.stages[name] = (real_ms, self._simulated[name])
            results.append(result)
        self._surcharge += max(sum(self.stages[name]) for name, *_ in calls) - wall_ms
        return results

    def latencies(self) -> dict[str, float]:
        """Accounted ms per stage, plus the frame's accounted ``total_wall``."""
        accounted = {name: real + simulated for name, (real, simulated) in self.stages.items()}
        accounted[STAGE_TOTAL] = (perf_counter() - self._start) * 1000.0 + self._surcharge
        return accounted


class Pipeline:
    """Owns the gate and detector backends for one run; ``truth`` goes to the synthetic ones."""

    def __init__(
        self,
        config: PipelineConfig,
        truth: Mapping[int, FrameAnnotation] | None = None,
    ):
        self.config = config
        # Simulated ms per stage; an external detector charges none.
        self._simulated = {STAGE_GATE: config.gate.simulated_latency_ms, STAGE_ENSEMBLE: 0.0}
        for stage, spec in ((STAGE_DETECTOR_A, config.detector_a), (STAGE_DETECTOR_B, config.detector_b)):
            self._simulated[stage] = spec.simulated_latency_ms if isinstance(spec, SyntheticDetectorConfig) else 0.0
        truth = dict(truth) if truth else {}
        self._pool: ThreadPoolExecutor | None = None
        self.gate = self.detector_a = self.detector_b = None
        try:
            self.gate = build_gate(config.gate)
            self.detector_a = build_detector(config.detector_a, SOURCE_A, truth)
            self.detector_b = build_detector(config.detector_b, SOURCE_B, truth)
        except BaseException:
            # Close the backends already started, e.g. a gate and A when B cannot start.
            self.close()
            raise
        if config.execution == EXECUTION_PARALLEL:
            self._pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="detector")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for backend in (self.gate, self.detector_a, self.detector_b):
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> Pipeline:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def process_frame(self, frame: Frame) -> PipelineResult:
        """Run one frame through gate, detectors, and ensemble.

        Backend failures propagate as ScopelineError; stream drivers catch
        them and mark the frame failed (see :meth:`process_stream`).
        """
        timer = StageTimer(self._simulated)
        blurry = False
        if self.gate is not None:
            blurry = timer.run(STAGE_GATE, self.gate.is_blurry, frame)
        detections = () if blurry else tuple(self._detect(frame, timer))
        return PipelineResult(frame.frame_index, blurry, detections, timer.latencies())

    def _detect(self, frame: Frame, timer: StageTimer) -> list[ScoredBox]:
        """Both detectors and the ensemble, each timed as its stage."""
        call_a = (STAGE_DETECTOR_A, self.detector_a.detect, frame)
        call_b = (STAGE_DETECTOR_B, self.detector_b.detect, frame)
        ensemble = self.config.ensemble
        if ensemble.mode == MODE_SIZE_AWARE:
            boxes_a = timer.run(*call_a)
            detections, _b_invoked = timer.run(
                STAGE_ENSEMBLE, size_aware_ensemble,
                boxes_a, lambda: timer.run(*call_b), frame.width, frame.height, ensemble,
            )
            return detections
        if self._pool is None:
            boxes_a, boxes_b = timer.run(*call_a), timer.run(*call_b)
        else:
            boxes_a, boxes_b = timer.run_overlapped(self._pool, call_a, call_b)
        return timer.run(STAGE_ENSEMBLE, and_ensemble, boxes_a, boxes_b, ensemble)

    def process_stream(self, stream, sink: Callable[[PipelineResult], None]) -> dict:
        """Process every frame of a stream, delivering results in frame order.

        Frame-level failures (backend faults, undecodable frames) are
        recorded in the result's ``error`` field and do not abort the run.
        Returns the ``latency_report.json`` document, with the blurry and failed frame counts.
        """
        # 8 bytes a sample, where a list of floats takes 32.
        samples: defaultdict[str, array] = defaultdict(lambda: array("d"))
        blurry_frames = 0
        failed_frames = 0
        for frame_index in range(stream.frame_count):
            try:
                frame = stream.read_frame(frame_index)
                result = self.process_frame(frame)
            except (ScopelineError, OSError) as exc:
                failed_frames += 1
                result = PipelineResult(frame_index, False, (), {}, error=str(exc))
            if result.blurry:
                blurry_frames += 1
            for stage, value in result.stage_latencies.items():
                samples[stage].append(value)
            sink(result)
        counts = {"frames": stream.frame_count, "blurry_frames": blurry_frames, "failed_frames": failed_frames}
        return counts | latency_report(samples, stream.frame_count)


def result_to_dict(result: PipelineResult) -> dict:
    """Serializable row for results.jsonl.

    Stage latencies are wall-clock measurements and stay out of the results
    file so reruns are byte-identical; aggregate timing lives in the latency
    report.
    """
    return {
        "frame_index": result.frame_index,
        "blurry": result.blurry,
        "detections": [
            box_to_dict(sb.box, score=sb.score, source=sb.source, label=sb.label) for sb in result.detections
        ],
        "error": result.error,
    }


def result_from_dict(row: Mapping) -> PipelineResult:
    try:
        detections = tuple(
            ScoredBox(
                box_from_dict(d),
                float(json_field(d, "score", JSON_NUMBER)),
                json_field(d, "source", str),
                json_field(d, "label", str),
            )
            for d in row["detections"]
        )
        return PipelineResult(
            frame_index=json_field(row, "frame_index", int),
            blurry=json_field(row, "blurry", bool),
            detections=detections,
            stage_latencies={},
            error=json_field(row, "error", (str, type(None))),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"bad results row: {exc}") from exc


def load_results(path: str | Path) -> list[PipelineResult]:
    """Read a results.jsonl file; raises DataFormatError naming the bad line."""
    return list(iter_jsonl(path, result_from_dict))
