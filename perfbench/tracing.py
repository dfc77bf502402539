"""Timing hooks installed around the program's public functions, and span statistics.

The hooks live in the benchmark: they replace attributes of ``scopeline``
modules and classes with wrappers inside the benchmark's child process, so
the program's source is untouched. Untraced runs install only the two hooks
the end-to-end metrics need: the first frame read, and each result reaching
the sink. Traced runs also record a span per call at every layer boundary.

A span is ``(name, start_ns, end_ns, span_id, parent_id, frame_index)``. Its
parent is the innermost open span of the calling thread. A detector call in
a pool thread has none there, so it attaches to the open
``pipeline.process_frame`` span of the same frame.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from time import monotonic_ns

READ_FRAME = "media.read_frame"
IS_BLURRY = "backends.base.is_blurry"
REQUEST = "backends.external.request"
ENCODE_MESSAGE = "backends.protocol.encode_message"
SIZE_AWARE = "ensemble.size_aware_ensemble"
PROCESS_FRAME = "pipeline.process_frame"
SERIALIZE = "pipeline.result_to_dict"
EVALUATE = "evaluation.evaluate_videos"

SPAN_NAMES = (
    READ_FRAME,
    IS_BLURRY,
    "backends.synthetic.detect.a",
    "backends.synthetic.detect.b",
    "backends.external.detect.a",
    "backends.external.detect.b",
    REQUEST,
    "backends.protocol.encode_detect_request",
    ENCODE_MESSAGE,
    "ensemble.and_ensemble",
    SIZE_AWARE,
    PROCESS_FRAME,
    SERIALIZE,
    EVALUATE,
)
# Spans that contain other spans, and so also get a self time.
PARENT_SPANS = (
    "backends.external.detect.a",
    "backends.external.detect.b",
    REQUEST,
    SIZE_AWARE,
    PROCESS_FRAME,
)


def _frame_index_of(args: tuple) -> int | None:
    """Frame index carried by a Frame, a PipelineResult or a protocol body."""
    for arg in args:
        if isinstance(arg, dict) and "frame_index" in arg:
            return arg["frame_index"]
        index = getattr(arg, "frame_index", None)
        if isinstance(index, int):
            return index
    return None


class Recorder:
    """Collects the hook timestamps and spans of one program run, in memory."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.first_read_ns: int | None = None
        self.on_first_read = None  # called once, right after the first read is stamped
        self.sink_ns: list[int] = []
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = {}
        self.counters = {"gate_drops": 0, "b_invoked": 0, "bytes_out": 0}
        self._count_lock = threading.Lock()  # detector pool threads update both dicts
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_frames: dict[int, int] = {}

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, func, args: tuple, kwargs: dict, frame_index=None):
        """Call ``func`` inside a span named ``name``."""
        stack = self._stack()
        if frame_index is None:
            frame_index = _frame_index_of(args)
        if stack:
            parent_id, parent_frame = stack[-1]
            if frame_index is None:
                frame_index = parent_frame
        else:
            parent_id = self._open_frames.get(frame_index)
        span_id = next(self._ids)
        stack.append((span_id, frame_index))
        if name == PROCESS_FRAME:
            self._open_frames[frame_index] = span_id
        start = monotonic_ns()
        try:
            return func(*args, **kwargs)
        except Exception:
            with self._count_lock:
                self.errors[name] = self.errors.get(name, 0) + 1
            raise
        finally:
            end = monotonic_ns()
            stack.pop()
            if name == PROCESS_FRAME:
                self._open_frames.pop(frame_index, None)
            self.spans.append((name, start, end, span_id, parent_id, frame_index))

    def _traced(self, func, name, on_result=None):
        """Wrap ``func`` in a span; ``name`` may be a function of the call's arguments."""
        span_name = name if callable(name) else (lambda *_: name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            result = self.span(span_name(*args), func, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _add(self, key: str, amount) -> None:
        with self._count_lock:
            self.counters[key] += int(amount)

    def install(self) -> None:
        from scopeline import cli, pipeline
        from scopeline.backends import base, external, protocol, synthetic
        from scopeline.media import DirectoryFrameStream

        read_frame = DirectoryFrameStream.read_frame

        @functools.wraps(read_frame)
        def hooked_read_frame(stream, frame_index):
            if self.first_read_ns is None:
                self.first_read_ns = monotonic_ns()
                if self.on_first_read is not None:
                    self.on_first_read()
            if self.trace:
                return self.span(READ_FRAME, read_frame, (stream, frame_index), {}, frame_index)
            return read_frame(stream, frame_index)

        DirectoryFrameStream.read_frame = hooked_read_frame

        serialize = cli.result_to_dict
        if self.trace:
            serialize = self._traced(serialize, SERIALIZE)

        @functools.wraps(serialize)
        def sink_result_to_dict(result):
            self.sink_ns.append(monotonic_ns())
            return serialize(result)

        cli.result_to_dict = sink_result_to_dict
        if not self.trace:
            return

        def wrap(owner, attr: str, name, on_result=None) -> None:
            setattr(owner, attr, self._traced(getattr(owner, attr), name, on_result))

        def by_source(prefix: str):
            # Backends carry source tags "detector-A" / "detector-B".
            return lambda backend, *_: f"{prefix}.{backend.source[-1].lower()}"

        wrap(base.HeuristicBlurGate, "is_blurry", IS_BLURRY, lambda blurry: self._add("gate_drops", blurry))
        wrap(synthetic.SyntheticDetector, "detect", by_source("backends.synthetic.detect"))
        wrap(external.ExternalDetectorBackend, "detect", by_source("backends.external.detect"))
        wrap(external.ExternalClient, "request", REQUEST)
        wrap(protocol, "encode_detect_request", "backends.protocol.encode_detect_request")
        wrap(protocol, "encode_message", ENCODE_MESSAGE, lambda data: self._add("bytes_out", len(data)))
        wrap(pipeline, "and_ensemble", "ensemble.and_ensemble")
        wrap(pipeline, "size_aware_ensemble", SIZE_AWARE, lambda out: self._add("b_invoked", out[1]))
        wrap(pipeline.Pipeline, "process_frame", PROCESS_FRAME)
        wrap(pipeline, "result_to_dict", SERIALIZE)


# -- statistics over recorded spans (benchmark parent) ---------------------


def nearest_rank(values, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _covered_ns(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Length of the union of child intervals, clipped to [start, end]."""
    covered = 0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def span_stats(spans) -> dict[str, dict]:
    """Per span name: call count, busy and self time (ms) and per-call durations (ms)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, _span_id, parent_id, _frame in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    stats = {
        name: {"count": 0, "busy_ms": 0.0, "self_ms": 0.0, "durations_ms": []} for name in SPAN_NAMES
    }
    for name, start, end, span_id, _parent_id, _frame in spans:
        entry = stats[name]
        duration_ns = end - start
        entry["count"] += 1
        entry["busy_ms"] += duration_ns / 1e6
        entry["self_ms"] += (duration_ns - _covered_ns(start, end, children.get(span_id, []))) / 1e6
        entry["durations_ms"].append(duration_ns / 1e6)
    return stats
