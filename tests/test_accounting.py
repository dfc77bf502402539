"""Exact oracle for the per-frame latency accounting of every pipeline mode.

A fake clock replaces ``perf_counter`` in the pipeline, and only the fake
gate, detectors and ensemble advance it, by whole ticks of 1/1024 s. Every
real time is then a binary fraction of a millisecond, and so is every
simulated cost below, so each expected value is exact and checked with
``==``. The expected values follow the rule of the pipeline's docstring: a
stage reports its real time (less the stages nested in it) plus its
simulated cost, and ``total_wall`` is the frame's real wall time plus the
simulated costs, with an overlapped block charged its slowest stage's
accounted time in place of its wall time.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from scopeline import pipeline as pipeline_module
from scopeline.backends.synthetic import SyntheticDetectorConfig
from scopeline.ensemble import EnsembleConfig
from scopeline.geometry import BoundingBox, ScoredBox
from scopeline.pipeline import GateConfig, Pipeline, PipelineConfig

from conftest import solid_frame

TICK_MS = 1000.0 / 1024  # 0.9765625 ms, exact in binary

# Real ticks each fake spends, and the simulated ms its config charges.
GATE_TICKS, GATE_MS = 3, 3.0
A_TICKS, A_MS = 5, 20.0
B_TICKS, B_MS = 7, 12.5
ENSEMBLE_TICKS = 2  # the ensemble charges no simulated cost

WIDTH = HEIGHT = 100
LARGE = BoundingBox(30, 30, 40, 40)  # short edge 0.4 of the image: B must confirm it
SMALL = BoundingBox(10, 10, 5, 5)  # short edge 0.05: passes without B


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0  # seconds

    def __call__(self) -> float:
        return self.now

    def advance(self, ticks: int) -> None:
        self.now += ticks / 1024


class FakeGate:
    def __init__(self, clock: FakeClock, blurry: bool):
        self.clock, self.blurry = clock, blurry

    def is_blurry(self, frame) -> bool:
        self.clock.advance(GATE_TICKS)
        return self.blurry


class FakeDetector:
    def __init__(self, clock: FakeClock, ticks: int, boxes: tuple[BoundingBox, ...]):
        self.clock, self.ticks, self.boxes = clock, ticks, boxes
        self.calls = 0

    def detect(self, frame) -> list[ScoredBox]:
        self.calls += 1
        self.clock.advance(self.ticks)
        return [ScoredBox(box, 0.9) for box in self.boxes]


class SyncPool:
    """A stand-in for the detector pool that runs each call on submit."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


def ticking(fn, clock: FakeClock):
    def run(*args):
        clock.advance(ENSEMBLE_TICKS)
        return fn(*args)

    return run


def account(monkeypatch, execution: str, mode: str, blurry: bool, a_box: BoundingBox) -> tuple[dict, int]:
    """The stage latencies of one frame, and how often detector B ran."""
    clock = FakeClock()
    monkeypatch.setattr(pipeline_module, "perf_counter", clock)
    for name in ("and_ensemble", "size_aware_ensemble"):
        monkeypatch.setattr(pipeline_module, name, ticking(getattr(pipeline_module, name), clock))
    config = PipelineConfig(
        detector_a=SyntheticDetectorConfig(seed=1, simulated_latency_ms=A_MS),
        detector_b=SyntheticDetectorConfig(seed=2, simulated_latency_ms=B_MS),
        gate=GateConfig(simulated_latency_ms=GATE_MS),
        ensemble=EnsembleConfig(mode=mode),
        execution=execution,
    )
    with Pipeline(config) as pipeline:
        pipeline.gate = FakeGate(clock, blurry)
        pipeline.detector_a = FakeDetector(clock, A_TICKS, (a_box,))
        pipeline.detector_b = detector_b = FakeDetector(clock, B_TICKS, (LARGE,))
        if pipeline._pool is not None:
            pipeline._pool.shutdown()
            pipeline._pool = SyncPool()
        result = pipeline.process_frame(solid_frame((90, 40, 40), WIDTH, HEIGHT))
    assert result.blurry == blurry
    return result.stage_latencies, detector_b.calls


GATE = 3 * TICK_MS + 3.0
A = 5 * TICK_MS + 20.0
B = 7 * TICK_MS + 12.5
ENSEMBLE = 2 * TICK_MS


@pytest.mark.parametrize(
    "execution, mode, a_box, expected, b_calls",
    [
        # Every stage in turn: the frame's 17 real ticks plus 3 + 20 + 12.5 ms.
        (
            "sequential", "and", LARGE,
            {"gate": GATE, "detector_a": A, "detector_b": B, "ensemble": ENSEMBLE,
             "total_wall": 17 * TICK_MS + 35.5},
            1,
        ),
        # The block of A and B ran 12 real ticks (the stand-in pool runs them in
        # turn) and is charged max(A, B) = A = 5 ticks + 20 ms in their place:
        # 17 ticks + 3 ms + (5 ticks + 20 ms - 12 ticks) = 10 ticks + 23 ms.
        (
            "parallel", "and", LARGE,
            {"gate": GATE, "detector_a": A, "detector_b": B, "ensemble": ENSEMBLE,
             "total_wall": 10 * TICK_MS + 23.0},
            1,
        ),
        # A small A box needs no confirmation: B never runs.
        (
            "sequential", "size_aware", SMALL,
            {"gate": GATE, "detector_a": A, "ensemble": ENSEMBLE, "total_wall": 10 * TICK_MS + 23.0},
            0,
        ),
        # B runs inside the ensemble stage, whose real time excludes B's 7 ticks.
        (
            "sequential", "size_aware", LARGE,
            {"gate": GATE, "detector_a": A, "detector_b": B, "ensemble": ENSEMBLE,
             "total_wall": 17 * TICK_MS + 35.5},
            1,
        ),
        # The size-aware rule runs its detectors in turn in parallel mode too.
        (
            "parallel", "size_aware", LARGE,
            {"gate": GATE, "detector_a": A, "detector_b": B, "ensemble": ENSEMBLE,
             "total_wall": 17 * TICK_MS + 35.5},
            1,
        ),
    ],
    ids=["sequential-and", "parallel-and", "size-aware-b-skipped", "size-aware-b-run", "parallel-size-aware"],
)
def test_clear_frame_accounting(monkeypatch, execution, mode, a_box, expected, b_calls):
    latencies, calls = account(monkeypatch, execution, mode, False, a_box)
    assert latencies == expected
    assert calls == b_calls


@pytest.mark.parametrize("execution", ["sequential", "parallel"])
def test_blurry_frame_is_charged_the_gate_alone(monkeypatch, execution):
    latencies, calls = account(monkeypatch, execution, "and", True, LARGE)
    assert latencies == {"gate": GATE, "total_wall": GATE}
    assert calls == 0
