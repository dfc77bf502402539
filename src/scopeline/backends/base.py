"""Backend interfaces shared by the pipeline: detectors and blur gates."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..annotations import FrameAnnotation
from ..geometry import ScoredBox
from ..media import DEFAULT_BLUR_THRESHOLD, Frame, LaplacianVarianceScorer


@runtime_checkable
class DetectorBackend(Protocol):
    """One polyp detector slot.

    ``detect`` must be deterministic for a fixed backend state and frame.
    ``truth`` is consumed by synthetic backends and ignored by real ones.
    """

    def detect(self, frame: Frame, truth: FrameAnnotation | None = None) -> list[ScoredBox]: ...


@runtime_checkable
class BlurGate(Protocol):
    """Frame-level blur verdict; True means drop the frame before detection."""

    def is_blurry(self, frame: Frame) -> bool: ...


class HeuristicBlurGate:
    """Laplacian-variance gate standing in for a trained blur classifier.

    Blurry when the frame's exact Laplacian variance is below ``threshold``;
    the gate's one scorer keeps its work buffers from frame to frame.
    """

    def __init__(self, threshold: float = DEFAULT_BLUR_THRESHOLD):
        self.threshold = threshold
        self._scorer = LaplacianVarianceScorer()

    def is_blurry(self, frame: Frame) -> bool:
        return self._scorer.variance(frame) < self.threshold
