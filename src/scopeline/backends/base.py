"""Backend interfaces shared by the pipeline: detectors and blur gates."""

from __future__ import annotations

from typing import Protocol

from ..geometry import ScoredBox
from ..media import DEFAULT_BLUR_THRESHOLD, Frame, LaplacianVarianceScorer


class DetectorBackend(Protocol):
    """One polyp detector slot.

    ``detect`` sees only the frame, as a real detector does, and must be
    deterministic for a fixed backend state and frame. A simulated detector
    that needs ground truth is given it when it is built.
    """

    def detect(self, frame: Frame) -> list[ScoredBox]: ...


class BlurGate(Protocol):
    """Frame-level blur verdict; True means drop the frame before detection."""

    def is_blurry(self, frame: Frame) -> bool: ...


class HeuristicBlurGate:
    """Laplacian-variance gate standing in for a trained blur classifier.

    Blurry when the frame's exact Laplacian variance is below ``threshold``.
    A probe of the frame's 16 centre Laplacian rows returns clear, exactly,
    when those rows alone prove it (the subset bound in ``media``); any
    other frame takes the scorer's full pass. The gate's one scorer keeps
    its work buffers from frame to frame, and ``threshold`` is read on
    every call.
    """

    def __init__(self, threshold: float = DEFAULT_BLUR_THRESHOLD):
        self.threshold = threshold
        self._scorer = LaplacianVarianceScorer()

    def is_blurry(self, frame: Frame) -> bool:
        threshold = self.threshold
        if self._scorer.centre_proves_clear(frame, threshold):
            return False
        return self._scorer.variance(frame) < threshold
