"""Real-time multi-detector video pipeline with blur gating and IoU ensembling."""

__version__ = "0.1.0"

from .annotations import FrameAnnotation, LabeledBox
from .ensemble import EnsembleConfig, and_ensemble, size_aware_ensemble
from .evaluation import ConfusionCounts, MatchConfig, match_frame, prf
from .geometry import BoundingBox, ScoredBox, iou, nms, short_edge_ratio
from .media import Frame, decode_ppm, encode_ppm, heuristic_blur_gate
from .pipeline import Pipeline, PipelineConfig, PipelineResult

__all__ = [
    "__version__",
    "FrameAnnotation",
    "LabeledBox",
    "EnsembleConfig",
    "and_ensemble",
    "size_aware_ensemble",
    "ConfusionCounts",
    "MatchConfig",
    "match_frame",
    "prf",
    "BoundingBox",
    "ScoredBox",
    "iou",
    "nms",
    "short_edge_ratio",
    "Frame",
    "decode_ppm",
    "encode_ppm",
    "heuristic_blur_gate",
    "Pipeline",
    "PipelineConfig",
    "PipelineResult",
]
