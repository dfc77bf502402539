"""Detector and blur-gate backends: synthetic simulation and external processes."""

from .base import BlurGate, DetectorBackend, HeuristicBlurGate
from .external import ExternalBlurGate, ExternalClient, ExternalDetectorBackend, SocketTransport
from .synthetic import SyntheticDetector, SyntheticDetectorConfig, synthetic_detect

__all__ = [
    "BlurGate",
    "DetectorBackend",
    "HeuristicBlurGate",
    "ExternalBlurGate",
    "ExternalClient",
    "ExternalDetectorBackend",
    "SocketTransport",
    "SyntheticDetector",
    "SyntheticDetectorConfig",
    "synthetic_detect",
]
