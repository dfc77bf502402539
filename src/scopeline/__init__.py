"""Real-time multi-detector video pipeline with blur gating and IoU ensembling."""

__version__ = "0.1.0"
