"""Detector and blur-gate backends: synthetic simulation and external processes."""
