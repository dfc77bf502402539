"""Pipeline config dict codec: round trips, rejections, and old manifests."""

from __future__ import annotations

import copy
import itertools
import json

import pytest

from scopeline.backends.synthetic import MAX_FP_RATE, MAX_JITTER_PX, SyntheticDetectorConfig
from scopeline.ensemble import EnsembleConfig
from scopeline.errors import ConfigError
from scopeline.pipeline import ExternalBackendSpec, GateConfig, PipelineConfig

SUBPROCESS = ExternalBackendSpec("subprocess", command=("backend", "--flag"))
TCP = ExternalBackendSpec("tcp", host="10.0.0.7", port=4500)

GATES = [
    GateConfig("heuristic", threshold=55.5, simulated_latency_ms=1.5),
    GateConfig("external", simulated_latency_ms=2.0, external=SUBPROCESS),
    GateConfig("external", external=TCP),
    GateConfig("disabled"),
]
DETECTORS = [
    SyntheticDetectorConfig(
        seed=9,
        p_tp=0.75,
        fp_rate=1.25,
        jitter_px=3.0,
        tp_score_range=(0.5, 0.9),
        fp_score_range=(0.1, 0.4),
        simulated_latency_ms=12.0,
    ),
    SUBPROCESS,
    TCP,
]
ENSEMBLES = [
    EnsembleConfig(iou_threshold=0.3, mode="and"),
    EnsembleConfig(iou_threshold=0.2, mode="size_aware", short_edge_ratio_threshold=0.15),
]
EXECUTIONS = ["sequential", "parallel"]


def test_round_trip_every_combination():
    for gate, a, b, ensemble, execution in itertools.product(GATES, DETECTORS, DETECTORS, ENSEMBLES, EXECUTIONS):
        config = PipelineConfig(a, b, gate, ensemble, execution)
        assert PipelineConfig.from_dict(config.to_dict()) == config


# Config sections exactly as earlier versions wrote them into run manifests.
OLD_MANIFEST_CONFIGS = [
    (
        {
            "gate": {"kind": "heuristic", "threshold": 100.0, "simulated_latency_ms": 3.0},
            "detector_a": {
                "kind": "synthetic", "seed": 1, "p_tp": 0.9, "fp_rate": 0.5, "jitter_px": 2.0,
                "tp_score_range": [0.6, 1.0], "fp_score_range": [0.05, 0.6], "simulated_latency_ms": 20.0,
            },
            "detector_b": {"kind": "external", "transport": "subprocess", "command": ["stub", "--box", "1,2,3,4,0.5"]},
            "ensemble": {"iou_threshold": 0.1, "mode": "size_aware", "short_edge_ratio_threshold": 0.1},
            "execution": "sequential",
        },
        PipelineConfig(
            detector_a=SyntheticDetectorConfig(seed=1, p_tp=0.9, fp_rate=0.5, jitter_px=2.0, simulated_latency_ms=20.0),
            detector_b=ExternalBackendSpec("subprocess", command=("stub", "--box", "1,2,3,4,0.5")),
            gate=GateConfig(simulated_latency_ms=3.0),
            ensemble=EnsembleConfig(mode="size_aware"),
        ),
    ),
    (
        {
            "gate": {"kind": "external", "external": {"transport": "tcp", "host": "127.0.0.1", "port": 4000},
                     "simulated_latency_ms": 0.0},
            "detector_a": {"kind": "external", "transport": "tcp", "host": "127.0.0.1", "port": 4001},
            "detector_b": {"kind": "external", "transport": "tcp", "host": "127.0.0.1", "port": 4002},
            "ensemble": {"iou_threshold": 0.1, "mode": "and", "short_edge_ratio_threshold": 0.1},
            "execution": "parallel",
        },
        PipelineConfig(
            detector_a=ExternalBackendSpec("tcp", port=4001),
            detector_b=ExternalBackendSpec("tcp", port=4002),
            gate=GateConfig("external", external=ExternalBackendSpec("tcp", port=4000)),
            execution="parallel",
        ),
    ),
    (
        {
            "gate": {"kind": "disabled"},
            "detector_a": {"kind": "synthetic", "seed": 3},
            "detector_b": {"kind": "synthetic", "seed": 4},
            "ensemble": {},
            "execution": "sequential",
        },
        PipelineConfig(
            detector_a=SyntheticDetectorConfig(seed=3),
            detector_b=SyntheticDetectorConfig(seed=4),
            gate=GateConfig("disabled"),
        ),
    ),
]


@pytest.mark.parametrize("raw, expected", OLD_MANIFEST_CONFIGS)
def test_old_manifest_configs_load(raw, expected):
    assert PipelineConfig.from_dict(raw) == expected


def test_minimal_config_takes_defaults():
    config = PipelineConfig.from_dict({"detector_a": {"kind": "synthetic", "seed": 1},
                                       "detector_b": {"kind": "external", "command": ["stub"]}})
    assert config == PipelineConfig(SyntheticDetectorConfig(seed=1), ExternalBackendSpec("subprocess", ("stub",)))


VALID = {
    "gate": {"kind": "external", "threshold": 80.0, "external": {"transport": "tcp", "port": 4000}},
    "detector_a": {"kind": "synthetic", "seed": 1, "tp_score_range": [0.6, 1.0]},
    "detector_b": {"kind": "external", "transport": "subprocess", "command": ["stub"]},
    "ensemble": {"iou_threshold": 0.1, "mode": "and"},
    "execution": "sequential",
}

DELETE = object()


def edit(path: str, value) -> dict:
    """VALID with the dotted key ``path`` set to ``value`` (deleted when value is DELETE)."""
    raw = copy.deepcopy(VALID)
    *parents, leaf = path.split(".")
    node = raw
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    return raw


REJECTED = {
    "config not an object": ["detector_a"],
    "unknown config key": edit("bogus", 1),
    "unknown gate key": edit("gate.bogus", 1),
    "unknown gate.external key": edit("gate.external.bogus", 1),
    "unknown synthetic detector key": edit("detector_a.bogus", 1),
    "unknown external detector key": edit("detector_b.bogus", 1),
    "unknown ensemble key": edit("ensemble.bogus", 1),
    "gate not an object": edit("gate", "heuristic"),
    "gate.external not an object": edit("gate.external", "tcp"),
    "missing detector_a": edit("detector_a", DELETE),
    "detector without kind": edit("detector_a.kind", DELETE),
    "detector not an object": edit("detector_b", "stub"),
    "unknown detector kind": edit("detector_a.kind", "neural"),
    "synthetic without seed": edit("detector_a.seed", DELETE),
    "score range of one value": edit("detector_a.tp_score_range", [0.5]),
    "score range not a pair": edit("detector_a.tp_score_range", 0.5),
    "score range reversed": edit("detector_a.tp_score_range", [0.9, 0.1]),
    "non-numeric gate threshold": edit("gate.threshold", "high"),
    "non-numeric iou threshold": edit("ensemble.iou_threshold", "x"),
    "non-numeric p_tp": edit("detector_a.p_tp", "most"),
    "bad transport": edit("detector_b.transport", "carrier-pigeon"),
    "subprocess without command": edit("detector_b.command", DELETE),
    "tcp port out of range": edit("gate.external.port", 70000),
    "tcp port missing": edit("gate.external.port", DELETE),
    "non-numeric tcp port": edit("gate.external.port", "http"),
    "command not a list": edit("detector_b.command", "stub --box 1,2,3,4,0.5"),
    "external gate without spec": edit("gate.external", DELETE),
    "bad gate kind": edit("gate.kind", "oracle"),
    "bad ensemble mode": edit("ensemble.mode", "or"),
    "bad execution": edit("execution", "distributed"),
    "NaN gate threshold": edit("gate.threshold", float("nan")),
    "infinite gate threshold": edit("gate.threshold", float("-inf")),
    "NaN gate simulated latency": edit("gate.simulated_latency_ms", float("nan")),
    "infinite gate simulated latency": edit("gate.simulated_latency_ms", float("inf")),
    "NaN fp_rate": edit("detector_a.fp_rate", float("nan")),
    "infinite fp_rate": edit("detector_a.fp_rate", float("inf")),
    "fp_rate past its bound": edit("detector_a.fp_rate", 800),
    "NaN jitter_px": edit("detector_a.jitter_px", float("nan")),
    "infinite jitter_px": edit("detector_a.jitter_px", float("inf")),
    "jitter_px past its bound": edit("detector_a.jitter_px", 1.7e308),
    "NaN detector simulated latency": edit("detector_a.simulated_latency_ms", float("nan")),
    "infinite detector simulated latency": edit("detector_a.simulated_latency_ms", float("inf")),
    "NaN spelled as a string": edit("gate.threshold", "nan"),
    "float overflowing to infinity": edit("gate.threshold", "1e400"),
}


@pytest.mark.parametrize("raw", list(REJECTED.values()), ids=list(REJECTED))
def test_invalid_config_raises_config_error(raw):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(raw)


def test_valid_base_loads():
    PipelineConfig.from_dict(VALID)


def test_non_finite_numbers_from_json_text_are_rejected():
    # Python's json module parses NaN and Infinity, so a config file can hold them.
    text = json.dumps(edit("gate.threshold", float("nan")))
    assert "NaN" in text
    with pytest.raises(ConfigError, match=r"config\.gate\.threshold must be a finite number"):
        PipelineConfig.from_dict(json.loads(text))


def test_fp_rate_at_its_bound_loads():
    config = PipelineConfig.from_dict(edit("detector_a.fp_rate", MAX_FP_RATE))
    assert config.detector_a.fp_rate == MAX_FP_RATE


def test_jitter_px_at_its_bound_loads():
    config = PipelineConfig.from_dict(edit("detector_a.jitter_px", MAX_JITTER_PX))
    assert config.detector_a.jitter_px == MAX_JITTER_PX
