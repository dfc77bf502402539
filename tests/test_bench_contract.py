"""The benchmark's contract with the program, checked in seconds.

``perfbench/`` imports and hooks about 30 scopeline names (ROADMAP lists
them). This test plays every benchmark workload, cut to a few frames, as
the benchmark does: in a fresh interpreter with perfbench's tracing hooks
installed. Each run goes through ``cli.main(["run", ...])``, and an open-loop
workload also through ``Pipeline(config, truth).process_stream`` on a paced
stream. Every results row must match perfbench's own single-threaded
reference, no hook may see an error, and every hooked layer the workload
reaches must record a span. The bytes perfbench counts as sent
(``backends.protocol.bytes_out``) must be each request's raw pixels plus a
small header.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FRAMES = 30

SCRIPT = r"""
import argparse, dataclasses, json, sys
from pathlib import Path

import check, child, tracing, workloads
from scopeline.datagen import annotations_for_video, plan_video, write_dataset
from scopeline.pipeline import PipelineConfig

SEED = 0


def expected_spans(workload):
    spans = {tracing.READ_FRAME, tracing.IS_BLURRY, tracing.PROCESS_FRAME, tracing.SERIALIZE}
    for slot, boxes in (("a", workload.stub_boxes_a), ("b", workload.stub_boxes_b)):
        if boxes is None:
            spans.add(f"backends.synthetic.detect.{slot}")
        else:
            spans |= {f"backends.external.detect.{slot}", tracing.REQUEST, tracing.ENCODE_MESSAGE,
                      "backends.protocol.encode_detect_request"}
    spans.add(tracing.SIZE_AWARE if workload.ensemble.get("mode") == "size_aware" else "ensemble.and_ensemble")
    return spans


recorder = tracing.Recorder(trace=True)
recorder.install()
root, frames = Path(sys.argv[1]), int(sys.argv[2])
report = {}
for name, workload in workloads.WORKLOADS.items():
    workload = dataclasses.replace(workload, data=dataclasses.replace(workload.data, frames=frames))
    spec = workload.data.dataset_spec(SEED)
    work = root / name
    write_dataset(spec, work / "dataset")
    video_dir = work / "dataset" / "videos" / "video-000"
    raw_config = workloads.pipeline_config(workload, SEED)
    (work / "config.json").write_text(json.dumps(raw_config), encoding="utf-8")
    plans = plan_video(spec, 0)
    truth = {a.frame_index: a for a in annotations_for_video(spec, 0, plans)}
    stub_boxes = {"a": workload.stub_boxes_a, "b": workload.stub_boxes_b}
    reference = check.build_reference(
        video_dir, spec.fps, plans, truth, PipelineConfig.from_dict(raw_config), stub_boxes
    )
    loops = [("cli", child.run_replay)]
    if workload.loop == workloads.LIVE:
        loops.append(("live", lambda args: child.run_live(args, recorder)))
    for loop, run in loops:
        out = work / f"out-{loop}"
        args = argparse.Namespace(
            config=str(work / "config.json"), input=str(video_dir),
            annotations=str(work / "dataset" / "annotations.jsonl"), out=str(out),
        )
        recorder.spans.clear()
        recorder.errors.clear()
        recorder.counters = dict.fromkeys(recorder.counters, 0)
        exit_code = run(args)["exit_code"]
        result = check.check_run(out / "results.jsonl", reference, spec.fps, truth)
        recorded = {span[0] for span in recorder.spans}
        report[f"{name}/{loop}"] = {
            "exit_code": exit_code,
            "frames_ok": result.frame_ok.count(True),
            "problems": result.problems,
            "hook_errors": recorder.errors,
            "missing_spans": sorted(expected_spans(workload) - recorded),
            "unknown_spans": sorted(recorded - set(tracing.SPAN_NAMES)),
            "wire": {
                "bytes_out": recorder.counters["bytes_out"],
                "messages": sum(span[0] == tracing.ENCODE_MESSAGE for span in recorder.spans),
                "frame_bytes": 3 * spec.width * spec.height,
            },
        }
print(json.dumps(report))
"""


def test_every_workload_passes_the_benchmark_checks(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
        PYTHONDONTWRITEBYTECODE="1",  # leave no cache files in the benchmark's directory
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(FRAMES)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert {key.split("/")[0] for key in report} >= {"replay-inproc", "replay-external", "live-mixed"}
    assert "live-mixed/live" in report
    for key, run in report.items():
        # Every message is one detect request: its raw pixels and a header
        # of at most 256 bytes. Text-encoded pixels would not fit.
        wire = run.pop("wire")
        frame_bytes = wire["frame_bytes"]
        assert wire["messages"] * frame_bytes <= wire["bytes_out"] <= wire["messages"] * (frame_bytes + 256), key
        assert run == {
            "exit_code": 0,
            "frames_ok": FRAMES,
            "problems": [],
            "hook_errors": {},
            "missing_spans": [],
            "unknown_spans": [],
        }, key
