"""One program run in a fresh interpreter, started by ``run.py``.

Replay runs call ``scopeline.cli.main(["run", ...])``. Live runs feed a paced
stream to ``Pipeline.process_stream`` with a sink that writes rows as
``cmd_run`` does. Either way the run's timestamps (``time.monotonic_ns``,
one clock for every process on Linux), its peak RSS and, when traced, its
spans are written as JSON to the ``--timing`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracing import Recorder


class PacedStream:
    """Open-loop source: ``read_frame(i)`` returns no earlier than ``t0 + i/fps``.

    ``t0`` is the time of the first call. The stream sleeps only when it is
    early; ``wake_late_ns`` holds how late each such sleep ended past its due
    time, so a late generator is not taken for a slow pipeline.
    """

    def __init__(self, inner):
        self.inner = inner
        self.frame_count = inner.frame_count
        self.period_ns = 1e9 / inner.fps
        self.t0_ns: int | None = None
        self.wake_late_ns: list[int] = []

    def read_frame(self, frame_index: int):
        now = time.monotonic_ns()
        if self.t0_ns is None:
            self.t0_ns = now
        due = self.t0_ns + round(frame_index * self.period_ns)
        if now < due:
            time.sleep((due - now) / 1e9)
            self.wake_late_ns.append(time.monotonic_ns() - due)
        return self.inner.read_frame(frame_index)


def run_replay(args) -> dict:
    from scopeline import cli

    code = cli.main(
        ["run", "--config", args.config, "--input", args.input,
         "--annotations", args.annotations, "--output", args.out]
    )
    return {"exit_code": code}


def run_live(args, recorder: Recorder) -> dict:
    from scopeline import pipeline
    from scopeline.annotations import annotations_by_frame, load_annotations
    from scopeline.media import DirectoryFrameStream

    config = pipeline.PipelineConfig.from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    stream = PacedStream(DirectoryFrameStream(args.input))
    truth = annotations_by_frame(load_annotations(args.annotations), stream.inner.video_id)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "results.jsonl.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:

        def sink(result) -> None:
            recorder.sink_ns.append(time.monotonic_ns())
            fh.write(json.dumps(pipeline.result_to_dict(result), separators=(",", ":")) + "\n")

        with pipeline.Pipeline(config, truth) as runner:
            runner.process_stream(stream, sink)
    os.replace(tmp, out / "results.jsonl")
    return {
        "exit_code": 0,
        "t0_ns": stream.t0_ns,
        "period_ns": stream.period_ns,
        "wake_late_ns": stream.wake_late_ns,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loop", choices=["replay", "live"], required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--annotations", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help="exit at the first frame read")
    args = parser.parse_args()

    recorder = Recorder(bool(args.trace))
    recorder.install()
    if args.setup_probe:

        def stop() -> None:
            Path(args.timing).write_text(json.dumps({"first_read_ns": recorder.first_read_ns}), encoding="utf-8")
            os._exit(0)  # the benchmark kills and reaps the run's backends

        recorder.on_first_read = stop
    timing = run_replay(args) if args.loop == "replay" else run_live(args, recorder)
    timing["end_ns"] = time.monotonic_ns()
    timing.update(
        first_read_ns=timing.get("t0_ns") or recorder.first_read_ns,
        sink_ns=recorder.sink_ns,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        spans=recorder.spans,
        errors=recorder.errors,
        counters=recorder.counters,
    )
    Path(args.timing).write_text(json.dumps(timing), encoding="utf-8")
    return 0 if timing["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
