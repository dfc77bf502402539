"""Real-wall benchmark of the scopeline pipeline.

    python3 perfbench/run.py --workload replay-inproc --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one result line

Run from the root of a source checkout: the program is imported from
``src/``. Each program run is a fresh interpreter in its own process group,
killed with its backends if it outlives a wall-clock timeout. Runs repeat
while the next one, as long as the longest so far, would end within
``--seconds``, and each metric is the median over runs of that run's figure.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:

* ``fps``: replay workloads, frames / (first ``read_frame`` call until
  ``cli.main`` returns, so sink, output files and backend shutdown count);
  live workload, frames completed / (last result - first due time).
* ``frame_ms_p50`` / ``frame_ms_p95``: time from a frame's due time until its
  result reaches the sink. Live, the due time is ``t0 + i/fps``. In a closed
  loop a frame is due when the previous result arrived (the first when the
  first frame is read), so this is the gap between results and read-ahead is
  not penalised. A failed frame counts as the run timeout.
* ``setup_s``: interpreter spawn until the first ``read_frame`` call.
* ``peak_rss_mb``: ``ru_maxrss`` of the pipeline process.

With ``--trace 1`` runs alternate untraced and traced, and the metrics are
the per-layer ones: per span count, busy, self, p50 and p95 time (count and
busy/self per run), the layer ratios and the tracing overhead.

Every row of every run is checked against a single-threaded reference (see
``check.py``). The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` (frames) and ``metrics``; the exit code is 1 when
any frame failed, 2 when the checkout has no ``src/scopeline``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, monotonic_ns

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

RUN_TIMEOUT_S = 60.0
# The whole invocation must end within 180 s; stop starting runs before that.
HARD_LIMIT_S = 165.0
MAX_CACHED_DATASETS = 4
# Extra spawns per untraced invocation that stop at the first frame read, so
# setup_s is a median over several set-ups even when full runs are few.
SETUP_PROBES = 8
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so killed backends can be reaped and waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("warning: cannot become child subreaper; orphaned backends go to init", file=sys.stderr)


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right now.

    Context only, never a metric: on a shared machine this moves with other
    tenants' load, and every wall-time metric moves with it.
    """
    times = []
    for _ in range(5):
        start = monotonic_ns()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((monotonic_ns() - start) / 1e6)
    return statistics.median(times)


def run_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "host_loop_ms": host_loop_ms(),
    }


# -- inputs -----------------------------------------------------------------


def prepare_dataset(data, seed: int) -> Path:
    """Generate the dataset once per (spec, seed); keep the most recent few."""
    from scopeline.datagen import write_dataset

    cache = WORK / "data"
    target = cache / f"{data.key}-seed{seed}"
    if not (target / "complete").is_file():
        shutil.rmtree(target, ignore_errors=True)
        partial = cache / f".partial-{data.key}-seed{seed}"
        shutil.rmtree(partial, ignore_errors=True)
        write_dataset(data.dataset_spec(seed), partial)
        # Flush now, so writeback of the new frames does not overlap the runs.
        for path in partial.rglob("*"):
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())
        (partial / "complete").write_text("", encoding="utf-8")
        partial.rename(target)
    (target / "complete").touch()
    complete = [p for p in cache.iterdir() if (p / "complete").is_file()]
    cached = sorted(complete, key=lambda p: (p / "complete").stat().st_mtime, reverse=True)
    for stale in cached[MAX_CACHED_DATASETS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def warm_page_cache(video_dir: Path) -> None:
    for path in sorted(video_dir.iterdir()):
        path.read_bytes()


# -- one program run ----------------------------------------------------------


def wait_exit(pid: int, timeout_s: float) -> bool:
    """Wait until the process exits, without reaping it; False on timeout."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout_s, 0.0))
    finally:
        os.close(fd)
    return bool(ready)


def run_program(workload, inputs: dict, run_dir: Path, trace: bool, timeout_s: float, probe=False) -> dict:
    """Start one run in a fresh process group; kill the group on timeout.

    A setup probe stops at the first frame read, so it only measures set-up.
    """
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "child.py"), "--loop", workload.loop,
        "--config", str(inputs["config"]), "--input", str(inputs["video"]),
        "--annotations", str(inputs["annotations"]), "--out", str(run_dir / "out"),
        "--timing", str(run_dir / "timing.json"), "--trace", str(int(trace)),
    ] + (["--setup-probe"] if probe else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(run_dir / "child.log", "wb") as log:
        spawn_ns = monotonic_ns()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
    finished = wait_exit(proc.pid, timeout_s)
    # The unreaped leader keeps the group id reserved, so this signals only the
    # run's own processes: a hung run and its backends, or any stray left behind.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _, status = os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    while True:  # reap backends adopted after the leader exited
        try:
            os.waitpid(-proc.pid, 0)
        except ChildProcessError:
            break
    timing_path = run_dir / "timing.json"
    timing = json.loads(timing_path.read_text(encoding="utf-8")) if finished and timing_path.is_file() else None
    out = run_dir / "out"
    results = out / "results.jsonl"
    return {
        "spawn_ns": spawn_ns,
        "timed_out": not finished,
        "exit_code": proc.returncode,
        "timing": timing,
        "results": results if results.is_file() else out / "results.jsonl.tmp",
        "log": run_dir / "child.log",
    }


def run_timings(workload, run: dict, frame_ok: list[bool], timeout_ms: float) -> dict | None:
    """End-to-end numbers of one run, or None when it left no timing record."""
    import workloads

    timing = run["timing"]
    if timing is None or timing["first_read_ns"] is None or not timing["sink_ns"]:
        return None
    first = timing["first_read_ns"]
    sinks = timing["sink_ns"]
    n = len(frame_ok)
    if workload.loop == workloads.LIVE:
        due = [first + round(i * timing["period_ns"]) for i in range(len(sinks))]
        fps = len(sinks) / ((sinks[-1] - first) / 1e9)
    else:
        due = [first] + sinks[:-1]
        fps = n / ((timing["end_ns"] - first) / 1e9)
    latencies = []
    for i in range(workload.warmup_frames, n):
        done = i < len(sinks) and frame_ok[i]
        latencies.append((sinks[i] - due[i]) / 1e6 if done else timeout_ms)
    return {
        "fps": fps,
        "setup_s": (first - run["spawn_ns"]) / 1e9,
        "peak_rss_mb": timing["maxrss_kb"] / 1024.0,
        "latencies_ms": latencies,
        "wake_late_ms": [late / 1e6 for late in timing.get("wake_late_ns", [])],
        "busy_window_ms": (timing["end_ns"] - first) / 1e6,
    }


# -- aggregation ----------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(per_run: list[dict], probe_setups_s: list[float]) -> dict[str, float]:
    """Medians over runs of each run's figure; set-up also over the probes."""
    return {
        "fps": median([run["fps"] for run in per_run]),
        "frame_ms_p50": median([tracing.nearest_rank(run["latencies_ms"], 0.50) for run in per_run]),
        "frame_ms_p95": median([tracing.nearest_rank(run["latencies_ms"], 0.95) for run in per_run]),
        "setup_s": median(probe_setups_s + [run["setup_s"] for run in per_run]),
        "peak_rss_mb": median([run["peak_rss_mb"] for run in per_run]),
    }


def per_layer_metrics(traced: list[dict], untraced_fps: list[float], traced_fps: list[float], wake_late_ms) -> dict:
    """Span statistics of the traced runs: totals per run, percentiles pooled."""
    runs = max(len(traced), 1)
    totals = {name: {"count": 0, "busy_ms": 0.0, "self_ms": 0.0, "durations_ms": []} for name in tracing.SPAN_NAMES}
    counters = dict.fromkeys(tracing.Recorder(trace=True).counters, 0)
    request_errors = 0
    busy_frac = []
    for run in traced:
        stats = tracing.span_stats(run["spans"])
        for name, entry in stats.items():
            total = totals[name]
            total["count"] += entry["count"]
            total["busy_ms"] += entry["busy_ms"]
            total["self_ms"] += entry["self_ms"]
            total["durations_ms"] += entry["durations_ms"]
        for key in counters:
            counters[key] += run["counters"][key]
        request_errors += run["errors"].get(tracing.REQUEST, 0)
        busy_frac.append(stats[tracing.PROCESS_FRAME]["busy_ms"] / run["busy_window_ms"])
    metrics = {}
    for name, total in totals.items():
        metrics[f"{name}.count"] = total["count"] / runs
        metrics[f"{name}.busy_ms"] = total["busy_ms"] / runs
        metrics[f"{name}.p50_ms"] = tracing.nearest_rank(total["durations_ms"], 0.50)
        metrics[f"{name}.p95_ms"] = tracing.nearest_rank(total["durations_ms"], 0.95)
        if name in tracing.PARENT_SPANS:
            metrics[f"{name}.self_ms"] = total["self_ms"] / runs

    def ratio(part, whole) -> float:
        return part / whole if whole else 0.0

    metrics[f"{tracing.IS_BLURRY}.drop_frac"] = ratio(counters["gate_drops"], totals[tracing.IS_BLURRY]["count"])
    metrics[f"{tracing.SIZE_AWARE}.b_invoked_frac"] = ratio(counters["b_invoked"], totals[tracing.SIZE_AWARE]["count"])
    metrics[f"{tracing.REQUEST}.errors"] = request_errors / runs
    metrics["backends.protocol.bytes_out"] = counters["bytes_out"] / runs
    metrics["pipeline.busy_frac"] = median(busy_frac)
    metrics["pacer.wake_late_p95_ms"] = tracing.nearest_rank(wake_late_ms, 0.95)
    metrics["trace.fps_untraced"] = median(untraced_fps)
    metrics["trace.fps_traced"] = median(traced_fps)
    metrics["trace.overhead_frac"] = 1.0 - ratio(metrics["trace.fps_traced"], metrics["trace.fps_untraced"])
    return metrics


# -- one workload -----------------------------------------------------------------


def prepare(workload, seed: int, invocation_dir: Path):
    """Inputs and the reference, all made before anything is timed."""
    import check
    import workloads
    from scopeline.datagen import annotations_for_video, plan_video
    from scopeline.pipeline import PipelineConfig

    raw_config = workloads.pipeline_config(workload, seed)
    dataset = prepare_dataset(workload.data, seed)
    video_dir = dataset / "videos" / "video-000"
    warm_page_cache(video_dir)
    shutil.rmtree(invocation_dir, ignore_errors=True)
    invocation_dir.mkdir(parents=True)
    config_path = invocation_dir / "config.json"
    config_path.write_text(json.dumps(raw_config, indent=2), encoding="utf-8")
    inputs = {"config": config_path, "video": video_dir, "annotations": dataset / "annotations.jsonl"}

    spec = workload.data.dataset_spec(seed)
    plans = plan_video(spec, 0)
    truth = {a.frame_index: a for a in annotations_for_video(spec, 0, plans)}
    stub_boxes = {"a": workload.stub_boxes_a, "b": workload.stub_boxes_b}
    reference = check.build_reference(
        video_dir, spec.fps, plans, truth, PipelineConfig.from_dict(raw_config), stub_boxes
    )
    return inputs, reference, truth


def measure(workload, inputs: dict, reference, truth, invocation_dir: Path, seconds: float, trace: bool, started: float) -> dict:
    """Run the program until ``seconds`` have passed; check every run's rows."""
    import check

    fps = workload.data.fps
    out = {"untraced": [], "traced": [], "probe_setups": [], "wake_late": [], "problems": [],
           "attempted": 0, "failed": 0, "runs": 0}

    def timeout_s() -> float:
        return min(RUN_TIMEOUT_S, HARD_LIMIT_S - (monotonic() - started))

    measure_start = monotonic()
    longest_run_s = 0.0
    for p in range(0 if trace else SETUP_PROBES):
        probe = run_program(workload, inputs, invocation_dir / f"probe-{p}", False, timeout_s(), probe=True)
        if probe["timing"] is None:
            out["problems"].append(f"setup probe {p} never read a frame; see {probe['log']}")
        else:
            out["probe_setups"].append((probe["timing"]["first_read_ns"] - probe["spawn_ns"]) / 1e9)
    k = 0
    while True:
        traced_run = trace and k % 2 == 1
        run_timeout_s = timeout_s()
        run_start = monotonic()
        run = run_program(workload, inputs, invocation_dir / f"run-{k:03d}", traced_run, run_timeout_s)
        eval_spans = []

        def timed_eval(eval_input):
            start = monotonic_ns()
            scores = check.f_scores(eval_input)
            eval_spans.append((tracing.EVALUATE, start, monotonic_ns(), -1, None, None))
            return scores

        result = check.check_run(run["results"], reference, fps, truth, timed_eval if traced_run else None)
        out["attempted"] += len(result.frame_ok)
        out["failed"] += result.failed
        if run["timed_out"]:
            result.problems.insert(0, f"timed out after {run_timeout_s:.0f} s; process group killed")
        elif run["exit_code"] != 0:
            result.problems.insert(0, f"exit code {run['exit_code']}; see {run['log']}")
        out["problems"] += [f"run {k}: {p}" for p in result.problems]
        timings = run_timings(workload, run, result.frame_ok, run_timeout_s * 1000.0)
        if timings is not None:
            out["wake_late"] += timings["wake_late_ms"]
            if traced_run:
                timing = run["timing"]
                out["traced"].append(
                    {**timings, "spans": timing["spans"] + eval_spans,
                     "counters": timing["counters"], "errors": timing["errors"]}
                )
            else:
                out["untraced"].append(timings)
            print(
                f"run {k}{' traced' if traced_run else ''}: fps {timings['fps']:.2f} "
                f"setup_s {timings['setup_s']:.4f} peak_rss_mb {timings['peak_rss_mb']:.1f} "
                f"failed {result.failed}/{len(result.frame_ok)}"
            )
        k += 1
        # Start no run that would end past ``seconds``, so an invocation takes
        # ``seconds`` plus its set-up even when one run is a fifth of that.
        longest_run_s = max(longest_run_s, monotonic() - run_start)
        enough_runs = k >= (2 if trace else 1)
        if (enough_runs and monotonic() - measure_start + longest_run_s > seconds) or monotonic() - started >= HARD_LIMIT_S - 5:
            out["runs"] = k
            return out


def print_busy_shares(metrics: dict, traced: list[dict]) -> None:
    window_ms = median([run["busy_window_ms"] for run in traced])
    shares = sorted(
        ((metrics[f"{n}.busy_ms"] / window_ms, n) for n in tracing.SPAN_NAMES
         if n not in (tracing.PROCESS_FRAME, tracing.EVALUATE)),
        reverse=True,
    )
    print(
        "largest busy shares of a traced run (process_frame, which encloses a frame's layers, left out): "
        + ", ".join(f"{n} {share:.3f}" for share, n in shares[:3])
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, catalogue: dict) -> dict:
    import workloads

    started = monotonic()
    workload = workloads.WORKLOADS[name]
    print(f"workload {name} (seed {seed}, {'traced' if trace else 'untraced'}): {workload.why}")
    context = run_context()
    print(f"context: {json.dumps(context)}")
    invocation_dir = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}"
    inputs, reference, truth = prepare(workload, seed, invocation_dir)
    m = measure(workload, inputs, reference, truth, invocation_dir, seconds, trace, started)

    problems = m["problems"]
    if trace:
        metrics = per_layer_metrics(
            m["traced"], [r["fps"] for r in m["untraced"]], [r["fps"] for r in m["traced"]], m["wake_late"]
        )
        if m["traced"]:
            print_busy_shares(metrics, m["traced"])
    else:
        metrics = end_to_end_metrics(m["untraced"], m["probe_setups"]) if m["untraced"] else {}
    if not metrics:
        problems.append("no run finished with a timing record, so there are no metrics")
    elif set(metrics) != set(catalogue):
        problems.append(f"metrics and BENCHMARK.json disagree on {sorted(set(metrics) ^ set(catalogue))}")
    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    if m["wake_late"]:
        late_p95 = tracing.nearest_rank(m["wake_late"], 0.95)
        print(f"pacer woke late by p95 {late_p95:.4f} ms over {len(m['wake_late'])} sleeps")
    attempted, failed = m["attempted"], m["failed"]
    print(f"failed_frac {failed / attempted if attempted else 1.0} ratio ({failed} of {attempted} frames)")
    report = {
        "workload": name, "why": workload.why, "seed": seed, "trace": trace, "context": context,
        "runs": m["runs"], "attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics,
    }
    (WORK / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": v, "unit": catalogue.get(metric, "?")} for metric, v in metrics.items()},
    }


def load_catalogue(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scopeline" / "cli.py").is_file():
        print(f"no scopeline source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    catalogue = load_catalogue(bool(args.trace))
    become_subreaper()
    WORK.mkdir(exist_ok=True)

    outcomes = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), catalogue)
        for metric, entry in outcome["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        outcomes[name] = outcome

    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{m}": e for n, o in outcomes.items() for m, e in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
