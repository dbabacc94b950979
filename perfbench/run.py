"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run it from the repository root: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` does a separate
traced run of the same seed and reports the per-layer metrics instead.
The last line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the diagnostics (environment, probes, raw values), which
are also written to ``.perfbench_out/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Set-ups per end-to-end run: this process plus fresh child processes, so
# that every sample includes ``import repro``. setup_s is their median.
SETUP_SAMPLES = 3
SETUP_CHILD_TIMEOUT_S = 60.0


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def isolate(workdir: str) -> None:
    """Fresh, run-private state: no inherited compile cache, temp files
    (and the workers' temp files) inside this run's directory."""
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir


def timed_setup(workload):
    """Raw set-up seconds and the probe readings on either side.

    Set-up is import, graph building, compiling and plan building: the
    interpreter-bound probe tracks it in every workload.
    """
    from harness import probe

    before = probe("python")
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    after = probe("python")
    return elapsed, [before, after]


def setup_in_child(args) -> float:
    """One normalised set-up sample from a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_CHILD_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up child failed ({completed.returncode}):\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def setup_only(workload) -> int:
    from harness import probe, scale_for

    probe("python")  # the first call pays one-off costs
    try:
        raw, probes = timed_setup(workload)
    finally:
        workload.teardown()
    print(json.dumps({"setup_s": raw * scale_for(probes), "raw_s": raw}))
    return 0


def end_to_end(args, workload, result, raw_setup, setup_probes, sim_us,
               rss_mb):
    """The six gated metrics plus their raw (unnormalised) diagnostics."""
    from harness import latency_summary, metric, scale_for
    from workloads import END_TO_END

    setups = [raw_setup * scale_for(setup_probes)]
    setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    # Open loops report the median over their 0.5-s segments of each
    # segment's percentile (see README: intermittent host stalls).
    per_segment = workload.open_loop
    norm = latency_summary(result.segments, per_segment=per_segment)
    raw = latency_summary(result.segments, normalise=False,
                          per_segment=per_segment)
    # An open loop's throughput is held by its arrival clock: not scaled.
    busy = raw["busy_s"] if workload.open_loop else norm["busy_s"]
    throughput = norm["ops"] / max(busy, 1e-9)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": norm["p50_ms"],
        "latency_p95_ms": norm["p95_ms"],
        "throughput_ops": throughput,
        "peak_rss_mb": rss_mb,
        "sim_latency_us": sim_us,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    diagnostics = {
        "setup_samples_s": setups,
        "raw.setup_s": raw_setup,
        "raw.latency_p50_ms": raw["p50_ms"],
        "raw.latency_p95_ms": raw["p95_ms"],
        "raw.throughput_ops": raw["ops"] / max(raw["busy_s"], 1e-9),
        "ops": norm["ops"],
        "beyond_p95": norm["beyond_p95"],
    }
    return metrics, diagnostics


def per_layer(workload, result, recorder):
    from harness import metric
    from workloads import PER_LAYER, closed_loop_overhead, trace_check

    values = workload.layer_metrics(result)
    diagnostics = {}
    if not workload.open_loop:
        values["trace.overhead_pct"] = closed_loop_overhead(result)
        diagnostics["trace_check"] = trace_check(result, recorder)
    # A layer the workload never enters reads 0.
    metrics = {name: metric(values.get(name, 0.0), unit)
               for name, unit, _ in PER_LAYER}
    return metrics, diagnostics


def peak_rss_mb(workload, setup_peak: int) -> float:
    """Peak resident memory of this process (set-up or measured phase,
    whichever was higher) plus every worker the workload spawned."""
    from harness import peak_rss_bytes

    total = max(setup_peak, peak_rss_bytes())
    total += sum(peak_rss_bytes(pid) for pid in workload.worker_pids())
    return total / 1e6


def run(args, workdir: str) -> int:
    from harness import (
        PROBES, emit, environment, peak_rss_bytes, probe, reset_peak_rss,
    )
    from tracing import Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        return setup_only(workload)
    recorder = Recorder() if args.trace else None
    for kind in PROBES:
        probe(kind)  # the first calls pay one-off costs
    probes_at_start = probe(workload.probe_kind)
    try:
        if recorder is not None:
            workload.start_tracing(recorder)
        raw_setup, setup_probes = timed_setup(workload)
        if recorder is not None:
            workload.finish_setup_tracing()
        setup_peak = peak_rss_bytes()
        workload.prepare_checks()
        # The benchmark's own reference outputs must not set the peak.
        rss_reset = reset_peak_rss()
        result = workload.measure(args.seconds)
        rss_mb = peak_rss_mb(workload, setup_peak)
        sim_us = workload.sim_latency_us()
        if recorder is not None:
            metrics, extra = per_layer(workload, result, recorder)
    finally:
        workload.teardown()
    if recorder is None:
        metrics, extra = end_to_end(
            args, workload, result, raw_setup, setup_probes, sim_us, rss_mb)
    else:
        recorder.write_chrome_trace(os.path.join(
            OUT_DIR, "traces", f"{args.workload}-seed{args.seed}.json"))
    probes = [probes_at_start] + setup_probes + [
        p for s in result.segments for p in (s.probe_before, s.probe_after)
    ]
    diagnostics = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "probe_kind": workload.probe_kind,
        "probe_median_ms": statistics.median(probes) * 1e3,
        "probe_range_ms": [min(probes) * 1e3, max(probes) * 1e3],
        "segments": len(result.segments),
        "rounds": result.rounds,
        "measured_s": result.elapsed_s,
        "errors": result.errors,
        "peak_rss_reset": rss_reset,
        **workload.diagnostics(),
        **extra,
    }
    outcome = {
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    emit(outcome, diagnostics, os.path.join(
        OUT_DIR, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"))
    return 0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if the run started one.

    Shared memory (the sharded server's weights) starts it as a child of
    this process; stopping it here waits for it to end instead of leaving
    it to exit after this process does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    tmp_root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    isolate(workdir)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        return run(args, workdir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
