"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q

They run short benchmark runs as subprocesses (about a minute in all)
and check the result contract, the correctness oracles, seeding and the
span accounting of a traced run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import PROBE_CONSTANT_S, Segment, latency_summary  # noqa: E402
from loops import OpenSegmentPlan, closed_loop, open_loop  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END, OPEN_RATE_PER_S, PER_LAYER, WORKLOADS, CompileWorkload,
    OpenLoopWorkload, ServeOp, _ServedModel, make_feed,
)

SHORT_S = "1"
# Long enough for two compile epochs, so that warm compiles of one variant
# land in both traced and untraced segments and can be compared.
TWO_EPOCHS_S = "8"


def run_bench(workload: str, seed: int = 1, trace: int = 0, cwd=ROOT,
              seconds: str = SHORT_S):
    completed = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return completed


def last_two_lines(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_mode_emits_every_metric_with_its_unit(workload, trace):
    diagnostics, result = last_two_lines(run_bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else [m[:2] for m in PER_LAYER]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(
        expected)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    env = diagnostics["environment"]
    assert env["nproc"] and env["numpy"] and env["python"]
    assert "blas" in env and "thread_env" in env and env["seed"] == 1
    assert diagnostics["probe_median_ms"] > 0


def test_end_to_end_metrics_are_never_zero():
    _, result = last_two_lines(run_bench("batch-open"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # An open loop's throughput follows its arrival clock, unscaled.
    assert result["metrics"]["throughput_ops"]["value"] == pytest.approx(
        OPEN_RATE_PER_S, rel=0.15)


def test_two_seeds_give_different_inputs_and_the_same_metric_set(tmp_path):
    orders = []
    for seed in (1, 2):
        workload = CompileWorkload(seed, str(tmp_path / str(seed)))
        orders.append([(op.variant, op.kind) for op in workload._epoch_ops(0)])
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1])  # same op mix

    arrivals = []
    for seed in (1, 2):
        workload = OpenLoopWorkload(seed, str(tmp_path))
        workload.request = lambda index: index
        plan = next(workload._plans())
        arrivals.append((plan.offsets[:5], list(plan.picks[:20])))
    assert arrivals[0] != arrivals[1]

    metric_sets = [
        set(last_two_lines(run_bench("batch-open", seed=seed))[1]["metrics"])
        for seed in (1, 2)
    ]
    assert metric_sets[0] == metric_sets[1]


def _tiny_served_model(name="mmoe"):
    from repro import SouffleCompiler
    from repro.models import TINY_MODELS

    module = SouffleCompiler(cache=False).compile(TINY_MODELS[name]())
    rng = np.random.default_rng(0)
    inputs = module.program.inputs
    weights = {t.name: make_feed(rng, t) for t in inputs if t.role == "weight"}
    activations = [
        {t.name: make_feed(rng, t) for t in inputs if t.role != "weight"}
        for _ in range(2)
    ]
    model = _ServedModel(name, module, weights, activations)
    for acts in activations:
        feeds = {**weights, **acts}
        model.references.append(module.run_interpreted(
            {t: feeds[t.name] for t in inputs}))
    return model


def test_corrupted_reference_counts_as_one_failed_op_closed_loop():
    model = _tiny_served_model()
    model.references[0] = [out + 1.0 for out in model.references[0]]
    ops = [ServeOp(model, 0), ServeOp(model, 1), ServeOp(model, 1)]
    result = closed_loop([ops], 0.0, "numpy", probe_every=2)
    assert (result.attempted, result.failed) == (3, 1)
    assert sum(len(s.latencies) for s in result.segments) == 2


def test_corrupted_reference_counts_as_one_failed_op_open_loop(tmp_path):
    workload = WORKLOADS["batch-open"](1, str(tmp_path))
    workload.setup()
    try:
        workload.prepare_checks()
        workload.references[0] = [r + 1.0 for r in workload.references[0]]
        plan = OpenSegmentPlan(
            [0.0, 0.001, 0.002, 0.003],
            [workload.request(k) for k in (0, 1, 2, 3)], [0, 1, 2, 3])
        result = open_loop([plan], 0.0, workload.submit, workload.check,
                           "numpy", fixed_s=0.002)
    finally:
        workload.teardown()
    assert (result.attempted, result.failed) == (4, 1)


def test_normalisation_interpolates_the_probe_and_keeps_the_fixed_part():
    seg = Segment(probe_before=1e-3, start=0.0, probe_after=2e-3, end=1.0)
    scale = PROBE_CONSTANT_S / 1.5e-3  # reading at t=0.5, interpolated
    seg.add(3e-3, 0.5)
    seg.add(3e-3, 0.5, fixed=2e-3)
    seg.add(1e-3, 0.5, fixed=2e-3)
    seg.add(3e-3, 0.5, fixed=float("inf"))
    assert seg.normalised() == pytest.approx(
        [3e-3 * scale, 2e-3 + 1e-3 * scale, 1e-3, 3e-3])


def test_per_segment_percentiles_take_the_median_over_segments():
    segments = []
    for shift in (0.0, 1.0, 10.0):  # the last segment is a stall
        seg = Segment(probe_before=1e-3, start=0.0, probe_after=1e-3, end=1.0)
        for i in range(100):
            seg.add((i + shift) * 1e-3, 0.5)
        segments.append(seg)
    whole = latency_summary(segments, normalise=False)
    robust = latency_summary(segments, normalise=False, per_segment=True)
    assert robust["p50_ms"] == pytest.approx(50.5)
    assert whole["p95_ms"] > robust["p95_ms"] == pytest.approx(95.05)
    assert whole["ops"] == robust["ops"] == 300


def test_self_time_subtracts_the_union_of_children():
    recorder = Recorder()
    recorder.record("root", 0.0, 10.0)                 # id 1
    recorder.record("a", 1.0, 4.0, parent=1)           # id 2
    recorder.record("b", 3.0, 6.0, parent=1)           # id 3, overlaps a
    recorder.record("c", 2.0, 3.0, parent=2)           # id 4
    self_t = recorder.self_times()
    assert self_t[1] == pytest.approx(10.0 - 5.0)
    assert self_t[2] == pytest.approx(3.0 - 1.0)
    assert recorder.roots() == {1: 1, 2: 1, 3: 1, 4: 1}


# Layer spans every compared op passes through: warm compiles in
# ``compile``, tiny-model requests in ``serve-closed``.
LAYER_SPANS = {
    "compile": {"core.compile_self", "cache.module_key", "cache.module_load"},
    "serve-closed": {"session.run", "session.bind", "executor.execute"},
}


@pytest.mark.parametrize("workload,seconds", [
    ("compile", TWO_EPOCHS_S), ("serve-closed", SHORT_S)])
def test_traced_self_times_sum_to_op_latency(workload, seconds):
    diagnostics, result = last_two_lines(
        run_bench(workload, trace=1, seconds=seconds))
    check = diagnostics["trace_check"]
    overhead = result["metrics"]["trace.overhead_pct"]["value"]
    assert check["ops"] >= 10
    # The self times of a traced op's spans add up to the untraced latency
    # of the same ops plus the tracing overhead the run reports.
    gap_pct = (check["self_sum_ms"] / check["untraced_ms"] - 1.0) * 100.0
    assert gap_pct == pytest.approx(overhead, abs=2.0)
    # And the layer spans hold that time: a wrapper that failed to install
    # would leave its layer's time to the op's root or entry-point span.
    assert LAYER_SPANS[workload] <= set(check["spans"])
    assert check["catch_all_ms"] <= 0.1 * check["self_sum_ms"]


@pytest.mark.parametrize("workload", ["batch-open", "shard-open"])
def test_open_loop_spans_of_one_request_share_its_id(workload):
    last_two_lines(run_bench(workload, seed=3, trace=1))
    path = os.path.join(ROOT, ".perfbench_out", "traces",
                        f"{workload}-seed3.json")
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    requests = {e["args"]["id"] for e in events if e["name"] == "request"}
    submits = [e for e in events if e["name"].endswith(".submit")]
    assert requests and submits
    assert all(e["args"]["request"] in requests for e in submits)
    # The dispatcher's spans name the requests they carried.
    carried = [r for e in events for r in e["args"].get("requests", ())]
    assert carried and set(carried) <= requests


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("compile", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
