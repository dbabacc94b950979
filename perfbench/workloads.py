"""The four workloads and the per-layer metrics each one's traced run gives.

Every workload drives the program from one process through its public
entry points. ``setup`` is what ``setup_s`` times (it imports ``repro``);
``prepare_checks`` computes the benchmark's own reference outputs, untimed;
``measure`` runs the measured phase; ``layer_metrics`` turns the spans of a
traced run into per-layer numbers.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import geomean, percentile
from loops import LoopResult, Op, OpenSegmentPlan, closed_loop, open_loop
from tracing import NO_PARENT, Recorder, Tracer

# ---- metric catalogue -----------------------------------------------------------

# sim_latency_us is simulated, not measured: microseconds on the analytic
# A100 model, exact across runs. Its unit says so, so that it never reads as
# a wall-clock time that repeats exactly.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_ops", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_us", "A100-us"),
)

SERVE_MODELS = (
    "bert", "resnext", "lstm", "efficientnet", "swin", "mmoe", "attention",
)
STEP_KINDS = ("einsum", "matmul", "map", "reduce", "fused", "tiled")

# Compile passes timed per cold op: span name -> what it wraps.
COMPILE_LAYERS = (
    "graph.lower",
    "transform.horizontal",
    "transform.vertical",
    "analysis.characterize",
    "analysis.partition",
    "schedule.search",
    "tir.codegen",
    "tir.subprogram_opt",
    "core.compile_self",
)

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"{layer}_ms", "ms", "lower") for layer in COMPILE_LAYERS)
    + (
        ("schedule.trials", "count", "lower"),
        ("cache.schedule_hit_pct", "%", "higher"),
        ("cache.module_key_ms", "ms", "lower"),
        ("cache.module_load_ms", "ms", "lower"),
        ("cache.module_store_ms", "ms", "lower"),
        ("cache.module_hit_pct", "%", "higher"),
        ("verify.certify_ms", "ms", "lower"),
        ("verify.unknown", "count", "lower"),
        ("gpu.kernels", "count", "lower"),
        ("gpu.load_mb", "MB", "lower"),
        ("executor.plan_build_ms", "ms", "lower"),
        ("session.bind_us", "us", "lower"),
        ("executor.dispatch_us", "us", "lower"),
        ("executor.hoist_hit_pct", "%", "higher"),
    )
    + tuple((f"executor.step_us.{k}", "us", "lower") for k in STEP_KINDS)
    + tuple((f"executor.steps.{m}", "count", "lower") for m in SERVE_MODELS)
    + tuple((f"executor.parallel_waves.{m}", "count", "higher")
            for m in SERVE_MODELS)
    + tuple((f"tiling.tiled_chains.{m}", "count", "higher")
            for m in SERVE_MODELS)
    + (
        ("batching.queue_wait_ms", "ms", "lower"),
        ("batching.bind_batch_us", "us", "lower"),
        ("batching.execute_us", "us", "lower"),
        ("batching.slice_us", "us", "lower"),
        ("batching.batch_size", "count", "higher"),
        ("batching.lane_use_pct", "%", "higher"),
        ("batching.unbatched_retries", "count", "lower"),
        ("loadgen.late_p95_ms", "ms", "lower"),
        ("sharding.queue_wait_ms", "ms", "lower"),
        ("sharding.worker_compute_ms", "ms", "lower"),
        ("sharding.overhead_ms", "ms", "lower"),
        ("sharding.spawn_ms", "ms", "lower"),
        ("weight_store.create_ms", "ms", "lower"),
        ("sharding.private_weight_mb", "MB", "lower"),
        ("sharding.redispatched", "count", "lower"),
        ("sharding.crashes", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    )
)


# ---- inputs ------------------------------------------------------------------------

# Standard deviation of float feeds.
FEED_SCALE = 0.1


def make_feed(rng: np.random.Generator, tensor):
    """One float64 feed honouring the placeholder's declared dtype: small
    integers for integer placeholders, 0/1 for booleans, float16 values
    rounded through float16 so every execution path sees the same bits."""
    dtype = np.dtype(tensor.dtype)
    if dtype == np.bool_:
        return rng.integers(0, 2, size=tensor.shape).astype(np.float64)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-8, 9, size=tensor.shape).astype(np.float64)
    values = rng.standard_normal(tensor.shape) * FEED_SCALE
    if dtype == np.float16:
        values = values.astype(np.float16)
    return np.ascontiguousarray(values, dtype=np.float64)


def same_outputs(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want)
    )


# ---- shared pieces -------------------------------------------------------------------


class Workload:
    """Base class: one seeded workload, set up once per process."""

    name = ""
    probe_kind = "numpy"
    open_loop = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.recorder: Optional[Recorder] = None
        self.tracer: Optional[Tracer] = None
        self.tracing = False

    # Tracing hooks: a traced run installs setup tracing before ``setup``
    # and toggles measurement tracing at segment boundaries.
    def start_tracing(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.tracer = Tracer(recorder)
        self.install_setup_tracing()

    def install_setup_tracing(self) -> None:
        pass

    def finish_setup_tracing(self) -> None:
        """Keep what the setup spans say, then start measuring clean."""
        self.setup_spans: Dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.recorder.spans:
            if parent == NO_PARENT:
                self.setup_spans[name] += end - start
        self.recorder.clear()
        self.tracer.uninstall()

    def install_measure_tracing(self) -> None:
        pass

    def remove_measure_tracing(self) -> None:
        self.tracer.uninstall()

    def set_traced(self, on: bool) -> None:
        if self.tracing:
            self.remove_measure_tracing()
        self.tracing = on
        if on:
            self.install_measure_tracing()

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def measure(self, seconds: float) -> LoopResult:
        raise NotImplementedError

    def sim_latency_us(self) -> float:
        raise NotImplementedError

    def worker_pids(self) -> List[int]:
        """Processes the workload spawned, whose peak memory counts too."""
        return []

    def teardown(self) -> None:
        pass

    def layer_metrics(self, result: LoopResult) -> Dict[str, float]:
        return {}

    def diagnostics(self) -> Dict[str, object]:
        return {}


def simulated_us(modules) -> float:
    """Geometric mean of the analytic A100 latency over distinct modules."""
    from repro import profile_module

    return geomean([profile_module(m).total_time_us for m in modules])


# A closed-loop op key enters the tracing overhead once it has this many
# samples in both the traced and the untraced segments.
OVERHEAD_MIN_SAMPLES = 2

# Spans whose self time is what no layer span inside them covers: an op's
# root span and the entry point a closed-loop workload calls.
CATCH_ALL_SPANS = frozenset({"request", "core.compile_self", "session.run"})


def _compared_keys(result: LoopResult):
    """Untraced and traced normalised samples by op key, and the keys with
    enough samples in both halves to compare."""
    halves: Tuple[Dict[str, List[float]], Dict[str, List[float]]] = (
        defaultdict(list), defaultdict(list))
    for seg in result.segments:
        half = halves[int(seg.traced)]
        for key, lat in zip(seg.keys, seg.normalised()):
            half[key].append(lat)
    untraced, traced = halves
    keys = {
        key for key, times in traced.items()
        if len(times) >= OVERHEAD_MIN_SAMPLES
        and len(untraced.get(key, ())) >= OVERHEAD_MIN_SAMPLES
    }
    return untraced, traced, keys


def _weighted_medians(samples: Dict[str, List[float]],
                      counts: Dict[str, int]) -> float:
    """Sum over keys of ``counts[key]`` times the key's median sample."""
    return sum(n * float(np.median(samples[k])) for k, n in counts.items())


def closed_loop_overhead(result: LoopResult) -> float:
    """Tracing overhead (%) of a closed loop from its interleaved segments.

    Over the compared op keys, each weighted by its traced op count, the
    median normalised time of a traced op is set against the median of the
    same key untraced. Medians keep one host stall from deciding it.
    """
    untraced, traced, keys = _compared_keys(result)
    counts = {k: len(traced[k]) for k in keys}
    expected = _weighted_medians(untraced, counts)
    if expected <= 0:
        return 0.0
    return (_weighted_medians(traced, counts) / expected - 1.0) * 100.0


def trace_check(result: LoopResult, recorder: Recorder) -> Dict[str, float]:
    """The traced ops' span self times against the same ops untraced.

    Over the traced ops whose key ``closed_loop_overhead`` compares, per op
    and normalised like the op's own sample, weighted by key as there:
    ``self_sum_ms`` is the median per key of the self times of every span
    under an op added up, ``untraced_ms`` the median untraced latency of
    the same keys, and ``catch_all_ms`` the mean part of an op's self times
    in ``CATCH_ALL_SPANS`` (time no layer span covers); ``spans`` names
    every span seen under those ops.
    ``self_sum_ms / untraced_ms - 1`` should read as the tracing overhead.
    """
    untraced, _, keys = _compared_keys(result)
    normalised = [seg.normalised() for seg in result.segments]
    sums: Dict[str, List[float]] = defaultdict(list)
    seen = set()
    catch_all = 0.0
    for root, names in request_self_times(recorder).items():
        tag = recorder.tags[root]
        if not tag["ok"] or tag["key"] not in keys:
            continue
        seg, i = tag["segment"], tag["sample"]
        scale = normalised[seg][i] / result.segments[seg].latencies[i]
        sums[tag["key"]].append(sum(names.values()) * scale)
        catch_all += sum(t for name, t in names.items()
                         if name in CATCH_ALL_SPANS) * scale
        seen.update(names)
    counts = {k: len(v) for k, v in sums.items()}
    n = max(1, sum(counts.values()))
    return {
        "ops": float(sum(counts.values())),
        "self_sum_ms": _weighted_medians(sums, counts) / n * 1e3,
        "catch_all_ms": catch_all / n * 1e3,
        "untraced_ms": _weighted_medians(untraced, counts) / n * 1e3,
        "spans": sorted(seen),
    }


def request_self_times(recorder: Recorder):
    """Root span id -> self time per span name, over tagged request roots."""
    self_t = recorder.self_times()
    roots = recorder.roots()
    totals: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, _, _, _ in recorder.spans:
        root = roots[sid]
        if root in recorder.tags:
            totals[root][name] += self_t[sid]
    return totals


# ---- compile ---------------------------------------------------------------------------

# Paper-width variants of the six paper families. The depth of each was
# drawn once from its family's paper range and frozen, so every seed
# compiles the same set and sim_latency_us is exact; the seed orders the
# stream. Paper-depth LSTM is left out: its cold compile alone takes ~50 s.
COMPILE_VARIANTS = (
    ("bert_l1", "build_bert", {"layers": 1}),
    ("bert_l2", "build_bert", {"layers": 2}),
    ("bert_l3", "build_bert", {"layers": 3}),
    ("resnext_1111", "build_resnext", {"layers_per_stage": [1, 1, 1, 1]}),
    ("resnext_1121", "build_resnext", {"layers_per_stage": [1, 1, 2, 1]}),
    ("swin_1111", "build_swin", {"depths": (1, 1, 1, 1)}),
    ("mmoe_e4", "build_mmoe", {"num_experts": 4}),
    ("mmoe_e8", "build_mmoe", {"num_experts": 8}),
    ("mmoe_e16", "build_mmoe", {"num_experts": 16}),
    ("lstm_t4c2", "build_lstm", {"time_steps": 4, "num_cells": 2}),
    ("lstm_t6c2", "build_lstm", {"time_steps": 6, "num_cells": 2}),
    ("efficientnet_b0", "build_efficientnet", {}),
)

# Per epoch every variant gets one cold compile, one certified compile and
# three or four warm repeats (alternating): 18% cold, 18% certified, 64%
# warm, so p50 sits in the module-cache band and p95 among the certified
# compiles of the largest variants.
COMPILE_WARM_REPEATS = (3, 4)

# Ops between probe readings.
COMPILE_PROBE_EVERY = 1


class _Epoch:
    """One pass over the variant pool against a fresh cache directory."""

    def __init__(self, plain, certified) -> None:
        self.plain = plain
        self.certified = certified
        self.kernels: Dict[str, str] = {}


class CompileOp(Op):
    def __init__(self, workload: "CompileWorkload", epoch: _Epoch,
                 variant: str, kind: str) -> None:
        self.workload = workload
        self.epoch = epoch
        self.variant = variant
        self.kind = kind
        self.key = f"{kind}:{variant}"
        self.info: Dict[str, object] = {}

    def prepare(self):
        return self.workload.graph_from_dict(self.workload.docs[self.variant])

    def run(self, graph):
        compiler = (
            self.epoch.certified if self.kind == "certified"
            else self.epoch.plain
        )
        return compiler.compile(graph)

    def check(self, module) -> bool:
        return self.workload.check_compile(self, module)


class CompileWorkload(Workload):
    """A closed-loop stream of ``SouffleCompiler.compile`` calls."""

    name = "compile"
    probe_kind = "python"

    def setup(self) -> None:
        from repro import models
        from repro.frontends import graph_from_dict, graph_to_dict

        self.graph_from_dict = graph_from_dict
        self.docs = {
            name: graph_to_dict(getattr(models, builder)(**kw, name=name))
            for name, builder, kw in COMPILE_VARIANTS
        }
        # Warm-up: one cold, warm and certified compile of the smallest
        # variant, so first-call costs land here and not in the first op.
        warm = _Epoch(*self._compilers(os.path.join(self.workdir, "warmup")))
        for compiler in (warm.plain, warm.plain, warm.certified):
            compiler.compile(graph_from_dict(self.docs["mmoe_e4"]))
        self.cold_modules: Dict[str, object] = {}
        self.unknown: Dict[str, int] = {}

    def _compilers(self, cache_dir: str):
        from repro import SouffleCompiler, SouffleOptions

        return (
            SouffleCompiler(cache=cache_dir),
            SouffleCompiler(cache=cache_dir,
                            options=SouffleOptions(certify=True)),
        )

    def _epoch_ops(self, index: int) -> List[CompileOp]:
        """One epoch: cold compiles in pool order, every other op of a
        variant at a seeded random point after that variant's cold op.

        The cold ops keep a fixed order so the schedule-cache state each
        one meets (which siblings already searched its TE shapes) does not
        depend on the seed; the seed decides everything else's place.
        """
        cache_dir = os.path.join(self.workdir, "compile-cache", f"epoch{index}")
        epoch = _Epoch(*self._compilers(cache_dir))
        count = len(COMPILE_VARIANTS)
        keyed: List[Tuple[float, int, str, str]] = []
        for i, (name, _, _) in enumerate(COMPILE_VARIANTS):
            repeats = COMPILE_WARM_REPEATS[i % len(COMPILE_WARM_REPEATS)]
            keyed.append((i / count, 0, name, "cold"))
            for kind in ["certified"] + ["warm"] * repeats:
                keyed.append(
                    (float(self.rng.uniform(i / count, 1.0)), 1, name, kind))
        keyed.sort()
        return [CompileOp(self, epoch, name, kind)
                for _, _, name, kind in keyed]

    def _rounds(self):
        epoch = 0
        while True:
            yield self._epoch_ops(epoch)
            epoch += 1

    def check_compile(self, op: CompileOp, module) -> bool:
        stats = module.stats
        op.info = {
            "variant": op.variant,
            "trials": stats.schedule_trials,
            "schedule_hits": stats.schedule_cache_hits,
            "schedule_misses": stats.schedule_cache_misses,
            "module_hit": stats.module_cache_hit,
        }
        if op.kind == "cold":
            op.epoch.kernels[op.variant] = module.render_kernels()
            self.cold_modules.setdefault(op.variant, module)
            return not stats.module_cache_hit
        if op.kind == "warm":
            return (
                stats.module_cache_hit
                and module.render_kernels() == op.epoch.kernels.get(op.variant)
            )
        certificates = list(module.certificates)
        self.unknown[op.variant] = sum(
            1 for c in certificates if c.status == "unknown"
        )
        return (
            not stats.module_cache_hit
            and bool(certificates)
            and not any(c.refuted for c in certificates)
        )

    def measure(self, seconds: float) -> LoopResult:
        return closed_loop(
            self._rounds(), seconds, self.probe_kind, COMPILE_PROBE_EVERY,
            set_traced=self.set_traced if self.tracer else None,
            recorder=self.recorder,
        )

    def sim_latency_us(self) -> float:
        return simulated_us(
            self.cold_modules[name] for name, _, _ in COMPILE_VARIANTS
        )

    # ---- tracing -----------------------------------------------------------

    def install_measure_tracing(self) -> None:
        from repro.analysis.partition import Partitioner
        from repro.cache.module_cache import ModuleCache
        from repro.core import souffle
        from repro.schedule.ansor import AnsorScheduler

        wrap = self.tracer.wrap
        wrap(souffle.SouffleCompiler, "compile", "core.compile_self")
        for attr, name in (
            ("lower_graph", "graph.lower"),
            ("horizontal_transform", "transform.horizontal"),
            ("vertical_transform", "transform.vertical"),
            ("characterize_program", "analysis.characterize"),
            ("build_kernel", "tir.codegen"),
            ("apply_reuse", "tir.subprogram_opt"),
            ("apply_pipeline", "tir.subprogram_opt"),
            ("module_cache_key", "cache.module_key"),
            ("certify_te_transform", "verify.certify"),
        ):
            wrap(souffle, attr, name)
        wrap(Partitioner, "partition", "analysis.partition")
        wrap(AnsorScheduler, "schedule", "schedule.search")
        wrap(ModuleCache, "load", "cache.module_load")
        wrap(ModuleCache, "store", "cache.module_store")

    def layer_metrics(self, result: LoopResult) -> Dict[str, float]:
        from repro import profile_module

        recorder = self.recorder
        totals = request_self_times(recorder)
        by_kind: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        count: Dict[str, int] = defaultdict(int)
        trials = hits = lookups = module_hits = 0
        for root, names in totals.items():
            tag = recorder.tags[root]
            if not tag["ok"]:
                continue
            kind = tag["kind"]
            count[kind] += 1
            module_hits += int(bool(tag["module_hit"]))
            for name, seconds in names.items():
                by_kind[kind][name] += seconds
            if kind == "cold":
                trials += tag["trials"]
                hits += tag["schedule_hits"]
                lookups += tag["schedule_hits"] + tag["schedule_misses"]

        def per_op(kind: str, name: str) -> float:
            return by_kind[kind][name] / max(1, count[kind]) * 1e3

        metrics = {
            f"{layer}_ms": per_op("cold", layer) for layer in COMPILE_LAYERS
        }
        reports = [
            profile_module(self.cold_modules[name])
            for name, _, _ in COMPILE_VARIANTS
        ]
        ops = sum(count.values())
        metrics.update({
            "schedule.trials": trials / max(1, count["cold"]),
            "cache.schedule_hit_pct": 100.0 * hits / max(1, lookups),
            "cache.module_key_ms": per_op("warm", "cache.module_key"),
            "cache.module_load_ms": per_op("warm", "cache.module_load"),
            "cache.module_store_ms": per_op("cold", "cache.module_store"),
            "cache.module_hit_pct": 100.0 * module_hits / max(1, ops),
            "verify.certify_ms": per_op("certified", "verify.certify"),
            "verify.unknown": float(sum(self.unknown.values())),
            "gpu.kernels": float(sum(r.kernel_calls for r in reports)),
            "gpu.load_mb": sum(r.load_bytes for r in reports) / 1e6,
        })
        return metrics

    def diagnostics(self) -> Dict[str, object]:
        return {"variants": len(COMPILE_VARIANTS)}


# ---- serve-closed -------------------------------------------------------------------

# Requests per round. The three classes each take about a third of the
# round's (normalised) busy time on a 2-core x86 host: five dispatch-bound
# tiny models (~0.2-1.1 ms each), tiny ResNeXt (~6 ms) and the paper-width
# BERT attention block (~350 ms).
SERVE_ROUND = {
    "attention": 1,
    "resnext": 66,
    "bert": 130,
    "lstm": 130,
    "efficientnet": 130,
    "swin": 130,
    "mmoe": 130,
}
SERVE_ACTIVATIONS = {"attention": 3}  # others: SERVE_DEFAULT_ACTIVATIONS
SERVE_DEFAULT_ACTIVATIONS = 8
SERVE_PROBE_EVERY = 20
# The attention block's time is one large memory-bound reduce step, which a
# slow host phase stretches far less than small numpy calls: no probe tracks
# it (dividing by one doubled its spread), so its latency stays raw.
SERVE_RAW = {"attention"}


class _ServedModel:
    def __init__(self, name: str, module, weights, activations) -> None:
        self.name = name
        self.module = module
        self.weights = weights
        self.activations = activations
        self.references: List[List[np.ndarray]] = []


class ServeOp(Op):
    def __init__(self, model: _ServedModel, index: int) -> None:
        self.model = model
        self.index = index
        self.kind = model.name
        self.key = model.name
        if model.name in SERVE_RAW:
            self.fixed_s = math.inf

    def prepare(self):
        feeds = dict(self.model.weights)
        for name, value in self.model.activations[self.index].items():
            feeds[name] = value.copy()  # a fresh activation per request
        return feeds

    def run(self, feeds):
        return self.model.module.run_by_name(feeds)

    def check(self, outputs) -> bool:
        return same_outputs(outputs, self.model.references[self.index])


class ServeClosedWorkload(Workload):
    """Back-to-back ``CompiledModule.run_by_name`` calls from one client."""

    name = "serve-closed"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.hoist_evaluations = 0

    def setup(self) -> None:
        from repro import SouffleCompiler
        from repro.models import TINY_MODELS, build_bert_attention_subgraph

        builders = dict(TINY_MODELS)
        builders["attention"] = build_bert_attention_subgraph
        compiler = SouffleCompiler(
            cache=os.path.join(self.workdir, "serve-cache"))
        self.models: Dict[str, _ServedModel] = {}
        for name in SERVE_MODELS:
            module = compiler.compile(builders[name]())
            inputs = module.program.inputs
            weights = {t.name: make_feed(self.rng, t)
                       for t in inputs if t.role == "weight"}
            count = SERVE_ACTIVATIONS.get(name, SERVE_DEFAULT_ACTIVATIONS)
            activations = [
                {t.name: make_feed(self.rng, t)
                 for t in inputs if t.role != "weight"}
                for _ in range(count)
            ]
            model = _ServedModel(name, module, weights, activations)
            # Warm-up: plan build, hoisted weights, einsum path caches.
            module.run_by_name(ServeOp(model, 0).prepare())
            self.models[name] = model

    def prepare_checks(self) -> None:
        for model in self.models.values():
            inputs = model.module.program.inputs
            for acts in model.activations:
                feeds = {**model.weights, **acts}
                model.references.append(model.module.run_interpreted(
                    {t: feeds[t.name] for t in inputs}))

    def _rounds(self):
        while True:
            ops: List[ServeOp] = []
            for name, count in SERVE_ROUND.items():
                model = self.models[name]
                picks = self.rng.integers(len(model.activations), size=count)
                ops.extend(ServeOp(model, int(k)) for k in picks)
            yield [ops[i] for i in self.rng.permutation(len(ops))]

    def measure(self, seconds: float) -> LoopResult:
        return closed_loop(
            self._rounds(), seconds, self.probe_kind, SERVE_PROBE_EVERY,
            set_traced=self.set_traced if self.tracer else None,
            recorder=self.recorder,
        )

    def sim_latency_us(self) -> float:
        return simulated_us(m.module for m in self.models.values())

    # ---- tracing -----------------------------------------------------------

    def install_setup_tracing(self) -> None:
        from repro import ExecutionPlan

        self.tracer.wrap(ExecutionPlan, "__init__", "executor.plan_build")

    def _plans(self):
        return [m.module.session.plan for m in self.models.values()]

    def install_measure_tracing(self) -> None:
        install_execution_tracing(self.tracer, self._plans())
        self._hoist_before = [p.hoist_evaluations for p in self._plans()]

    def remove_measure_tracing(self) -> None:
        # Hoist evaluations during the traced segment, counted at its ends.
        self.hoist_evaluations += sum(
            p.hoist_evaluations - before
            for p, before in zip(self._plans(), self._hoist_before))
        super().remove_measure_tracing()

    def layer_metrics(self, result: LoopResult) -> Dict[str, float]:
        recorder = self.recorder
        totals = request_self_times(recorder)
        requests = [r for r in totals if recorder.tags[r]["ok"]]
        n = max(1, len(requests))
        sums: Dict[str, float] = defaultdict(float)
        for root in requests:
            for name, seconds in totals[root].items():
                sums[name] += seconds
        hoisting = {
            id(m.module.session.plan) for m in self.models.values()
            if m.module.session.plan.hoist_boundary
        }
        hoisted_executes = sum(
            1 for sid, name, _, _, _ in recorder.spans
            if name == "executor.execute"
            and recorder.tags.get(sid, {}).get("plan") in hoisting
        )
        metrics = {
            "executor.plan_build_ms": (
                self.setup_spans["executor.plan_build"]
                / len(self.models) * 1e3),
            "session.bind_us": sums["session.bind"] / n * 1e6,
            "executor.dispatch_us": sums["executor.execute"] / n * 1e6,
            "executor.hoist_hit_pct": 100.0 * (
                1.0 - self.hoist_evaluations / max(1, hoisted_executes)),
        }
        for kind in STEP_KINDS:
            metrics[f"executor.step_us.{kind}"] = (
                sums[f"step.{kind}"] / n * 1e6)
        for name, model in self.models.items():
            plan = model.module.session.plan
            stats = plan.optimization.stats if plan.optimization else None
            metrics[f"executor.steps.{name}"] = float(plan.num_steps)
            metrics[f"executor.parallel_waves.{name}"] = float(
                stats.parallel_waves if stats else 0)
            metrics[f"tiling.tiled_chains.{name}"] = float(
                stats.tiled_chains if stats else 0)
        return metrics

    def diagnostics(self) -> Dict[str, object]:
        return {"requests_per_round": sum(SERVE_ROUND.values())}


def install_execution_tracing(tracer: Tracer, plans, on_run=None) -> None:
    """Spans around session runs, feed binding, plan execution and steps.

    Steps dispatched to the wave pool run on threads with nothing open, so
    their parent is the plan's currently open ``execute`` span.
    """
    from repro import ExecutionPlan
    from repro.runtime.session import InferenceSession

    recorder = tracer.recorder
    active: Dict[int, int] = {}

    def on_execute(sid: int, _parent: int, args: tuple) -> None:
        active[id(args[0])] = sid
        recorder.tags[sid] = {"plan": id(args[0])}

    tracer.wrap(InferenceSession, "run", "session.run", on_enter=on_run)
    tracer.wrap(ExecutionPlan, "bind_feeds", "session.bind")
    tracer.wrap(ExecutionPlan, "execute", "executor.execute",
                on_enter=on_execute)
    for plan in plans:
        key = id(plan)
        for step in plan.steps:
            tracer.wrap(step, "run", f"step.{step.kind}",
                        resolve_parent=lambda key=key: active.get(key, 0))


# ---- open loops -------------------------------------------------------------------

# One arrival rate for both open loops, below capacity of the sharded
# server on a 2-core host in its slow regime.
OPEN_RATE_PER_S = 400.0
OPEN_SEGMENT_S = 0.5
OPEN_ACTIVATIONS = 16


class OpenLoopWorkload(Workload):
    """Seeded Poisson arrivals of tiny-BERT requests at a fixed rate."""

    open_loop = True

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        # Traced segments: feeds identity -> (submit time, request span id),
        # and the span ids of the current segment's requests in send order.
        self.submitted: Dict[int, Tuple[float, int]] = {}
        self.request_ids: List[int] = []
        self.lateness: List[float] = []

    def _plans(self):
        while True:
            offsets: List[float] = []
            t = 0.0
            while True:
                t += float(self.rng.exponential(1.0 / OPEN_RATE_PER_S))
                if t >= OPEN_SEGMENT_S:
                    break
                offsets.append(t)
            picks = self.rng.integers(OPEN_ACTIVATIONS, size=len(offsets))
            yield OpenSegmentPlan(
                offsets, [self.request(int(k)) for k in picks], picks)

    def submit(self, feeds):
        if not self.tracing:
            return self.server.submit(feeds)
        # In a traced segment the request's root span, recorded once its
        # future resolves (on_segment), is open around the submit call, so
        # the submit span nests under it.
        rid = self.recorder.new_id()
        self.request_ids.append(rid)
        stack = self.recorder.stack()
        stack.append(rid)
        try:
            return self.server.submit(feeds)
        finally:
            stack.pop()

    def check(self, plan: OpenSegmentPlan, index: int, outputs) -> bool:
        return same_outputs(outputs, self.references[int(plan.picks[index])])

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()

    def on_segment(self, dues, done) -> None:
        """Record each traced request's span: scheduled send to resolve."""
        for rid, due, end in zip(self.request_ids, dues, done):
            if end:  # 0.0: refused at submit, never resolved
                self.recorder.record("request", due, end, sid=rid)
        self.request_ids.clear()

    def note_submit(self, feeds_key: int, request: int) -> None:
        self.submitted[feeds_key] = (time.perf_counter(), request)

    def take_requests(self, span: int, feeds_keys) -> List[float]:
        """Tag a batch or dispatch span with the request span ids it
        carries; returns when each of those requests was submitted."""
        requests = []
        submit_times = []
        for key in feeds_keys:
            submitted = self.submitted.pop(key, None)
            if submitted is not None:
                submit_times.append(submitted[0])
                requests.append(submitted[1])
        self.recorder.tags.setdefault(span, {})["requests"] = requests
        return submit_times

    def measure(self, seconds: float) -> LoopResult:
        # The first max_queue_delay_ms of a request's latency is the
        # server's batching window, a timer that a slow host phase does not
        # stretch; only the rest is normalised.
        result = open_loop(
            self._plans(), seconds, self.submit, self.check,
            self.probe_kind, self.server.max_queue_delay_ms / 1e3,
            set_traced=self.set_traced if self.tracer else None,
            on_segment=self.on_segment,
        )
        self.lateness = result.lateness
        return result

    def open_overhead(self, result: LoopResult) -> float:
        traced = [x for s in result.traced() for x in s.latencies]
        untraced = [x for s in result.untraced() for x in s.latencies]
        if not traced or not untraced:
            return 0.0
        return (percentile(traced, 50) / percentile(untraced, 50) - 1) * 100

    def diagnostics(self) -> Dict[str, object]:
        late = self.lateness
        return {
            "rate_per_s": OPEN_RATE_PER_S,
            "generator_late_p50_ms": percentile(late, 50) * 1e3,
            "generator_late_p95_ms": percentile(late, 95) * 1e3,
            "generator_late_max_ms": max(late, default=0.0) * 1e3,
        }


class BatchOpenWorkload(OpenLoopWorkload):
    """Open loop into ``InferenceSession.serve()`` (a BatchingServer)."""

    name = "batch-open"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.retries = 0
        self.counters: Dict[str, float] = {}  # over the measured phase

    def setup(self) -> None:
        from repro import SouffleCompiler
        from repro.models import build_bert_tiny

        module = SouffleCompiler(
            cache=os.path.join(self.workdir, "batch-cache"),
        ).compile(build_bert_tiny())
        self.module = module
        inputs = module.program.inputs
        # Tensor-keyed feeds: every request carries the same weight arrays
        # (hoist and broadcast hits) plus a fresh activation.
        self.weights = {t: make_feed(self.rng, t)
                        for t in inputs if t.role == "weight"}
        self.activation_tensors = [t for t in inputs if t.role != "weight"]
        self.activations = [
            {t: make_feed(self.rng, t) for t in self.activation_tensors}
            for _ in range(OPEN_ACTIVATIONS)
        ]
        session = module.session
        for bucket in session.batch_buckets:
            session.batch_plan(bucket)
        self.server = session.serve()
        for burst in (8, 8, 4, 4, 2, 2, 1, 1):
            futures = [self.server.submit(self.request(k))
                       for k in range(burst)]
            for future in futures:
                future.result(timeout=60)

    def request(self, index: int):
        feeds = dict(self.weights)
        for t, value in self.activations[index].items():
            feeds[t] = value.copy()
        return feeds

    def prepare_checks(self) -> None:
        self.references = [
            self.module.run_interpreted({**self.weights, **acts})
            for acts in self.activations
        ]

    def sim_latency_us(self) -> float:
        return simulated_us([self.module])

    def _read_counters(self) -> Dict[str, float]:
        """The server's and session's cumulative batching counters."""
        session = self.module.session
        batched = session.arena_state.batches_executed
        return {
            "requests": self.server.requests_completed,
            "batches": self.server.batches_dispatched,
            "batched": batched,
            "occupancy": session.mean_batch_occupancy * batched,
        }

    def measure(self, seconds: float) -> LoopResult:
        before = self._read_counters()
        result = super().measure(seconds)
        after = self._read_counters()
        self.counters = {k: after[k] - before[k] for k in after}
        # A window over the latest requests, all of them measured ones.
        self.counters["queue_wait_p50_s"] = (
            self.server.queue_wait_percentiles()["p50"])
        return result

    # ---- tracing -----------------------------------------------------------

    def install_measure_tracing(self) -> None:
        from repro.runtime.batching import BatchingServer
        from repro.runtime.executor import BatchedExecutionPlan
        from repro.runtime.session import InferenceSession

        session = self.module.session
        plans = [session.plan] + [
            session.batch_plan(b) for b in session.batch_buckets]

        def on_submit(_sid, parent, args) -> None:
            self.note_submit(id(args[1]), parent)

        def on_run_batch(sid, _parent, args) -> None:
            self.take_requests(sid, [id(feeds) for feeds in args[1]])

        def on_run(_sid, parent, _args) -> None:
            if parent == NO_PARENT:
                self.retries += 1  # a member replayed after a failed batch

        self.tracer.wrap(BatchingServer, "submit", "batching.submit",
                         on_enter=on_submit)
        self.tracer.wrap(InferenceSession, "run_batch", "batching.run_batch",
                         on_enter=on_run_batch)
        self.tracer.wrap(BatchedExecutionPlan, "bind_batch",
                         "batching.bind_batch")
        install_execution_tracing(self.tracer, plans, on_run=on_run)

    def layer_metrics(self, result: LoopResult) -> Dict[str, float]:
        recorder = self.recorder
        self_t = recorder.self_times()
        batch_spans = {sid for sid, name, _, _, _ in recorder.spans
                       if name == "batching.run_batch"}
        bind = [e - s for _, name, s, e, _ in recorder.spans
                if name == "batching.bind_batch"]
        execute = [e - s for _, name, s, e, parent in recorder.spans
                   if name == "executor.execute" and parent in batch_spans]
        slices = [self_t[sid] for sid in batch_spans]
        steps: Dict[str, float] = defaultdict(float)
        for sid, name, _, _, _ in recorder.spans:
            if name.startswith("step."):
                steps[name] += self_t[sid]
        requests = max(1, sum(1 for span in recorder.spans
                              if span[1] == "request"))
        counters = self.counters
        metrics = {
            "batching.queue_wait_ms": counters["queue_wait_p50_s"] * 1e3,
            "batching.bind_batch_us": float(np.mean(bind)) * 1e6 if bind else 0.0,
            "batching.execute_us": float(np.mean(execute)) * 1e6 if execute else 0.0,
            "batching.slice_us": float(np.mean(slices)) * 1e6 if slices else 0.0,
            "batching.batch_size": (
                counters["requests"] / max(1, counters["batches"])),
            "batching.lane_use_pct": (
                100.0 * counters["occupancy"] / max(1, counters["batched"])),
            "batching.unbatched_retries": float(self.retries),
            "loadgen.late_p95_ms": percentile(self.lateness, 95) * 1e3,
            "trace.overhead_pct": self.open_overhead(result),
        }
        for kind in STEP_KINDS:
            metrics[f"executor.step_us.{kind}"] = (
                steps[f"step.{kind}"] / requests * 1e6)
        return metrics


class ShardOpenWorkload(OpenLoopWorkload):
    """The same arrivals into ``ShardedServer(graph, weights, replicas=2)``."""

    name = "shard-open"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.queue_waits: List[float] = []  # submit to replica hand-off

    def setup(self) -> None:
        from repro import lower_graph
        from repro.models import build_bert_tiny
        from repro.runtime.sharding import ShardedServer

        self.graph = build_bert_tiny()
        self.program = lower_graph(self.graph)
        inputs = self.program.inputs
        self.weights = {t.name: make_feed(self.rng, t)
                        for t in inputs if t.role == "weight"}
        self.activation_names = [t.name for t in inputs if t.role != "weight"]
        self.activations = [
            {t.name: make_feed(self.rng, t)
             for t in inputs if t.role != "weight"}
            for _ in range(OPEN_ACTIVATIONS)
        ]
        self.server = ShardedServer(
            self.graph, self.weights, replicas=2,
            cache_dir=os.path.join(self.workdir, "shard-cache"),
        )
        self.server.start()
        for burst in (16, 16, 8, 8, 4, 4, 2, 2):
            futures = [self.server.submit(self.request(k % OPEN_ACTIVATIONS))
                       for k in range(burst)]
            for future in futures:
                future.result(timeout=60)

    def request(self, index: int):
        return {name: value.copy()
                for name, value in self.activations[index].items()}

    def prepare_checks(self) -> None:
        # ShardedServer serves the raw lowering of the graph, not a
        # compiled program, so the oracle interprets lower_graph(graph).
        from repro.te.evaluator import Evaluator

        self.references = []
        for acts in self.activations:
            feeds = {**self.weights, **acts}
            evaluator = Evaluator(
                {t: feeds[t.name] for t in self.program.inputs})
            self.references.append(
                [evaluator.value_of(out) for out in self.program.outputs])

    def sim_latency_us(self) -> float:
        # ShardedServer serves the raw lowering and compiles nothing, but
        # every workload reports sim_latency_us: this is the one compile the
        # workload does only for a metric. It runs after the measured phase
        # and after peak memory is read, outside every timing.
        from repro import SouffleCompiler

        module = SouffleCompiler(cache=False).compile(self.graph)
        return simulated_us([module])

    def worker_pids(self) -> List[int]:
        return [row["pid"] for row in
                self.server.metrics(refresh=False)["per_replica"]
                if row.get("pid")]

    # ---- tracing -----------------------------------------------------------

    def install_setup_tracing(self) -> None:
        from repro.runtime.sharding import ShardedServer
        from repro.runtime.weight_store import WeightStore

        self.tracer.wrap(WeightStore, "create", "weight_store.create")
        self.tracer.wrap(ShardedServer, "start", "sharding.start")

    def install_measure_tracing(self) -> None:
        from repro.runtime.sharding import ShardedServer

        first = self.activation_names[0]

        def on_submit(_sid, parent, args) -> None:
            self.note_submit(id(args[1][first]), parent)

        def on_dispatch(sid, _parent, args) -> None:
            now = time.perf_counter()
            submitted = self.take_requests(sid, [
                id(value) for pending in args[1]
                for value in pending.feeds.values()])
            self.queue_waits.extend(now - t for t in submitted)

        self.tracer.wrap(ShardedServer, "submit", "sharding.submit",
                         on_enter=on_submit)
        # The dispatcher's hand-off to a replica has no public hook; the
        # private method is wrapped, never edited.
        self.tracer.wrap(ShardedServer, "_dispatch", "sharding.dispatch",
                         on_enter=on_dispatch)

    def layer_metrics(self, result: LoopResult) -> Dict[str, float]:
        metrics = self.server.metrics(refresh=True)
        rows = metrics["per_replica"]
        served = sum(r.get("worker_requests", 0) for r in rows)
        compute_ms = sum(
            r.get("worker_p50_us", 0.0) * r.get("worker_requests", 0)
            for r in rows
        ) / max(1, served) / 1e3
        traced = [x for s in result.traced() for x in s.latencies]
        queue_ms = percentile(self.queue_waits, 50) * 1e3
        agg = metrics["aggregate"]
        return {
            "sharding.queue_wait_ms": queue_ms,
            "sharding.worker_compute_ms": compute_ms,
            "sharding.overhead_ms": (
                percentile(traced, 50) * 1e3 - queue_ms - compute_ms),
            "sharding.spawn_ms": self.setup_spans["sharding.start"] * 1e3,
            "weight_store.create_ms":
                self.setup_spans["weight_store.create"] * 1e3,
            "sharding.private_weight_mb": sum(
                r.get("weight_private_bytes", 0) for r in rows) / 1e6,
            "sharding.redispatched": float(agg["requests_redispatched"]),
            "sharding.crashes": float(agg["worker_crashes"]),
            "loadgen.late_p95_ms": percentile(self.lateness, 95) * 1e3,
            "trace.overhead_pct": self.open_overhead(result),
        }


WORKLOADS = {
    w.name: w for w in (
        CompileWorkload, ServeClosedWorkload, BatchOpenWorkload,
        ShardOpenWorkload,
    )
}
