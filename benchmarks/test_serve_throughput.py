"""Serving throughput — plan-based replay vs interpretive execution.

The ROADMAP's north star is serve-side: pay for analysis once at compile
time, replay a flat plan per request. This benchmark pins that down with an
explicit acceptance floor: on repeated inference (>= 32 calls) the
:class:`ExecutionPlan` replay must be at least ``FLOOR_SPEEDUP`` times
faster than constructing-and-walking a fresh ``Evaluator`` per request
(the pre-plan ``CompiledModule.run`` behaviour), for BERT and MMoE.

Also asserted here, because throughput claims are worthless without them:
plan outputs are *bit-identical* to the Evaluator oracle on all six paper
models, and a session allocates its arena workspace exactly once no matter
how many requests it serves.
"""

import time

import numpy as np
import pytest

from common import MODEL_NAMES, save_json, save_table

from repro.graph.lowering import lower_graph
from repro.models import TINY_MODELS
from repro.runtime.executor import ExecutionPlan
from repro.runtime.plan_opt import optimize_plan, plan_optimization
from repro.runtime.session import InferenceSession
from repro.te.evaluator import Evaluator
from repro.transform.semantics import random_feeds

# Acceptance floor from the issue: >= 2x on repeated BERT/MMoE inference.
FLOOR_SPEEDUP = 2.0
FLOOR_MODELS = ("bert", "mmoe")
CALLS = 32
BEST_OF = 3


def _interpret(program, feeds):
    evaluator = Evaluator(feeds)
    return [evaluator.value_of(t) for t in program.outputs]


def _time_loop(fn, calls=CALLS, best_of=BEST_OF) -> float:
    """Best-of-N timing of a ``calls``-request loop (seconds per loop)."""
    best = float("inf")
    for _ in range(best_of):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def programs():
    return {name: lower_graph(TINY_MODELS[name]()) for name in MODEL_NAMES}


@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_plan_outputs_bit_identical(programs, name):
    """Differential guarantee across every paper model: the plan engine and
    the interpretive oracle agree to the last bit."""
    program = programs[name]
    feeds = random_feeds(program, seed=17)
    session = InferenceSession(program)
    reference = _interpret(program, feeds)
    for _ in range(3):  # replay repeatedly through the shared arena
        outputs = session.run(feeds)
        for got, want in zip(outputs, reference):
            assert np.array_equal(got, want), name


def test_workspace_allocated_once(programs):
    """Intermediates come from the MemoryPlan arena: one workspace per
    session, reused across every request."""
    program = programs["bert"]
    # The per-tensor arena-backing claim is about the unoptimized layout:
    # the plan optimizer legitimately deletes fused interiors from the
    # arena, so they have no views to check.
    session = InferenceSession(program, plan=ExecutionPlan(program))
    feeds = random_feeds(program, seed=1)
    for _ in range(CALLS):
        session.run(feeds)
    assert session.arena_state.request_count == CALLS
    assert session.arena_state.arenas_allocated == 1
    assert session.plan.workspace_bytes > 0
    # Every non-output intermediate is backed by planned arena bytes.
    arena = session.arena_state._free_arenas[0]
    for node in program.nodes:
        if program.is_output(node.tensor):
            continue
        assert np.shares_memory(arena.views[id(node.tensor)], arena.buffer)


def test_serve_throughput(programs):
    """Plan replay beats interpretive run >= 2x on repeated BERT/MMoE."""
    rows = [
        f"{'model':14s} {'interp ms':>10s} {'plan ms':>9s} "
        f"{'speedup':>8s} {'plan req/s':>11s} {'arena kB':>9s} {'steps':>6s}"
    ]
    speedups = {}
    records = []
    for name in MODEL_NAMES:
        program = programs[name]
        feeds = random_feeds(program, seed=5)
        session = InferenceSession(program)
        session.run(feeds)            # warm: plan + arena already built
        _interpret(program, feeds)    # warm numpy caches

        interp_s = _time_loop(lambda: _interpret(program, feeds))
        plan_s = _time_loop(lambda: session.run(feeds))
        speedup = interp_s / plan_s
        speedups[name] = speedup
        records.append({
            "model": name,
            "interp_ms_per_req": interp_s / CALLS * 1e3,
            "plan_ms_per_req": plan_s / CALLS * 1e3,
            "speedup": speedup,
            "plan_req_per_s": CALLS / plan_s,
            "workspace_bytes": session.plan.workspace_bytes,
            "steps": session.plan.num_steps,
        })
        rows.append(
            f"{name:14s} {interp_s / CALLS * 1e3:10.3f} "
            f"{plan_s / CALLS * 1e3:9.3f} {speedup:8.2f} "
            f"{CALLS / plan_s:11.1f} "
            f"{session.plan.workspace_bytes / 1e3:9.1f} "
            f"{session.plan.num_steps:6d}"
        )

    rows.append("")
    rows.append(
        f"floor: plan replay >= {FLOOR_SPEEDUP:.1f}x vs interpretive run "
        f"on {', '.join(FLOOR_MODELS)} ({CALLS} calls, best of {BEST_OF})"
    )
    save_table("serve_throughput", "\n".join(rows))
    save_json("serve_throughput", {
        "benchmark": "serve_throughput",
        "calls": CALLS,
        "best_of": BEST_OF,
        "floor_speedup": FLOOR_SPEEDUP,
        "floor_models": list(FLOOR_MODELS),
        "results": records,
    })

    for name in FLOOR_MODELS:
        assert speedups[name] >= FLOOR_SPEEDUP, (
            f"{name}: plan replay only {speedups[name]:.2f}x faster than "
            f"the interpretive evaluator (floor {FLOOR_SPEEDUP}x)"
        )


# ---- plan-optimizer pass pipeline -------------------------------------------
#
# Single-request latency of the plan-optimized session (step fusion,
# in-place elision, block tiling) against the unoptimized plan, reported
# for every model. It is not gated: both plans run the same contraction
# kernels, and on these tiny programs the optimizer's passes do not make a
# request faster (ROADMAP). The served plan's speed is gated against the
# interpreter above; here the two plans must agree bit for bit.


def test_optimized_plan_latency(programs):
    """Optimized and baseline plans agree bit for bit; report both."""
    rows = [
        f"{'model':14s} {'plain ms':>9s} {'opt ms':>8s} {'speedup':>8s} "
        f"{'steps':>11s} {'fused':>6s} {'elided kB':>10s}"
    ]
    records = []
    for name in MODEL_NAMES:
        program = programs[name]
        feeds = random_feeds(program, seed=5)
        plain = InferenceSession(program, plan=ExecutionPlan(program))
        optimized = InferenceSession(program)
        # Warm (plans, arenas, numpy caches) and compare.
        for want, got in zip(plain.run(feeds), optimized.run(feeds)):
            assert np.array_equal(want, got), name

        plain_s = _time_loop(lambda: plain.run(feeds))
        opt_s = _time_loop(lambda: optimized.run(feeds))
        speedup = plain_s / opt_s
        stats = optimized.plan.optimization.stats
        records.append({
            "model": name,
            "plain_ms_per_req": plain_s / CALLS * 1e3,
            "optimized_ms_per_req": opt_s / CALLS * 1e3,
            "speedup": speedup,
            "steps_before": stats.steps_before,
            "steps_after": stats.steps_after,
            "fused_steps": stats.fused_steps,
            "elided_bytes": stats.elided_bytes,
        })
        rows.append(
            f"{name:14s} {plain_s / CALLS * 1e3:9.3f} "
            f"{opt_s / CALLS * 1e3:8.3f} {speedup:8.2f} "
            f"{stats.steps_before:>4d} -> {stats.steps_after:<3d} "
            f"{stats.fused_steps:6d} "
            f"{stats.elided_bytes / 1e3:10.1f}"
        )

    rows.append("")
    rows.append(
        f"optimized vs baseline plan, single requests ({CALLS} calls, "
        f"best of {BEST_OF}); reported, not gated"
    )
    save_table("serve_optimized_plan", "\n".join(rows))
    save_json("serve_optimized_plan", {
        "benchmark": "serve_optimized_plan",
        "calls": CALLS,
        "best_of": BEST_OF,
        "results": records,
    })


# ---- dynamic micro-batching -------------------------------------------------
#
# The batched acceptance floor: replaying one BatchedExecutionPlan over 8
# concurrent requests must be >= BATCH_FLOOR_SPEEDUP times faster than 8
# sequential single-request replays, on BERT and MMoE. Requests share their
# weight arrays (as serving traffic does), which the batched binder turns
# into zero-copy broadcast lanes.

BATCH_FLOOR_SPEEDUP = 3.0
BATCH_SIZE = 8
BATCH_ROUNDS = 8  # timed batches per measurement (BATCH_ROUNDS * 8 requests)


def _batch_requests(program, count, seed):
    """Per-request feeds: shared weight objects, fresh leading input."""
    base = random_feeds(program, seed=seed)
    lead = program.inputs[0]
    rng = np.random.default_rng(seed + 1)
    requests = []
    for _ in range(count):
        feeds = dict(base)
        feeds[lead] = rng.standard_normal(lead.shape)
        requests.append(feeds)
    return requests


@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_batched_outputs_bit_identical(programs, name):
    """Differential guarantee across every paper model: each lane of a
    batched replay equals its own unbatched replay, to the last bit."""
    program = programs[name]
    session = InferenceSession(program)
    requests = _batch_requests(program, 11, seed=23)  # pads + chunks
    singles = [session.run(feeds) for feeds in requests]
    for want, got in zip(singles, session.run_batch(requests)):
        for a, b in zip(want, got):
            assert np.array_equal(a, b), name


def test_batched_serve_throughput(programs):
    """Batched replay beats sequential single-request replay >= 3x at
    batch 8 on BERT and MMoE."""
    rows = [
        f"{'model':14s} {'single ms/req':>14s} {'batch ms/req':>13s} "
        f"{'speedup':>8s} {'batch req/s':>12s}"
    ]
    speedups = {}
    for name in MODEL_NAMES:
        program = programs[name]
        session = InferenceSession(program, batch_buckets=(2, 4, BATCH_SIZE))
        batches = [
            _batch_requests(program, BATCH_SIZE, seed=31 + i)
            for i in range(BATCH_ROUNDS)
        ]
        total = BATCH_ROUNDS * BATCH_SIZE
        # Warm both paths: plan + batched plan + arenas + numpy caches.
        session.run(batches[0][0])
        session.run_batch(batches[0])

        def run_singles():
            for batch in batches:
                for feeds in batch:
                    session.run(feeds)

        def run_batched():
            for batch in batches:
                session.run_batch(batch)

        single_s = _time_loop(run_singles, calls=1)
        batch_s = _time_loop(run_batched, calls=1)
        speedup = single_s / batch_s
        speedups[name] = speedup
        rows.append(
            f"{name:14s} {single_s / total * 1e3:14.3f} "
            f"{batch_s / total * 1e3:13.3f} {speedup:8.2f} "
            f"{total / batch_s:12.1f}"
        )

    rows.append("")
    rows.append(
        f"floor: batched replay >= {BATCH_FLOOR_SPEEDUP:.1f}x vs sequential "
        f"singles on {', '.join(FLOOR_MODELS)} "
        f"(batch {BATCH_SIZE}, {BATCH_ROUNDS} rounds, best of {BEST_OF})"
    )
    save_table("serve_throughput_batched", "\n".join(rows))

    for name in FLOOR_MODELS:
        assert speedups[name] >= BATCH_FLOOR_SPEEDUP, (
            f"{name}: batched replay only {speedups[name]:.2f}x faster than "
            f"sequential singles (floor {BATCH_FLOOR_SPEEDUP}x)"
        )


# ---- block-level tiling of reduction chains ---------------------------------
#
# The tiling acceptance floor: on a softmax/layernorm-heavy model at
# cache-pressure scale, the tiled plan (runtime.tiling: map->reduce->map
# chains computed block-by-block through per-worker scratch) must serve
# single requests >= TILE_FLOOR_SPEEDUP times faster than the *untiled
# optimized* plan — same pass pipeline, tiling off — bit-identically. The
# model is the normalisation stack of a BERT-shaped encoder (alternating
# softmax and layernorm over (rows, hidden) activations) grown until each
# chain's working set far exceeds the tiling cache budget: exactly the
# regime the footprint model targets, where the untiled plan streams every
# chain intermediate through DRAM while the tiled plan keeps one block's
# whole chain in cache. The six tiny models are cache-resident by
# construction (the auto gate declines to tile them), so the floor rides
# on this paper-scale stack alone.

TILE_FLOOR_SPEEDUP = 1.2
TILE_ROWS = 4096
TILE_COLS = 1024
TILE_DEPTH = 3
TILE_CALLS = 3


def build_norm_stack(rows=TILE_ROWS, cols=TILE_COLS, depth=TILE_DEPTH):
    """Alternating softmax/layernorm blocks over (rows, cols) activations."""
    from repro.graph import GraphBuilder

    builder = GraphBuilder("norm_stack")
    x = builder.input((rows, cols), dtype="float32", name="x")
    for i in range(depth):
        gamma = builder.weight((cols,), name=f"gamma{i}")
        beta = builder.weight((cols,), name=f"beta{i}")
        soft = builder.softmax(
            builder.scale(x, 1.25, name=f"scale{i}"), name=f"softmax{i}"
        )
        x = builder.layernorm(soft, gamma, beta, name=f"ln{i}")
    return builder.build([x])


def optimized_plan(program, **passes):
    """An optimized plan whose static passes run with ``passes`` (the
    pass-isolation flags of ``plan_optimization``)."""
    plan = ExecutionPlan(program)
    optimize_plan(plan, plan_optimization(program, **passes))
    return plan


def test_tiled_reduction_latency():
    """Tiled chains beat the untiled optimized plan >= 1.2x on the
    softmax/layernorm stack, bit-identically."""
    program = lower_graph(build_norm_stack())
    feeds = random_feeds(program, seed=43)
    untiled = InferenceSession(
        program, name="norm_stack",
        plan=optimized_plan(program, tile=False),
    )
    tiled = InferenceSession(program, name="norm_stack")

    chains = tiled.plan.optimization.tiled_chains
    assert chains, "footprint model failed to tile the norm stack"
    assert untiled.plan.optimization.tiled_chains == []

    # Differential gate before timing anything: every output bit equal.
    want = untiled.run(feeds)
    got = tiled.run(feeds)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), "tiled outputs diverged"

    untiled_s = _time_loop(lambda: untiled.run(feeds),
                           calls=TILE_CALLS, best_of=BEST_OF)
    tiled_s = _time_loop(lambda: tiled.run(feeds),
                         calls=TILE_CALLS, best_of=BEST_OF)
    speedup = untiled_s / tiled_s

    stats = tiled.plan.optimization.stats
    rows = [
        f"{'model':14s} {'untiled ms':>11s} {'tiled ms':>9s} "
        f"{'speedup':>8s} {'chains':>7s} {'blocks':>7s} {'blk rows':>9s} "
        f"{'scratch kB':>11s}",
        f"{'norm_stack':14s} {untiled_s / TILE_CALLS * 1e3:11.1f} "
        f"{tiled_s / TILE_CALLS * 1e3:9.1f} {speedup:8.2f} "
        f"{stats.tiled_chains:7d} {stats.tiled_blocks:7d} "
        f"{max(stats.tile_block_rows):9d} "
        f"{stats.scratch_bytes / 1e3:11.1f}",
        "",
        f"model: {TILE_DEPTH} x (softmax -> layernorm) over "
        f"({TILE_ROWS}, {TILE_COLS}) float64 activations, outputs "
        "bit-identical to the untiled optimized plan",
        f"floor: tiled plan >= {TILE_FLOOR_SPEEDUP:.1f}x vs untiled "
        f"optimized plan ({TILE_CALLS} calls, best of {BEST_OF})",
    ]
    save_table("serve_tiled_reduction", "\n".join(rows))

    assert speedup >= TILE_FLOOR_SPEEDUP, (
        f"tiled plan only {speedup:.2f}x faster than the untiled "
        f"optimized plan (floor {TILE_FLOOR_SPEEDUP}x)"
    )


def test_tiled_reduction_smoke():
    """Fast CI smoke: a scaled-down stack still tiles under a small budget
    and stays bit-identical (no latency floor at this size)."""
    program = lower_graph(build_norm_stack(rows=256, cols=64, depth=2))
    feeds = random_feeds(program, seed=47)
    want = optimized_plan(program, tile=False).run(feeds)
    plan = optimized_plan(program, tile_budget=1 << 16)
    assert plan.optimization.tiled_chains
    for a, b in zip(plan.run(feeds), want):
        assert np.array_equal(a, b)


# ---- sharded multi-process serving (shared-memory weights) ------------------
#
# K worker processes map one shared-memory weight segment and serve through
# the ShardedServer dispatcher. The aggregate-throughput floor needs real
# cores to mean anything, so the replicas sweep always prints its table
# (run with -s to see it) but only enforces the >= 2x floor on machines
# with >= 4 CPUs. The table is timed on whatever machine runs it, so it is
# printed, not written over a tracked results file.

SHARD_FLOOR_SPEEDUP = 2.0
SHARD_FLOOR_REPLICAS = 4
SHARD_MODELS = ("bert", "mmoe")
SHARD_CALLS = 48


def _shard_traffic(program, count, seed):
    """Name-keyed (weights, request feeds) split from one random feed set."""
    base = random_feeds(program, seed=seed)
    weights = {t.name: v for t, v in base.items() if t.role == "weight"}
    lead = program.inputs[0]
    rng = np.random.default_rng(seed + 1)
    requests = [{lead.name: rng.standard_normal(lead.shape)}
                for _ in range(count)]
    return base, weights, requests


def _serve_all(server, requests) -> float:
    """Submit every request, wait for the last future; wall seconds."""
    start = time.perf_counter()
    futures = [server.submit(feeds) for feeds in requests]
    for future in futures:
        future.result(timeout=600)
    return time.perf_counter() - start


@pytest.mark.parametrize("name", sorted(SHARD_MODELS))
def test_sharded_outputs_bit_identical_and_zero_copy(name):
    """Two replicas over one weight segment: every request bit-identical
    to a serial single-session replay, and neither replica holds a
    private weight copy (incremental weight RSS of a replica ~ 0)."""
    from repro.runtime.sharding import ShardedServer

    graph = TINY_MODELS[name]()
    program = lower_graph(graph)
    base, weights, requests = _shard_traffic(program, 12, seed=31)
    session = InferenceSession(program)
    lead = program.inputs[0]
    want = []
    for request in requests:
        feeds = dict(base)
        feeds[lead] = request[lead.name]
        want.append(session.run(feeds))

    with ShardedServer(graph, weights, replicas=2) as server:
        futures = [server.submit(r) for r in requests]
        got = [f.result(timeout=600) for f in futures]
        metrics = server.metrics()

    for a, b in zip(got, want):
        for x, y in zip(a, b):
            assert np.array_equal(x, y), name
    agg = metrics["aggregate"]
    assert agg["requests_completed"] == len(requests)
    assert agg["weight_bytes_total"] > 0
    for row in metrics["per_replica"]:
        assert row["weight_bytes_mapped"] == agg["weight_bytes_total"]
        assert row["weight_private_bytes"] == 0, (
            f"{name}: replica {row['index']} copied "
            f"{row['weight_private_bytes']} weight bytes"
        )


def test_sharded_replicas_sweep():
    """Aggregate throughput at K=1,2,4 replicas vs the single-process
    batching server; floor >= 2x at K=4 on BERT/MMoE (needs >= 4 cores)."""
    import os

    from repro.runtime.batching import BatchingServer
    from repro.runtime.sharding import ShardedServer

    cores = os.cpu_count() or 1
    rows = [
        f"{'model':10s} {'baseline r/s':>13s} {'K=1 r/s':>9s} "
        f"{'K=2 r/s':>9s} {'K=4 r/s':>9s} {'K=4 vs base':>12s} "
        f"{'shared MB':>10s} {'saved MB (K=4)':>15s}"
    ]
    speedups = {}
    for name in SHARD_MODELS:
        graph = TINY_MODELS[name]()
        program = lower_graph(graph)
        base, weights, requests = _shard_traffic(
            program, SHARD_CALLS, seed=37
        )

        session = InferenceSession(program)
        lead = program.inputs[0]
        feeds0 = dict(base)
        feeds0[lead] = requests[0][lead.name]
        session.run(feeds0)  # warm the plan
        baseline = BatchingServer(session, max_batch_size=8,
                                  max_queue_delay_ms=2.0)
        baseline.start()
        named = []
        for request in requests:
            feeds = dict(base)
            feeds[lead] = request[lead.name]
            named.append(feeds)
        start = time.perf_counter()
        futures = [baseline.submit(feeds) for feeds in named]
        for future in futures:
            future.result(timeout=600)
        base_s = time.perf_counter() - start
        baseline.stop()

        per_k = {}
        shared_mb = 0.0
        for k in (1, 2, 4):
            with ShardedServer(graph, weights, replicas=k,
                               max_queue_delay_ms=2.0) as server:
                _serve_all(server, requests[:4])  # warm worker plans
                per_k[k] = _serve_all(server, requests)
                shared_mb = server.store.total_bytes / 1e6
        speedups[name] = base_s / per_k[4]
        rows.append(
            f"{name:10s} {SHARD_CALLS / base_s:13.1f} "
            f"{SHARD_CALLS / per_k[1]:9.1f} "
            f"{SHARD_CALLS / per_k[2]:9.1f} "
            f"{SHARD_CALLS / per_k[4]:9.1f} "
            f"{speedups[name]:11.2f}x "
            f"{shared_mb:10.2f} {3 * shared_mb:15.2f}"
        )

    rows.append("")
    rows.append(
        f"floor: sharded K={SHARD_FLOOR_REPLICAS} >= "
        f"{SHARD_FLOOR_SPEEDUP:.1f}x the single-process batching server "
        f"on {', '.join(SHARD_MODELS)} ({SHARD_CALLS} requests; "
        f"enforced with >= 4 cores, this machine has {cores})"
    )
    print("\n".join(rows))

    if cores < SHARD_FLOOR_REPLICAS:
        pytest.skip(
            f"{cores} cores: table printed, throughput floor needs >= "
            f"{SHARD_FLOOR_REPLICAS}"
        )
    for name in SHARD_MODELS:
        assert speedups[name] >= SHARD_FLOOR_SPEEDUP, (
            f"{name}: sharded x{SHARD_FLOOR_REPLICAS} only "
            f"{speedups[name]:.2f}x the single-process server "
            f"(floor {SHARD_FLOOR_SPEEDUP}x)"
        )
