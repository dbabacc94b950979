"""Deployment-oriented features: dynamic shapes, serving and memory planning.

Demonstrates the two Sec. 9 discussion items this reproduction implements,
plus the plan-based serving path built on top of them:

* multi-version kernels with runtime shape dispatch ("generate multiple
  versions of a kernel and choose the appropriate one based on shape
  information available at execution time");
* workspace planning from the global liveness analysis (intermediates with
  disjoint live ranges share buffers);
* an `InferenceSession` that lowers the TE program once into a flat
  execution plan and replays it per request against a preallocated arena.

Run:  python examples/deployment.py
"""

import time

import numpy as np

from repro.graph import GraphBuilder, lower_graph
from repro.models import build_bert, build_bert_tiny
from repro.runtime import (
    ExecutionPlan,
    InferenceSession,
    ShapeDispatcher,
    plan_memory,
)


def sequence_classifier(seq_len: int):
    """A tiny row-wise classifier parameterised by sequence length."""
    b = GraphBuilder(f"classifier_{seq_len}")
    x = b.input((seq_len, 64), name="tokens")
    w1 = b.weight((64, 128), name="w1")
    w2 = b.weight((128, 16), name="w2")
    hidden = b.relu(b.matmul(x, w1))
    return b.build([b.softmax(b.matmul(hidden, w2), axis=-1)])


def main() -> None:
    # ---- dynamic shapes ----------------------------------------------------
    dispatcher = ShapeDispatcher(
        sequence_classifier,
        buckets=[32, 64, 128],
        dynamic_inputs=["tokens"],
        level=4,
    )
    rng = np.random.default_rng(0)
    weights = {
        "w1": rng.standard_normal((64, 128)) * 0.1,
        "w2": rng.standard_normal((128, 16)) * 0.1,
    }
    print("dynamic-shape dispatch:")
    for seq_len in (20, 64, 100):
        feeds = dict(weights, tokens=rng.standard_normal((seq_len, 64)))
        (probabilities,) = dispatcher.run(feeds)
        record = dispatcher.history[-1]
        print(
            f"  request seq={record.requested:4d} -> bucket {record.bucket:4d} "
            f"(padded={record.padded}); output {probabilities.shape}, "
            f"rows sum to {probabilities.sum(axis=-1).mean():.3f}"
        )
    print(f"  compiled buckets: {dispatcher.compiled_buckets}")
    bucket_session = dispatcher.module_for(64).session
    state = bucket_session.arena_state
    print(
        f"  bucket-64 session: {state.request_count} requests "
        f"through one plan, {bucket_session.plan.workspace_bytes} arena bytes "
        f"x{state.arenas_allocated}"
    )

    # ---- serving with an explicit session ------------------------------------
    print("\nplan-based serving (tiny BERT, 200 requests):")
    program = lower_graph(build_bert_tiny())
    session = InferenceSession(program, profile=True)
    feeds = {
        t.name: rng.standard_normal(t.shape) * 0.1 for t in program.inputs
    }
    start = time.perf_counter()
    for _ in range(200):
        session.run_by_name(feeds)
    wall = time.perf_counter() - start
    print(
        f"  {session.arena_state.request_count} requests in {wall:.3f}s "
        f"({session.requests_per_second:.0f} req/s), workspace "
        f"{session.plan.workspace_bytes / 1e3:.1f} kB allocated "
        f"{session.arena_state.arenas_allocated}x"
    )
    print(f"  {session.plan.optimization.stats.summary()}")

    # Sessions serve the optimized plan; `plan=ExecutionPlan(program)` serves
    # the plain one-step-per-TE plan (the baseline the optimizer is measured
    # against).
    plain = InferenceSession(program, plan=ExecutionPlan(program))
    plain.run_by_name(feeds)
    start = time.perf_counter()
    for _ in range(200):
        plain.run_by_name(feeds)
    print(
        f"  unoptimized baseline: {200 / (time.perf_counter() - start):.0f} "
        f"req/s over {plain.plan.num_steps} steps"
    )
    print("\n  slowest plan steps:")
    for line in session.profile_report().render(top=5).splitlines()[1:]:
        print("  " + line)

    # ---- dynamic micro-batching ----------------------------------------------
    print("\ndynamic micro-batching (tiny BERT, 8 client threads):")
    import threading

    lead = program.inputs[0]
    base = dict(feeds)

    def request_feeds():
        varied = dict(base)
        varied[lead.name] = rng.standard_normal(lead.shape) * 0.1
        return varied

    batch_session = InferenceSession(program)
    with batch_session.serve(max_batch_size=8, max_queue_delay_ms=2.0) as server:

        def client():
            for _ in range(16):
                server.run(request_feeds(), timeout=60)

        threads = [threading.Thread(target=client) for _ in range(8)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
    print(
        f"  {server.requests_completed} requests in {wall:.3f}s "
        f"({server.requests_completed / wall:.0f} req/s), "
        f"mean batch {server.mean_batch_size:.1f}"
    )
    for line in server.profile_report().render().splitlines()[:2]:
        print("  " + line)

    # ---- memory planning -----------------------------------------------------
    print("\nworkspace planning for BERT-base (2 layers shown):")
    program = lower_graph(build_bert(layers=2))
    plan = plan_memory(program)
    print(plan.render(top=8))


if __name__ == "__main__":
    main()
