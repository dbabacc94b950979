"""Tests for the plan-optimizer pass pipeline (``repro.runtime.plan_opt``).

The contract: an optimized :class:`ExecutionPlan` is *bit-identical* to the
unoptimized plan on every paper model — unbatched and batched — while
fusing single-consumer map chains (Sec. 6.2) and eliding dead inputs in
place (Sec. 6.5), with steps kept in program order and its arena no larger
than the unoptimized plan's. A step that reads only weights stays on the
request path and reads the weights each request is served with.
Every pass, in every combination, must also leave a layout the static
verifier accepts, and a build packs and checks its arena once.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SouffleCompiler
from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS, build_bert_attention_subgraph
from repro.runtime.executor import BatchedExecutionPlan, ExecutionPlan
from repro.runtime.plan_opt import optimize_plan, plan_optimization
from repro.runtime.session import InferenceSession
from repro.te.evaluator import Evaluator
from repro.transform import random_feeds
from repro.verify import verify_plan

from tests.test_verify_property import random_graphs


def request_feeds(program, count, seed):
    return [random_feeds(program, seed=seed + i) for i in range(count)]


# ---- whole-model bit-identity ------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_optimized_matches_unoptimized(self, name):
        program = lower_graph(TINY_MODELS[name]())
        feeds = random_feeds(program, seed=5)
        baseline = ExecutionPlan(program, optimize=False).run(feeds)
        optimized = ExecutionPlan(program, optimize=True).run(feeds)
        assert len(optimized) == len(baseline)
        for got, want in zip(optimized, baseline):
            assert got.shape == want.shape
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_batched_optimized_matches_unoptimized(self, name):
        program = lower_graph(TINY_MODELS[name]())
        requests = request_feeds(program, 8, seed=9)
        baseline = BatchedExecutionPlan(
            program, batch_size=8, optimize=False
        ).run_batch(requests)
        optimized = BatchedExecutionPlan(
            program, batch_size=8, optimize=True
        ).run_batch(requests)
        for lane_base, lane_opt in zip(baseline, optimized):
            for want, got in zip(lane_base, lane_opt):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_replay_is_stable(self, name):
        """Elision makes steps overwrite their inputs; a second replay of
        the same arena must still be exact (no state leaks)."""
        program = lower_graph(TINY_MODELS[name]())
        plan = ExecutionPlan(program, optimize=True)
        feeds_a = random_feeds(program, seed=1)
        feeds_b = random_feeds(program, seed=2)
        want_a = ExecutionPlan(program, optimize=False).run(feeds_a)
        plan.run(feeds_b)  # dirty the arena
        got_a = plan.run(feeds_a)
        for got, want in zip(got_a, want_a):
            assert np.array_equal(got, want), name


# ---- property: every pass subset stays verifier-clean and exact --------------


@st.composite
def pass_flags(draw):
    return {
        "fuse": draw(st.booleans()),
        "elide": draw(st.booleans()),
    }


@settings(max_examples=30, deadline=None)
@given(random_graphs(), pass_flags())
def test_every_pass_subset_is_clean_and_exact(graph, flags):
    program = lower_graph(graph)
    opt = plan_optimization(program, **flags)
    report = verify_plan(
        opt.step_view, opt.memory_plan, inplace=opt.inplace_pairs
    )
    assert not report.errors, report.render()

    feeds = random_feeds(program, seed=13)
    want = ExecutionPlan(program, optimize=False).run(feeds)
    plan = ExecutionPlan(program, optimize=False)
    optimize_plan(plan, opt=plan_optimization(program, **flags))
    got = plan.run(feeds)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# ---- weights: read on every request -----------------------------------------


def scaled_weight_program():
    """``x @ (2·w)``: the scale reads nothing but a weight."""
    b = GraphBuilder("scaled_weight")
    x = b.input((4, 8), name="x")
    w = b.weight((8, 3), name="w")
    return lower_graph(b.build([b.matmul(x, b.scale(w, 2.0))]))


def interpreted(program, feeds):
    evaluator = Evaluator(feeds)
    return [evaluator.value_of(t) for t in program.outputs]


def assert_interpreted(program, feeds, outputs):
    for got, want in zip(outputs, interpreted(program, feeds)):
        assert np.array_equal(got, want)


class TestWeightOnlySteps:
    def test_fresh_weight_array_per_request(self):
        """Each request feeds a new ``w`` array, which CPython may place
        at the address of one freed earlier: every output is computed from
        that request's own bytes."""
        program = scaled_weight_program()
        x_t, w_t = program.inputs
        session = InferenceSession(program)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(x_t.shape)
        for _ in range(50):
            feeds = {x_t: x, w_t: rng.standard_normal(w_t.shape)}
            assert_interpreted(program, feeds, session.run(feeds))

    def test_weight_changed_in_place(self):
        """``w += 1`` on the array already served is read by the next
        request, unbatched and at bucket 4."""
        program = scaled_weight_program()
        x_t, w_t = program.inputs
        session = InferenceSession(program)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(w_t.shape)
        feeds = {x_t: rng.standard_normal(x_t.shape), w_t: w}
        before = session.run(feeds)
        w += 1.0
        after = session.run(feeds)
        assert not np.array_equal(before[0], after[0])
        assert_interpreted(program, feeds, after)

        requests = [
            {x_t: rng.standard_normal(x_t.shape), w_t: w} for _ in range(4)
        ]
        session.run_batch(requests)
        w += 1.0
        lanes = session.run_batch(requests)
        assert session.arena_state.batches_executed == 2
        assert list(session.plan_state._batched_plans) == [4]
        for request, outputs in zip(requests, lanes):
            assert_interpreted(program, request, outputs)


# ---- pass 1: vertical step fusion --------------------------------------------


def map_chain_program():
    b = GraphBuilder("mapchain")
    x = b.input((8, 8), name="x")
    w = b.weight((8, 8), name="w")
    y = b.matmul(x, w)
    return lower_graph(b.build([b.tanh(b.sigmoid(b.relu(y)))]))


class TestFusion:
    def test_single_consumer_map_chain_fuses(self):
        program = map_chain_program()
        opt = plan_optimization(program, elide=False)
        assert opt.stats.fused_steps == 2  # relu->sigmoid, sigmoid->tanh
        names = [g.name for g in opt.groups]
        assert any("+" in name for name in names), names

    def test_fused_interiors_deleted_from_arena(self):
        program = map_chain_program()
        opt = plan_optimization(program, elide=False)
        interiors = {
            id(m.tensor)
            for g in opt.groups
            for m in g.members
            if m is not g.terminal
        }
        assert interiors
        assert not interiors & set(opt.memory_plan.assignments)

    def test_fused_step_names_join_members(self):
        program = map_chain_program()
        plan = ExecutionPlan(program, optimize=True)
        fused = [s for s in plan.steps if s.kind == "fused"]
        assert fused and all("+" in s.name for s in fused)

    def test_multi_consumer_producer_never_fuses(self):
        b = GraphBuilder("fanout")
        x = b.input((4, 4), name="x")
        y = b.relu(x)
        program = lower_graph(b.build([b.add(b.sigmoid(y), b.tanh(y))]))
        opt = plan_optimization(program, elide=False)
        producer = next(
            n for n in program.nodes if n.tensor.name.startswith("relu")
        )
        for g in opt.groups:
            if producer in g.members:
                assert g.terminal is producer


# ---- pass 2: in-place arena elision ------------------------------------------


def elidable_program():
    """``reduce_sum(relu(matmul(x, w)))``: the relu is a map over an
    einsum result that dies right there — an in-place candidate."""
    b = GraphBuilder("elidey")
    x = b.input((8, 8), name="x")
    w = b.weight((8, 8), name="w")
    y = b.relu(b.matmul(x, w))
    return lower_graph(b.build([b.reduce_sum(y, axes=(1,))]))


class TestElision:
    def test_elision_shrinks_workspace(self):
        program = elidable_program()
        with_elide = plan_optimization(program, fuse=False)
        without = plan_optimization(program, fuse=False, elide=False)
        assert with_elide.stats.elided_buffers > 0
        assert with_elide.inplace_pairs
        assert (with_elide.memory_plan.workspace_bytes
                < without.memory_plan.workspace_bytes)

    def test_elided_plan_is_exact(self):
        program = elidable_program()
        feeds = random_feeds(program, seed=2)
        want = ExecutionPlan(program, optimize=False).run(feeds)
        got = ExecutionPlan(program, optimize=True).run(feeds)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_non_shrinking_elisions_are_dropped(self):
        """Whatever the model, an optimization either keeps the plain
        packing or beats it — elision never grows the arena."""
        for name in sorted(TINY_MODELS):
            program = lower_graph(TINY_MODELS[name]())
            merged = plan_optimization(program)
            plain = plan_optimization(program, elide=False)
            if merged.elided:
                assert (merged.memory_plan.workspace_bytes
                        < plain.memory_plan.workspace_bytes), name
            else:
                assert (merged.memory_plan.workspace_bytes
                        == plain.memory_plan.workspace_bytes), name


# ---- served plans ------------------------------------------------------------


# The plans served at default options — those of the compiled programs,
# which ``InferenceSession`` and ``BatchingServer`` serve: step count, step
# kinds, unbatched workspace bytes and (fused steps, tiled chains). Every
# sum of products is an ``einsum``-kind step running its
# ``match_contraction`` lowering. Replay stays bit-identical under many
# plan changes, so these pin the fusion, elision and tiling decisions
# themselves. The compiler has already fused what step fusion would.
SERVED_TINY_PLANS = {
    "bert": (58, {"einsum": 20, "map": 30, "reduce": 8}, 8192, (0, 0)),
    "efficientnet": (31, {"einsum": 11, "map": 17, "reduce": 3},
                     41984, (0, 0)),
    "lstm": (31, {"einsum": 9, "map": 22}, 2816, (0, 0)),
    "mmoe": (18, {"einsum": 3, "map": 10, "reduce": 5}, 1280, (0, 0)),
    "resnext": (23, {"einsum": 9, "map": 12, "reduce": 2}, 83968, (0, 0)),
    "swin": (63, {"einsum": 20, "map": 32, "reduce": 11}, 58368, (0, 0)),
}
# ``ShardedServer`` still serves the lowered program (ROADMAP item 1).
SHARDED_TINY_BERT_PLAN = (
    76, {"einsum": 20, "fused": 6, "map": 42, "reduce": 8}, 8192, (6, 0),
)


def assert_served_plan(plan, steps, kinds, workspace, counts):
    stats = plan.optimization.stats
    assert plan.num_steps == steps
    assert dict(Counter(step.kind for step in plan.steps)) == kinds
    assert plan.workspace_bytes == workspace
    assert (stats.fused_steps, stats.tiled_chains) == counts


@pytest.fixture(scope="module")
def attention():
    """The paper-width attention block, compiled as served."""
    return SouffleCompiler().compile(build_bert_attention_subgraph())


def compiled_tiny(name):
    return SouffleCompiler().compile(TINY_MODELS[name]())


class TestWaves:
    """The served plans replay in program order, with no parallel levels
    counted, and their layouts are pinned."""

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_tiny_models_have_no_parallel_levels(self, name):
        plan = compiled_tiny(name).session.plan
        assert plan.optimization.stats.parallel_waves == 0
        assert_served_plan(plan, *SERVED_TINY_PLANS[name])

    @pytest.mark.parametrize("bucket", [2, 4, 8])
    def test_tiny_bert_buckets_have_no_parallel_levels(self, bucket):
        plan = compiled_tiny("bert").session.batch_plan(bucket)
        assert plan.optimization.stats.parallel_waves == 0
        steps, kinds, workspace, counts = SERVED_TINY_PLANS["bert"]
        assert_served_plan(plan, steps, kinds, bucket * workspace, counts)

    def test_sharded_tiny_bert_plan(self):
        plan = InferenceSession(lower_graph(TINY_MODELS["bert"]())).plan
        assert_served_plan(plan, *SHARDED_TINY_BERT_PLAN)

    def test_attention_block_replays_exactly(self, attention):
        """The paper-width attention block as served: the flat replay in
        program order stays bit-identical to the interpreter."""
        module = attention
        plan = module.session.plan
        assert plan.num_steps == 17
        assert plan.workspace_bytes == 3_145_728
        assert plan.optimization.stats.parallel_waves == 0
        feeds = random_feeds(module.program, seed=1)
        want = module.run_interpreted(feeds)
        for g, w in zip(module.session.run(feeds), want):
            assert np.array_equal(g, w)

    def test_attention_block_tiling_decisions(self, attention):
        """The footprint model alone decides tiling; on the served
        attention block it tiles the softmax chain at every bucket.
        Bucket -> (steps, workspace bytes, tiled chains, tiled blocks)."""
        session = attention.session
        plans = {1: session.plan}
        plans.update({b: session.batch_plan(b) for b in (2, 4, 8)})
        got = {
            bucket: (
                plan.num_steps, plan.workspace_bytes,
                plan.optimization.stats.tiled_chains,
                plan.optimization.stats.tiled_blocks,
            )
            for bucket, plan in plans.items()
        }
        assert got == {
            1: (17, 3_145_728, 1, 2),
            2: (19, 2 * 3_145_728, 1, 4),
            4: (25, 4 * 3_145_728, 2, 14),
            8: (27, 8 * 3_145_728, 2, 16),
        }


ARENA_PROGRAMS = (
    [f"compiled-{name}" for name in sorted(TINY_MODELS)]
    + ["attention"]
    + [f"lowered-{name}" for name in sorted(TINY_MODELS)]
)


@pytest.mark.parametrize("label", ARENA_PROGRAMS)
def test_optimized_arena_is_no_larger_than_the_reference(label, attention):
    """In program order, fusion drops tensors from the reference plan's
    packing problem and elision merges them only when that shrinks the
    arena; the served arena is no larger than the unoptimized plan's,
    unbatched or at any bucket."""
    kind, _, name = label.partition("-")
    if kind == "attention":
        program = attention.program
    elif kind == "compiled":
        program = compiled_tiny(name).program
    else:
        program = lower_graph(TINY_MODELS[name]())
    plans = {1: (ExecutionPlan(program, optimize=True),
                 ExecutionPlan(program))}
    for bucket in (2, 4, 8):
        plans[bucket] = (
            BatchedExecutionPlan(program, bucket, optimize=True),
            BatchedExecutionPlan(program, bucket),
        )
    for bucket, (optimized, reference) in plans.items():
        assert optimized.workspace_bytes <= reference.workspace_bytes, (
            bucket, optimized.workspace_bytes, reference.workspace_bytes
        )


# ---- stats and reporting -----------------------------------------------------


class TestStats:
    def test_stats_accounting(self):
        program = lower_graph(TINY_MODELS["bert"]())
        plan = ExecutionPlan(program, optimize=True)
        stats = plan.optimization.stats
        assert stats.steps_before == len(program.nodes)
        assert stats.steps_after == len(plan.steps)
        assert stats.steps_after == stats.steps_before - stats.fused_steps
        assert stats.workspace_after == plan.memory_plan.workspace_bytes
        assert "->" in stats.summary()
        baseline = ExecutionPlan(program).workspace_bytes
        assert (f"arena workspace:   {baseline} -> {stats.workspace_after}"
                in stats.render(baseline))

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_one_build_packs_once_and_checks_once(self, name, monkeypatch):
        """A served build packs only its own layout (twice at most, when
        elision competes with the plain packing) and checks it once; the
        reference plan packs and checks once."""
        import sys

        from repro.runtime import memory_planner
        from repro.verify import hazards

        calls = Counter()

        def counting(fn_name, original):
            def counted(*args, **kwargs):
                calls[fn_name] += 1
                return original(*args, **kwargs)
            return counted

        for owner, fn_name in [(memory_planner, "plan_memory"),
                               (memory_planner, "pack_intervals"),
                               (hazards, "check_arena")]:
            original = getattr(owner, fn_name)
            counted = counting(fn_name, original)
            for module in list(sys.modules.values()):
                if getattr(module, fn_name, None) is original:
                    monkeypatch.setattr(module, fn_name, counted)
        program = compiled_tiny(name).program
        for build in (lambda: ExecutionPlan(program, optimize=True),
                      lambda: BatchedExecutionPlan(program, 4,
                                                   optimize=True)):
            calls.clear()
            build()
            assert calls["plan_memory"] == 0
            assert calls["check_arena"] == 1
            assert 1 <= calls["pack_intervals"] <= 2
        calls.clear()
        ExecutionPlan(program)
        assert calls == {"plan_memory": 1, "pack_intervals": 1,
                         "check_arena": 1}

    def test_repr_tags_optimized_plans(self):
        program = map_chain_program()
        assert "optimized" in repr(ExecutionPlan(program, optimize=True))
        assert "optimized" not in repr(ExecutionPlan(program, optimize=False))
