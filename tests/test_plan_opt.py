"""Tests for the plan-optimizer pass pipeline (``repro.runtime.plan_opt``).

The contract: an optimized :class:`ExecutionPlan` is *bit-identical* to the
unoptimized plan on every paper model — unbatched and batched — while
fusing single-consumer map chains (Sec. 6.2), eliding dead inputs in place
(Sec. 6.5) and emitting steps in dependency-level order, so steps sharing
a level hold disjoint arena bytes (Sec. 6.1). A step that reads only
weights stays on the request path and reads the weights each request is
served with.
Every pass, in every combination, must also leave a layout the static
verifier accepts.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert session.batches_executed == 2
        assert list(session._batched_plans) == [4]
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


# ---- pass 3: level ordering ------------------------------


def branchy_program():
    b = GraphBuilder("branchy")
    x = b.input((16, 16), name="x")
    branches = [b.relu(x), b.sigmoid(x), b.tanh(x), b.exp(x)]
    out = branches[0]
    for other in branches[1:]:
        out = b.add(out, other)
    return lower_graph(b.build([out]))


def assert_levels_hold_disjoint_bytes(plan):
    """Steps sharing a dependency level hold disjoint arena bytes: their
    outputs never overlap, and no step writes bytes that a sibling
    emitted after it still reads. (Bytes an earlier sibling read for the
    last time may be reused.)"""
    opt = plan.optimization
    assignments = plan.memory_plan.assignments

    def span(tensor):
        a = assignments.get(tensor)
        return None if a is None else (a.offset, a.offset + a.nbytes)

    def overlap(x, y):
        return x is not None and y is not None and x[0] < y[1] and y[0] < x[1]

    by_level = {}
    for group, level in zip(opt.groups, opt.levels):
        by_level.setdefault(level, []).append(group)
    for level, groups in by_level.items():
        for i, a in enumerate(groups):
            out = span(a.terminal.tensor)
            for b in groups[i + 1:]:
                if b.terminal.tensor is a.terminal.tensor:
                    continue  # blocks of one tiled chain share a tensor
                touched = [b.terminal.tensor] + list(b.reads)
                assert not any(overlap(out, span(t)) for t in touched), (
                    f"level {level}: {a.name} writes bytes {b.name} uses"
                )


# The plans served at default options: step count, step kinds, unbatched
# workspace bytes and (fused steps, specialised contractions, tiled chains).
# Replay stays bit-identical under many plan changes, so these pin the
# fusion, elision and tiling decisions themselves.
SERVED_TINY_PLANS = {
    "bert": (76, {"fused": 6, "map": 42, "matmul": 20, "reduce": 8},
             9216, (6, 20, 0)),
    "efficientnet": (34, {"fused": 6, "map": 14, "matmul": 5, "reduce": 9},
                     41984, (11, 5, 0)),
    "lstm": (38, {"fused": 22, "matmul": 16}, 2048, (98, 16, 0)),
    "mmoe": (27, {"fused": 5, "map": 7, "matmul": 11, "reduce": 4},
             1792, (5, 11, 0)),
    "resnext": (24, {"fused": 7, "map": 5, "matmul": 1, "reduce": 11},
                83968, (20, 1, 0)),
    "swin": (111, {"fused": 6, "map": 74, "matmul": 20, "reduce": 11},
             49152, (6, 20, 0)),
}


def assert_served_plan(plan, steps, kinds, workspace, counts):
    stats = plan.optimization.stats
    assert plan.num_steps == steps
    assert dict(Counter(step.kind for step in plan.steps)) == kinds
    assert plan.workspace_bytes == workspace
    assert (
        stats.fused_steps, stats.specialized_contractions, stats.tiled_chains
    ) == counts


class TestWaves:
    def test_independent_steps_share_a_wave(self):
        """Independent steps share a dependency level, emitted as one
        contiguous run of positions, and hold disjoint arena bytes."""
        program = branchy_program()
        plan = ExecutionPlan(program, optimize=False)
        optimize_plan(plan, opt=plan_optimization(
            program, fuse=False, elide=False
        ))
        levels = plan.optimization.levels
        assert levels == sorted(levels)
        assert max(levels.count(lv) for lv in set(levels)) > 1
        assert_levels_hold_disjoint_bytes(plan)
        for name in sorted(TINY_MODELS):
            assert_levels_hold_disjoint_bytes(
                ExecutionPlan(lower_graph(TINY_MODELS[name]()), optimize=True)
            )

    def test_small_waves_stay_serial(self):
        program = branchy_program()
        plan = ExecutionPlan(program, optimize=True)
        assert plan.optimization.stats.parallel_waves == 0

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_tiny_models_have_no_parallel_levels(self, name):
        plan = InferenceSession(lower_graph(TINY_MODELS[name]())).plan
        assert plan.optimization.stats.parallel_waves == 0
        assert_served_plan(plan, *SERVED_TINY_PLANS[name])

    @pytest.mark.parametrize("bucket", [2, 4, 8])
    def test_tiny_bert_buckets_have_no_parallel_levels(self, bucket):
        session = InferenceSession(lower_graph(TINY_MODELS["bert"]()))
        plan = session.batch_plan(bucket)
        assert plan.optimization.stats.parallel_waves == 0
        steps, kinds, workspace, counts = SERVED_TINY_PLANS["bert"]
        assert_served_plan(plan, steps, kinds, bucket * workspace, counts)

    def test_attention_block_has_three_parallel_levels(self):
        """The paper-width attention block as served: three levels hold
        two or more big steps, whatever the host's core count, and the
        flat replay stays bit-identical to the interpreter."""
        from repro import SouffleCompiler

        module = SouffleCompiler().compile(build_bert_attention_subgraph())
        plan = module.session.plan
        assert plan.num_steps == 17
        assert plan.workspace_bytes == 3_932_160
        assert plan.optimization.stats.parallel_waves == 3
        assert_levels_hold_disjoint_bytes(plan)
        feeds = random_feeds(module.program, seed=1)
        want = module.run_interpreted(feeds)
        for g, w in zip(module.session.run(feeds), want):
            assert np.array_equal(g, w)


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
        assert "arena workspace" in stats.render()

    def test_repr_tags_optimized_plans(self):
        program = map_chain_program()
        assert "optimized" in repr(ExecutionPlan(program, optimize=True))
        assert "optimized" not in repr(ExecutionPlan(program, optimize=False))
