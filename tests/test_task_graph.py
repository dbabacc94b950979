"""Tests for the task-graph executor (runtime.task_graph).

The contract under test: the plan-compiled dependency table orders every
hazardous step pair (certified by the extended arena-hazard pass), and the
graph executor is *bit-identical* to serial replay on every paper model —
unbatched and batched, optimizer on and off, under every scheduler policy
(threaded, FIFO, adversarial LIFO, and caller-scripted topological orders).
Serial replay (``ExecutionPlan.execute_serial``) is the differential
oracle throughout. Any plan's graph is reached by injecting a scheduler
(``execute(..., scheduler=)``), which builds it on first use; the replay
rule (``plan_opt.apply_replay_rule``) decides which plans replay through
it by default.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS, build_bert_attention_subgraph
from repro.runtime import plan_opt
from repro.runtime.executor import BatchedExecutionPlan, ExecutionPlan
from repro.runtime.plan_opt import plan_optimization
from repro.runtime.session import InferenceSession
from repro.runtime.task_graph import (
    AdversarialScheduler,
    FifoScheduler,
    ScriptedScheduler,
    TAG_COMPUTE,
    TAG_MEMORY,
    ThreadedScheduler,
    build_task_graph,
    optimization_task_graph,
    random_topological_order,
)
from repro.transform import random_feeds


def mlp_program():
    b = GraphBuilder("mlp")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    return lower_graph(
        b.build([b.softmax(b.matmul(b.relu(b.matmul(x, w1)), w2), axis=-1)])
    )


def branchy_program(width=4):
    b = GraphBuilder("branchy")
    x = b.input((8, 8), name="x")
    branches = [b.relu(x) for _ in range(width)]
    out = branches[0]
    for other in branches[1:]:
        out = b.add(out, other)
    return lower_graph(b.build([out]))


def force_parallel_rule(monkeypatch, workers=2):
    """Make the replay rule pick the task graph for every plan with a
    dependency level of two or more steps, whatever the machine."""
    monkeypatch.setattr(plan_opt, "PARALLEL_MIN_WAVE_ELEMENTS", 0)
    monkeypatch.setattr(plan_opt, "default_worker_count", lambda: workers)


def assert_outputs_equal(got, want, context=""):
    assert len(got) == len(want), context
    for g, w in zip(got, want):
        assert g.shape == w.shape, context
        assert np.array_equal(g, w), context


# ---- construction ------------------------------------------------------------


class TestConstruction:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_table_is_consistent(self, optimize):
        plan = ExecutionPlan(mlp_program(), optimize=optimize)
        graph = plan.task_graph
        n = len(graph)
        assert n == len(plan.steps)
        # Every edge points forward; predecessor counts match edges.
        preds = [0] * n
        for i, succ in enumerate(graph.successors):
            for j in succ:
                assert i < j
                preds[j] += 1
        assert preds == graph.pred_template
        assert graph.roots == tuple(
            i for i, p in enumerate(preds) if p == 0
        )
        assert all(not graph.successors[s] for s in graph.sinks)
        stats = graph.stats
        assert stats.tasks == n
        assert stats.roots == len(graph.roots)
        assert stats.sinks == len(graph.sinks)
        assert 1 <= stats.critical_path <= n
        assert 1 <= stats.max_ready_width <= n
        assert stats.compute_tasks + stats.memory_tasks == n

    def test_tasks_carry_characterization_tags(self):
        plan = ExecutionPlan(mlp_program())
        tags = {t.tag for t in plan.task_graph.tasks}
        assert tags <= {TAG_COMPUTE, TAG_MEMORY}

    def test_independent_branches_are_unordered(self):
        """Parallel branches must not be serialized by spurious edges."""
        plan = ExecutionPlan(branchy_program(), optimize=False)
        assert plan.task_graph.stats.max_ready_width > 1

    def test_dependency_table_passes_hazard_cover(self):
        from repro.verify import Severity

        plan = ExecutionPlan(lower_graph(TINY_MODELS["lstm"]()),
                             optimize=True)
        diags = plan.task_graph.verify_cover()
        assert not [d for d in diags if d.severity is Severity.ERROR]

    def test_scheduler_injection_builds_graph_lazily(self):
        """A serial plan builds its graph on the first injected scheduler
        and stays bit-identical; the replay rule's pick does not change."""
        plan = ExecutionPlan(mlp_program(), optimize=True)
        assert not plan.parallel and plan._graph_executor is None
        bound = plan.bind_feeds(random_feeds(plan.program, seed=0))
        want = plan.execute_serial(bound, plan.new_arena())
        got = plan.execute(bound, plan.new_arena(),
                           scheduler=AdversarialScheduler())
        assert plan._graph_executor is not None
        assert plan.graph_executor.requests == 1
        assert not plan.parallel
        assert_outputs_equal(got, want)

    def test_wave_plans_build_no_graph(self):
        """A plan the replay rule keeps serial never builds a graph."""
        plan = ExecutionPlan(mlp_program(), optimize=True)
        assert not plan.parallel
        assert plan._graph_executor is None

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_static_stats_match_real_plan(self, name):
        """The structure-only builder (plan-stats paper path) agrees with
        the graph compiled into a real plan."""
        program = lower_graph(TINY_MODELS[name]())
        plan = ExecutionPlan(program, optimize=True)
        static = optimization_task_graph(plan_optimization(program)).stats
        assert static == plan.task_graph.stats


# ---- bit-identity on the six paper models ------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    @pytest.mark.parametrize("optimize", [False, True])
    def test_unbatched_matches_serial_oracle(self, name, optimize):
        program = lower_graph(TINY_MODELS[name]())
        plan = ExecutionPlan(program, optimize=optimize)
        feeds = random_feeds(program, seed=11)
        bound = plan.bind_feeds(feeds)
        want = plan.execute_serial(bound, plan.new_arena())
        context = f"{name} optimize={optimize}"
        got = plan.execute(bound, plan.new_arena())
        assert_outputs_equal(got, want, context)
        for scheduler in (
            FifoScheduler(),
            AdversarialScheduler(),
            ThreadedScheduler(max_workers=4),
            ScriptedScheduler(random_topological_order(
                plan.task_graph, np.random.default_rng(5)
            )),
        ):
            got = plan.execute(bound, plan.new_arena(), scheduler=scheduler)
            assert_outputs_equal(got, want, f"{context} {scheduler}")

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    @pytest.mark.parametrize("optimize", [False, True])
    def test_batched_matches_serial_oracle(self, name, optimize):
        program = lower_graph(TINY_MODELS[name]())
        plan = BatchedExecutionPlan(program, 3, optimize=optimize)
        feeds_list = [random_feeds(program, seed=s) for s in (1, 2, 3)]
        bound = plan.bind_batch(feeds_list)
        want = plan.execute_serial(bound, plan.new_arena())
        context = f"{name} optimize={optimize} batched"
        got = plan.execute(bound, plan.new_arena(),
                           scheduler=ThreadedScheduler(max_workers=4))
        assert_outputs_equal(got, want, context)
        got = plan.execute(bound, plan.new_arena(),
                           scheduler=AdversarialScheduler())
        assert_outputs_equal(got, want, context + " adversarial")

    def test_threaded_replay_is_stable_across_requests(self):
        """Repeated multi-worker replays through one plan never drift."""
        program = lower_graph(TINY_MODELS["lstm"]())
        plan = ExecutionPlan(program, optimize=True)
        feeds = random_feeds(program, seed=3)
        bound = plan.bind_feeds(feeds)
        want = plan.execute_serial(bound, plan.new_arena())
        scheduler = ThreadedScheduler(max_workers=4)
        for rep in range(8):
            got = plan.execute(bound, plan.new_arena(), scheduler=scheduler)
            assert_outputs_equal(got, want, f"rep {rep}")


# ---- scheduler policies ------------------------------------------------------


class TestSchedulers:
    def test_scripted_rejects_illegal_order(self):
        plan = ExecutionPlan(mlp_program())
        n = len(plan.task_graph)
        assert n > 1
        bad = list(reversed(range(n)))  # runs the sink first
        feeds = random_feeds(plan.program, seed=0)
        with pytest.raises(ExecutionError, match="topological"):
            plan.execute(plan.bind_feeds(feeds), plan.new_arena(),
                         scheduler=ScriptedScheduler(bad))

    def test_scripted_rejects_short_script(self):
        plan = ExecutionPlan(mlp_program())
        order = random_topological_order(
            plan.task_graph, np.random.default_rng(0)
        )
        feeds = random_feeds(plan.program, seed=0)
        with pytest.raises(ExecutionError, match="exhausted"):
            plan.execute(plan.bind_feeds(feeds), plan.new_arena(),
                         scheduler=ScriptedScheduler(order[:-1]))

    def test_scripted_scheduler_is_reusable(self):
        """reset() makes one scripted policy valid across requests."""
        plan = ExecutionPlan(mlp_program())
        order = random_topological_order(
            plan.task_graph, np.random.default_rng(1)
        )
        scheduler = ScriptedScheduler(order)
        feeds = random_feeds(plan.program, seed=2)
        bound = plan.bind_feeds(feeds)
        first = plan.execute(bound, plan.new_arena(), scheduler=scheduler)
        second = plan.execute(bound, plan.new_arena(), scheduler=scheduler)
        assert_outputs_equal(second, first)

    def test_adversarial_order_differs_from_fifo(self):
        """The LIFO adversary actually reorders independent work."""
        plan = ExecutionPlan(branchy_program(), optimize=False)
        graph = plan.task_graph

        def trace(policy):
            order = []
            counters = list(graph.pred_template)
            ready = list(graph.roots)
            while ready:
                pos = policy.select(ready)
                order.append(pos)
                for s in graph.successors[pos]:
                    counters[s] -= 1
                    if counters[s] == 0:
                        ready.append(s)
            return order

        assert trace(AdversarialScheduler()) != trace(FifoScheduler())

    def test_threaded_worker_bounds(self):
        plan = ExecutionPlan(mlp_program())
        graph = plan.task_graph
        width = graph.stats.max_ready_width
        assert ThreadedScheduler(max_workers=64).resolve_workers(graph) \
            == min(64, width)
        with pytest.raises(ExecutionError):
            ThreadedScheduler(max_workers=0)

    def test_random_topological_order_is_legal(self):
        plan = ExecutionPlan(lower_graph(TINY_MODELS["mmoe"]()),
                             optimize=True)
        graph = plan.task_graph
        seen = set()
        for seed in range(5):
            order = random_topological_order(
                graph, np.random.default_rng(seed)
            )
            assert sorted(order) == list(range(len(graph)))
            done = set()
            for pos in order:
                for i, succ in enumerate(graph.successors):
                    if pos in succ:
                        assert i in done, "predecessor not yet executed"
                done.add(pos)
            seen.add(tuple(order))
        assert len(seen) > 1, "rng never varied the order"


# ---- session / profiler integration ------------------------------------------


class TestSessionIntegration:
    def test_graph_session_matches_wave_session(self, monkeypatch):
        """A session whose plans the rule sends to the task graph serves
        exactly what a serial session serves, batched or not."""
        program = lower_graph(TINY_MODELS["mmoe"]())
        serial = InferenceSession(program)
        feeds = random_feeds(program, seed=9)
        requests = [random_feeds(program, seed=s) for s in range(5)]
        want_single = serial.run(feeds)
        want_batch = serial.run_batch(requests)
        assert not serial.plan.parallel
        force_parallel_rule(monkeypatch)
        graph = InferenceSession(program)
        assert graph.plan.parallel
        assert_outputs_equal(graph.run(feeds), want_single)
        for got, want in zip(graph.run_batch(requests), want_batch):
            assert_outputs_equal(got, want)
        # Batched bucket plans follow the same rule.
        assert graph.batch_plan(4).parallel

    def test_profile_report_has_scheduler_stats(self, monkeypatch):
        force_parallel_rule(monkeypatch)
        program = lower_graph(TINY_MODELS["lstm"]())
        session = InferenceSession(program, profile=True)
        assert session.plan.parallel
        feeds = random_feeds(program, seed=4)
        for _ in range(2):
            session.run(feeds)
        profile = session.profile_report()
        assert profile.scheduler is not None
        stats = session.plan.task_graph.stats
        assert profile.scheduler.tasks == stats.tasks
        assert profile.scheduler.critical_path == stats.critical_path
        assert profile.scheduler.max_ready_width == stats.max_ready_width
        assert 0.0 < profile.scheduler.occupancy <= 1.0
        assert "scheduler:" in profile.render()
        # Per-task queue wait reaches the step table.
        assert any(s.queue_seconds > 0.0 for s in profile.steps)

    def test_wave_profile_has_no_scheduler_stats(self):
        program = mlp_program()
        session = InferenceSession(program, profile=True)
        session.run(random_feeds(program, seed=0))
        assert session.profile_report().scheduler is None



# ---- the replay rule ---------------------------------------------------------


class TestReplayRule:
    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_tiny_models_pick_serial_without_a_graph(self, name):
        program = lower_graph(TINY_MODELS[name]())
        plan = ExecutionPlan(program, optimize=True)
        assert not plan.parallel
        assert plan.optimization.stats.replay == "serial"
        assert plan.optimization.stats.parallel_waves == 0
        assert plan._graph_executor is None

    @pytest.mark.parametrize("bucket", [2, 4, 8])
    def test_tiny_bert_buckets_pick_serial_without_a_graph(self, bucket):
        session = InferenceSession(lower_graph(TINY_MODELS["bert"]()))
        plan = session.batch_plan(bucket)
        assert not plan.parallel
        assert plan.optimization.stats.parallel_waves == 0
        assert plan._graph_executor is None

    def test_attention_block_picks_parallel(self, monkeypatch):
        """The paper-width attention block is the one served plan with
        parallel work: three eligible levels, replayed through the task
        graph, bit-identical to the serial oracle."""
        from repro import SouffleCompiler

        monkeypatch.setattr(plan_opt, "default_worker_count", lambda: 2)
        module = SouffleCompiler().compile(build_bert_attention_subgraph())
        plan = module.session.plan
        assert plan.parallel
        assert plan.optimization.stats.replay == "graph"
        assert plan.optimization.stats.parallel_waves == 3
        assert plan._graph_executor is not None
        bound = plan.bind_feeds(random_feeds(module.program, seed=1))
        want = plan.execute_serial(bound, plan.new_arena())
        assert_outputs_equal(plan.execute(bound, plan.new_arena()), want)
        assert plan.graph_executor.requests == 1

    def test_one_worker_picks_serial_everywhere(self, monkeypatch):
        force_parallel_rule(monkeypatch, workers=1)
        programs = [lower_graph(build_bert_attention_subgraph())] + [
            lower_graph(TINY_MODELS[name]()) for name in sorted(TINY_MODELS)
        ]
        for program in programs:
            plan = ExecutionPlan(program, optimize=True)
            assert not plan.parallel, program.name
            assert plan.optimization.stats.parallel_waves == 0
            assert plan._graph_executor is None, program.name

    def test_big_steps_on_separate_levels_build_no_graph(self, monkeypatch):
        """Big steps that share no data level never make a plan build its
        graph: the rule decides serial from the data levels alone."""
        force_parallel_rule(monkeypatch)
        plan = ExecutionPlan(mlp_program(), optimize=True)
        levels = plan.optimization.levels
        assert len(levels) >= 2 and len(set(levels)) == len(levels)
        assert not plan.parallel and plan._graph_executor is None

    def test_unoptimized_plans_replay_serially(self, monkeypatch):
        force_parallel_rule(monkeypatch)
        plan = ExecutionPlan(branchy_program(), optimize=False)
        assert not plan.parallel and plan._graph_executor is None
