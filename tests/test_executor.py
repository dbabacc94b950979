"""Tests for the plan-based execution engine (executor + session).

The contract under test: plan replay is *bit-identical* to the interpretive
``Evaluator`` oracle on every paper model, intermediates live in the
preallocated ``MemoryPlan`` arena (no per-request allocation), and unsafe
arena layouts are rejected loudly at plan-construction time.
"""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ExecutionError, PlanningError
from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime.executor import EXEC_ITEMSIZE, Arena, ExecutionPlan
from repro.runtime.memory_planner import BufferAssignment, MemoryPlan, plan_memory
from repro.graph.te_program import TENode, TEProgram
from repro.runtime.plan_opt import step_kind
from repro.runtime.session import InferenceSession
from repro.te import compute, placeholder
from repro.te.evaluator import Evaluator
from repro.te.expr import BinOp, Call, Cmp, call
from repro.te.patterns import lower_views, match_contraction
from repro.transform import random_feeds


def chain_program(length=4, size=(8, 8)):
    b = GraphBuilder("chain")
    x = b.input(size, name="x")
    for _ in range(length):
        x = b.relu(x)
    return lower_graph(b.build([x]))


def mlp_program():
    b = GraphBuilder("mlp")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    return lower_graph(
        b.build([b.softmax(b.matmul(b.relu(b.matmul(x, w1)), w2), axis=-1)])
    )


def oracle(program, feeds):
    ev = Evaluator(feeds)
    return [ev.value_of(t) for t in program.outputs]


class TestDifferential:
    """Plan outputs must exactly match the Evaluator on all six models."""

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_bit_identical_to_evaluator(self, name):
        program = lower_graph(TINY_MODELS[name]())
        feeds = random_feeds(program, seed=3)
        reference = oracle(program, feeds)
        outputs = ExecutionPlan(program).run(feeds)
        assert len(outputs) == len(reference)
        for got, want in zip(outputs, reference):
            assert got.shape == want.shape
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_replay_is_stable(self, name):
        """Repeated replay through one session never drifts (arena reuse
        must not leak state between requests)."""
        program = lower_graph(TINY_MODELS[name]())
        session = InferenceSession(program)
        feeds_a = random_feeds(program, seed=1)
        feeds_b = random_feeds(program, seed=2)
        first_a = session.run(feeds_a)
        session.run(feeds_b)  # dirty the arena with different data
        second_a = session.run(feeds_a)
        for got, want in zip(second_a, first_a):
            assert np.array_equal(got, want)

    def test_mixed_expression_forms(self):
        """Select/compare/intrinsic/index-arithmetic bodies round-trip."""
        from repro.te import call, if_then_else

        a = placeholder((6, 5), name="a")
        flipped = compute(
            (6, 5), lambda i, j: a[5 - i, j], name="flip"
        )
        gated = compute(
            (6, 5),
            lambda i, j: if_then_else(
                flipped[i, j] > 0.5, call("exp", flipped[i, j]), i + j
            ),
            name="gate",
        )
        feeds = {a: np.random.default_rng(0).standard_normal((6, 5))}
        from repro.graph.te_program import TENode, TEProgram

        nodes = [
            TENode(0, flipped, "flip", "custom"),
            TENode(1, gated, "gate", "custom"),
        ]
        program = TEProgram("mixed", [a], nodes, [gated])
        assert np.array_equal(
            ExecutionPlan(program).run(feeds)[0], oracle(program, feeds)[0]
        )


class TestArena:
    def test_intermediates_live_in_arena(self):
        program = chain_program()
        plan = ExecutionPlan(program)
        arena = plan.new_arena()
        assert arena.buffer.nbytes == plan.workspace_bytes
        for node in program.nodes:
            if program.is_output(node.tensor):
                continue
            view = arena.views[id(node.tensor)]
            assert np.shares_memory(view, arena.buffer)
            assert view.dtype == np.float64
            assert view.shape == node.tensor.shape

    def test_disjoint_intermediates_share_bytes(self):
        """A long chain's arena is much smaller than one buffer per node."""
        program = chain_program(length=8)
        plan = ExecutionPlan(program)
        per_tensor = 8 * 8 * EXEC_ITEMSIZE
        naive = 7 * 256 * -(-per_tensor // 256)
        assert plan.workspace_bytes < naive
        assert plan.memory_plan.sharing_ratio > 1.5

    def test_exclusive_writes_never_alias_operands(self):
        """No step's output bytes may overlap its operands' bytes."""
        for name in sorted(TINY_MODELS):
            program = lower_graph(TINY_MODELS[name]())
            plan = ExecutionPlan(program)
            ranges = {
                id(t): (a.offset, a.offset + t.num_elements * EXEC_ITEMSIZE)
                for t, a in plan.memory_plan.assignments.items()
            }
            for node in program.nodes:
                out = ranges.get(id(node.tensor))
                if out is None:
                    continue
                for operand in node.inputs:
                    inp = ranges.get(id(operand))
                    if inp is None:
                        continue
                    assert out[1] <= inp[0] or inp[1] <= out[0], (
                        name, node.name, operand.name
                    )

    def test_outputs_are_fresh_per_request(self):
        program = chain_program()
        session = InferenceSession(program)
        feeds = random_feeds(program, seed=0)
        (first,) = session.run(feeds)
        (second,) = session.run(feeds)
        assert first is not second
        assert not np.shares_memory(first, second)
        arena = session.arena_state._free_arenas[0]
        assert not np.shares_memory(first, arena.buffer)


class TestLayoutValidation:
    def test_time_overlapping_assignment_rejected(self):
        """A layout giving two simultaneously-live tensors the same bytes
        must fail the arena-hazard check inside plan construction."""
        b = GraphBuilder("d")
        x = b.input((8, 8), name="x")
        left = b.relu(x)
        right = b.sigmoid(x)
        program = lower_graph(b.build([b.add(left, right)]))
        good = plan_memory(
            program,
            sizer=lambda t: t.num_elements * EXEC_ITEMSIZE,
            exclusive_writes=True,
        )
        bad = MemoryPlan(exclusive_writes=True)
        bad.unshared_bytes = good.unshared_bytes
        for tensor, a in good.assignments.items():
            bad.assignments[tensor] = BufferAssignment(
                tensor, 0, a.nbytes, a.live
            )
            bad.workspace_bytes = max(bad.workspace_bytes, a.nbytes)
        with pytest.raises(PlanningError):
            ExecutionPlan(program, memory_plan=bad)

    def test_inplace_operand_aliasing_rejected(self):
        """A chain layout that is legal for GPU kernels (in-place reuse of a
        dying operand) is unsafe for the numpy executor and must be caught
        by the step-level aliasing check."""
        program = chain_program(length=3)
        inplace = plan_memory(
            program,
            sizer=lambda t: t.num_elements * EXEC_ITEMSIZE,
            exclusive_writes=False,  # allows operand/result sharing
        )
        assert inplace.workspace_bytes > 0
        with pytest.raises(PlanningError):
            ExecutionPlan(program, memory_plan=inplace)

    def test_missing_assignment_rejected(self):
        program = chain_program(length=3)
        empty = MemoryPlan(exclusive_writes=True)
        with pytest.raises(PlanningError):
            ExecutionPlan(program, memory_plan=empty)


class TestSession:
    def test_serial_requests_reuse_one_arena(self):
        program = mlp_program()
        session = InferenceSession(program)
        feeds = random_feeds(program, seed=0)
        for _ in range(32):
            session.run(feeds)
        assert session.arena_state.arenas_allocated == 1
        assert session.arena_state.request_count == 32

    def test_concurrent_requests_are_correct(self):
        program = mlp_program()
        session = InferenceSession(program)
        per_thread_feeds = [random_feeds(program, seed=s) for s in range(4)]
        expected = [oracle(program, f) for f in per_thread_feeds]
        failures = []

        def worker(idx):
            for _ in range(8):
                (out,) = session.run(per_thread_feeds[idx])
                if not np.array_equal(out, expected[idx][0]):
                    failures.append(idx)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert session.arena_state.request_count == 32
        # The pool never exceeds the worst-case concurrency.
        assert 1 <= session.arena_state.arenas_allocated <= 4

    def test_run_by_name_lists_available_inputs(self):
        program = mlp_program()
        session = InferenceSession(program)
        with pytest.raises(ExecutionError, match="available inputs"):
            session.run_by_name({"bogus": np.zeros((4, 8))})

    def test_missing_feed_names_placeholder(self):
        program = mlp_program()
        session = InferenceSession(program)
        feeds = random_feeds(program, seed=0)
        feeds.pop(program.inputs[0])
        with pytest.raises(ExecutionError, match="no feed provided"):
            session.run(feeds)

    def test_bad_feed_shape_rejected(self):
        program = mlp_program()
        session = InferenceSession(program)
        feeds = random_feeds(program, seed=0)
        feeds[program.inputs[0]] = np.zeros((2, 2))
        with pytest.raises(ExecutionError, match="shape"):
            session.run(feeds)

    def test_profile_report(self):
        program = mlp_program()
        session = InferenceSession(program, profile=True)
        feeds = random_feeds(program, seed=0)
        for _ in range(5):
            session.run(feeds)
        report = session.profile_report()
        assert report.requests == 5
        assert report.requests_per_second > 0
        assert len(report.steps) == session.plan.num_steps
        assert all(s.calls == 5 for s in report.steps)
        text = report.render(top=5)
        assert "serving profile" in text and "req/s" in text

    def test_latency_recorded_without_profiling(self):
        program = mlp_program()
        session = InferenceSession(program)
        session.run(random_feeds(program, seed=0))
        assert session.arena_state.last_latency_s > 0
        assert session.requests_per_second > 0
        report = session.profile_report()
        assert "per-step timing disabled" in report.render()


def weight_view_program():
    """``y = relu(x * w.T)`` with ``w`` a weight read through a transposed
    strided view, one of the views a plan keeps for a feed."""
    x = placeholder((4, 6), name="x")
    w = placeholder((6, 4), name="w", role="weight")
    y = compute(
        (4, 6), lambda i, j: call("relu", x[i, j] * w[j, i] + 0.5), name="y"
    )
    return TEProgram("weight_view", [x, w], [TENode(0, y, "y", "custom")],
                     [y]), x, w


class TestKeptFeeds:
    """A plan keeps a feed's bound array and views while the caller passes
    the same array object; every request must still read that array's
    bytes as they are then, and equal the Evaluator bit for bit."""

    def check(self, session, program, feeds):
        for got, want in zip(session.run(feeds), oracle(program, feeds)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_weight_mutated_in_place_between_requests(self):
        program, x, w = weight_view_program()
        session = InferenceSession(program)
        rng = np.random.default_rng(0)
        feeds = {x: rng.standard_normal(x.shape),
                 w: rng.standard_normal(w.shape)}
        for scale in (1.0, -2.0, 0.0, 3.0):
            feeds[w] *= scale
            feeds[x] = rng.standard_normal(x.shape)  # fresh per request
            self.check(session, program, feeds)
        # The weight's entries are the kept ones, not rebuilt.
        first, second = (session.plan.bind_feeds(feeds) for _ in range(2))
        kept = [k for k in first if k != id(x)]
        assert len(kept) >= 2  # the array and its transposed view
        assert all(second[k] is first[k] for k in kept)

    def test_compiled_model_weights_mutated_in_place(self):
        from repro import SouffleCompiler

        module = SouffleCompiler().compile(TINY_MODELS["bert"]())
        program = module.program
        feeds = random_feeds(program, seed=4)
        for step in range(3):
            for tensor, value in feeds.items():
                if tensor.role == "weight":
                    value *= 1.0 + 0.25 * step
            for got, want in zip(module.run(feeds),
                                 module.run_interpreted(feeds)):
                assert np.array_equal(got, want), step

    def test_bound_weights_mutated_through_a_batching_server(self):
        from repro.runtime.batching import BatchingServer

        program, x, w = weight_view_program()
        session = InferenceSession(program)
        weight = np.random.default_rng(1).standard_normal(w.shape)
        session.plan_state.bind_weights({"w": weight})
        requests = [
            {"x": np.random.default_rng(seed).standard_normal(x.shape)}
            for seed in range(4)
        ]
        with BatchingServer(session, max_queue_delay_ms=20.0) as server:
            for scale in (1.0, -0.5, 2.0):
                weight *= scale
                futures = [server.submit(r) for r in requests]
                for request, future in zip(requests, futures):
                    (want,) = oracle(program, {x: request["x"], w: weight})
                    (got,) = future.result(timeout=60)
                    assert np.array_equal(got, want), scale
        assert session.arena_state.batches_executed >= 1

    @pytest.mark.parametrize("layout", ["float32", "strided"])
    def test_converted_feed_is_never_kept(self, layout):
        """A float32 or non-contiguous feed is bound through a converted
        copy, which would not see the caller's later writes."""
        program, x, w = weight_view_program()
        session = InferenceSession(program)
        rng = np.random.default_rng(2)
        if layout == "float32":
            weight = rng.standard_normal(w.shape).astype(np.float32)
        else:
            weight = rng.standard_normal((6, 8))[:, ::2]
            assert not weight.flags.c_contiguous
        feeds = {x: rng.standard_normal(x.shape), w: weight}
        for scale in (1.0, -3.0, 0.5):
            weight *= scale
            self.check(session, program, feeds)

    def test_fresh_arrays_every_request(self):
        program, x, w = weight_view_program()
        session = InferenceSession(program)
        for seed in range(5):
            feeds = random_feeds(program, seed=seed)
            self.check(session, program, feeds)

    def test_threads_with_their_own_weights(self):
        """Eight threads, each feeding its own weight arrays, replace one
        another's kept entries on every request; a thread that read
        another's views would get another's output."""
        program, x, w = weight_view_program()
        session = InferenceSession(program)
        per_thread = [random_feeds(program, seed=10 + k) for k in range(8)]
        expected = [oracle(program, feeds)[0] for feeds in per_thread]
        failures = []
        barrier = threading.Barrier(8)

        def client(k):
            barrier.wait(timeout=60)
            for _ in range(25):
                (got,) = session.run(per_thread[k])
                if not np.array_equal(got, expected[k]):
                    failures.append(k)

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert session.arena_state.request_count == 200

    def test_shape_reassigned_in_place_is_rejected(self):
        program, x, w = weight_view_program()
        session = InferenceSession(program)
        feeds = random_feeds(program, seed=0)
        session.run(feeds)
        feeds[w].shape = (4, 6)  # same size, another shape
        with pytest.raises(ExecutionError, match="shape"):
            session.run(feeds)


def copies_left(plan):
    """The ``np.copyto`` calls one request of ``plan`` makes: one per
    piece of a map step cut into pieces, one for a map step whose root is
    no ufunc or intrinsic call (a select, a bare read, a constant), and
    one per contraction piece computed through a batched-matmul copy."""
    count = 0
    for group in plan.optimization.groups:
        assert len(group.members) == 1 and not hasattr(group, "chain")
        tensor = group.terminal.tensor
        kind = step_kind(tensor)
        if kind == "einsum":
            pieces = match_contraction(tensor).pieces
            count += sum(piece.kernel == "bmm" for piece in pieces)
        elif kind == "const":
            count += 1
        elif kind == "map":
            pieces = lower_views(tensor).pieces
            if len(pieces) > 1 or not isinstance(
                pieces[0].body, (BinOp, Cmp, Call)
            ):
                count += len(pieces)
    return count


class TestWritesOnce:
    """A map step's root ufunc computes into the arena: copies are left
    only where a value must be evaluated before it is written."""

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_copies_per_served_request(self, name, monkeypatch):
        from repro import SouffleCompiler

        module = SouffleCompiler().compile(TINY_MODELS[name]())
        feeds = random_feeds(module.program, seed=1)
        module.run(feeds)  # warm
        calls = []
        copyto = np.copyto

        def counting(*args, **kwargs):
            calls.append(1)
            return copyto(*args, **kwargs)

        monkeypatch.setattr(np, "copyto", counting)
        outputs = module.run(feeds)
        monkeypatch.undo()
        assert len(calls) == copies_left(module.session.plan)
        pinned = {"bert": 0, "mmoe": 3}
        if name in pinned:
            assert len(calls) == pinned[name]
        for got, want in zip(outputs, module.run_interpreted(feeds)):
            assert np.array_equal(got, want)


class TestModuleIntegration:
    def test_module_run_uses_cached_plan(self):
        from repro import compile_model
        from repro.models import build_mmoe_tiny

        module = compile_model(build_mmoe_tiny(), level=4)
        feeds = {t.name: np.zeros(t.shape) for t in module.program.inputs}
        before = ExecutionPlan.plans_built
        module.run_by_name(feeds)
        first_plan = module.session.plan
        module.run_by_name(feeds)
        assert module.session.plan is first_plan
        assert ExecutionPlan.plans_built == before + 1

    def test_module_run_matches_interpreter(self):
        from repro import compile_model
        from repro.models import build_bert_tiny

        module = compile_model(build_bert_tiny(), level=4)
        feeds = random_feeds(module.program, seed=11)
        fast = module.run(feeds)
        slow = module.run_interpreted(feeds)
        for got, want in zip(fast, slow):
            assert np.array_equal(got, want)
