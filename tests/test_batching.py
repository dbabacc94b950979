"""Tests for dynamic micro-batching: batched plans, session batching, server.

The contract under test mirrors the serving pipeline top to bottom:
``BatchedExecutionPlan`` replays are *bit-identical* per lane to the
unbatched plan, ``InferenceSession.run_batch`` buckets/pads/chunks without
changing results, and ``BatchingServer`` never drops or cross-contaminates
requests no matter how many client threads hammer it.
"""

import threading

import numpy as np
import pytest

from repro import SouffleCompiler
from repro.errors import ExecutionError, PlanningError
from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS, build_bert_attention_subgraph
from repro.runtime.batching import BatchingServer
from repro.runtime.executor import BatchedExecutionPlan, ExecutionPlan
from repro.runtime.session import InferenceSession
from repro.transform import random_feeds


def mlp_program():
    b = GraphBuilder("mlp")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    return lower_graph(
        b.build([b.softmax(b.matmul(b.relu(b.matmul(x, w1)), w2), axis=-1)])
    )


def request_feeds(program, count, seed=0):
    """``count`` per-request feed dicts sharing weights, varying input x.

    Mirrors serving traffic: every request carries the *same* weight array
    objects (exercising the broadcast-bind fast path) and a fresh
    activation for the first placeholder.
    """
    base = random_feeds(program, seed=seed)
    lead = program.inputs[0]
    rng = np.random.default_rng(seed + 1)
    requests = []
    for _ in range(count):
        feeds = dict(base)
        feeds[lead] = rng.standard_normal(lead.shape)
        requests.append(feeds)
    return requests


class TestBatchedExecutionPlan:
    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_lanes_bit_identical_to_unbatched(self, name):
        """Every paper model: a batch-4 replay equals four single replays,
        to the last bit."""
        program = lower_graph(TINY_MODELS[name]())
        requests = request_feeds(program, 4, seed=7)
        plan = ExecutionPlan(program)
        batched = BatchedExecutionPlan(program, batch_size=4)
        singles = [plan.run(feeds) for feeds in requests]
        lanes = batched.run_batch(requests)
        for single, lane in zip(singles, lanes):
            for want, got in zip(single, lane):
                assert np.array_equal(got, want), name

    def test_shared_inputs_bound_by_broadcast(self):
        """Identical array objects across lanes must not change results
        (they take the zero-copy broadcast path instead of stacking)."""
        program = mlp_program()
        shared = request_feeds(program, 3, seed=1)
        distinct = [
            {t: np.array(v) for t, v in feeds.items()} for feeds in shared
        ]
        batched = BatchedExecutionPlan(program, batch_size=3)
        for a, b in zip(batched.run_batch(shared), batched.run_batch(distinct)):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_wrong_batch_length_rejected(self):
        batched = BatchedExecutionPlan(mlp_program(), batch_size=4)
        with pytest.raises(ExecutionError, match="re-bucket"):
            batched.bind_batch(request_feeds(batched.program, 3))

    def test_plain_run_rejected(self):
        batched = BatchedExecutionPlan(mlp_program(), batch_size=2)
        with pytest.raises(ExecutionError, match="run_batch"):
            batched.run(request_feeds(batched.program, 1)[0])

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(PlanningError):
            BatchedExecutionPlan(mlp_program(), batch_size=0)

    def test_counts_toward_plans_built(self):
        program = mlp_program()
        before = ExecutionPlan.plans_built
        BatchedExecutionPlan(program, batch_size=2)
        assert ExecutionPlan.plans_built == before + 1


SERVED = dict(TINY_MODELS, attention=build_bert_attention_subgraph)


@pytest.fixture(scope="module", params=sorted(SERVED))
def served(request):
    """One served model, compiled once for every bucket."""
    return SouffleCompiler().compile(SERVED[request.param]())


class TestServedBatchedPlans:
    @pytest.mark.parametrize("bucket", [2, 4, 8])
    def test_lanes_equal_interpreter(self, served, bucket):
        """The compiled program's optimized batched plan, as served: the
        weights are shared by object (zero-stride lanes) and every other
        placeholder differs per request. Each lane equals
        ``run_interpreted`` of its request, to the last bit."""
        module = served
        program = module.program
        base = random_feeds(program, seed=11)
        rng = np.random.default_rng(bucket)
        requests = [
            {
                t: base[t] if t.role == "weight"
                else rng.standard_normal(t.shape)
                for t in program.inputs
            }
            for _ in range(bucket)
        ]
        plan = module.session.batch_plan(bucket)
        assert plan.optimization is not None
        bound = plan.bind_batch(requests)
        weights = [t for t in program.inputs if t.role == "weight"]
        assert weights
        assert all(bound[id(t)].strides[0] == 0 for t in weights)
        lanes = plan.run_batch(requests)
        for feeds, outputs in zip(requests, lanes):
            want = module.run_interpreted(feeds)
            for got, expected in zip(outputs, want):
                assert np.array_equal(got, expected), program.name


class TestSessionBatching:
    def test_bucket_selection_rounds_up(self):
        session = InferenceSession(mlp_program(), batch_buckets=(2, 4, 8))
        assert session.select_batch_bucket(2) == 2
        assert session.select_batch_bucket(3) == 4
        assert session.select_batch_bucket(8) == 8
        # Oversize batches are chunked, so the largest bucket is returned.
        assert session.select_batch_bucket(9) == 8

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ExecutionError):
            InferenceSession(mlp_program(), batch_buckets=())
        with pytest.raises(ExecutionError):
            InferenceSession(mlp_program(), batch_buckets=(1, 2))

    def test_run_batch_matches_run(self):
        program = mlp_program()
        session = InferenceSession(program)
        requests = request_feeds(program, 13, seed=3)
        singles = [session.run(feeds) for feeds in requests]
        for want, got in zip(singles, session.run_batch(requests)):
            for a, b in zip(want, got):
                assert np.array_equal(a, b)
        # 13 requests chunk to 8 + 5(->bucket 8, padded); both batched.
        assert session.arena_state.batches_executed == 2
        assert session.arena_state.batched_requests == 13

    def test_profile_rows_count_only_unbatched_replays(self):
        """The profile's rows are the unbatched plan's steps. A batched
        replay is not timed into them, whether its bucket's plan has more
        steps (a wide softmax tiled only at bucket 8) or the same number
        (tiny BERT at bucket 4)."""
        b = GraphBuilder("wide_softmax")
        x = b.input((256, 512), name="x")
        program = lower_graph(b.build([b.softmax(x, axis=-1)]))
        session = InferenceSession(program, profile=True)
        assert session.batch_plan(8).num_steps > session.plan.num_steps
        requests = request_feeds(program, 8)
        session.run_batch(requests)
        session.run(requests[0])
        assert all(s.calls == 1 for s in session.profile_report().steps)

        program = lower_graph(TINY_MODELS["bert"]())
        session = InferenceSession(program, profile=True)
        assert session.batch_plan(4).num_steps == session.plan.num_steps
        requests = request_feeds(program, 4)
        session.run_batch(requests)
        steps = session.profile_report().steps
        assert all(s.calls == 0 and s.total_seconds == 0.0 for s in steps)
        session.run(requests[0])
        session.run(requests[1])
        assert all(s.calls == 2 for s in session.profile_report().steps)

    def test_single_request_falls_back_to_unbatched(self):
        program = mlp_program()
        session = InferenceSession(program)
        (outputs,) = session.run_batch(request_feeds(program, 1))
        assert outputs[0].shape == program.outputs[0].shape
        # Never built a batched plan.
        assert session.arena_state.batches_executed == 0
        assert not session.plan_state._batched_plans

    def test_batched_plans_cached_per_bucket(self):
        program = mlp_program()
        session = InferenceSession(program)
        plan_a = session.batch_plan(4)
        plan_b = session.batch_plan(4)
        assert plan_a is plan_b
        with pytest.raises(ExecutionError, match="configured batch bucket"):
            session.batch_plan(3)

    def test_occupancy_tracks_padding(self):
        program = mlp_program()
        session = InferenceSession(program, batch_buckets=(4,))
        session.run_batch(request_feeds(program, 3))  # 3 of 4 lanes real
        assert session.mean_batch_occupancy == pytest.approx(0.75)

    def test_arena_pool_bounded_by_max_pool(self):
        program = mlp_program()
        session = InferenceSession(program, max_pool=1)
        requests = request_feeds(program, 4, seed=5)
        # Force two concurrent arenas for the same bucket, then release
        # both: the second release must be dropped, not pooled.
        plan = session.batch_plan(4)
        bound = plan.bind_batch(requests)
        arena_a = session._acquire_arena(4)
        arena_b = session._acquire_arena(4)
        plan.execute(bound, arena_a)
        plan.execute(bound, arena_b)
        session._release_arena(arena_a, 4)
        session._release_arena(arena_b, 4)
        assert session.arena_state.arenas_allocated == 2
        assert session.arena_state.pooled() == 1
        assert session.arena_state.arenas_trimmed == 1

    def test_unbatchable_bucket_degrades_to_smaller(self):
        """A bucket whose batched plan cannot build (e.g. paper-scale
        grids exceeding the broadcast limit at 8 lanes) must degrade to
        the next usable bucket, re-chunking — never error."""
        program = mlp_program()
        session = InferenceSession(program, batch_buckets=(2, 4, 8))
        session.plan_state.unbatchable_buckets.add(8)
        requests = request_feeds(program, 8, seed=21)
        singles = [InferenceSession(program).run(f) for f in requests]
        for want, got in zip(singles, session.run_batch(requests)):
            for a, b in zip(want, got):
                assert np.array_equal(a, b)
        # Two bucket-4 batches.
        assert sorted(session.plan_state._batched_plans) == [4]
        assert session.arena_state.batches_executed == 2
        assert session.arena_state.batched_requests == 8

    def test_all_buckets_unbatchable_falls_back_unbatched(self):
        program = mlp_program()
        session = InferenceSession(program, batch_buckets=(2, 4))
        session.plan_state.unbatchable_buckets.update((2, 4))
        requests = request_feeds(program, 4, seed=22)
        singles = [InferenceSession(program).run(f) for f in requests]
        for want, got in zip(singles, session.run_batch(requests)):
            for a, b in zip(want, got):
                assert np.array_equal(a, b)
        assert session.arena_state.batches_executed == 0
        assert not session.plan_state._batched_plans

    def test_build_failure_marks_bucket_unbatchable(self, monkeypatch):
        program = mlp_program()
        session = InferenceSession(program)

        def boom(bucket):
            raise PlanningError("injected build failure")

        monkeypatch.setattr(session, "batch_plan", boom)
        assert session._batch_plan_or_none(8) is None
        assert 8 in session.plan_state.unbatchable_buckets
        monkeypatch.undo()
        # The failure is remembered: no rebuild attempt on the next call.
        assert session._batch_plan_or_none(8) is None

    def test_latency_percentiles_ordered(self):
        program = mlp_program()
        session = InferenceSession(program, latency_window=64)
        for feeds in request_feeds(program, 6, seed=9):
            session.run(feeds)
        p = session.latency_percentiles()
        assert 0.0 < p["p50"] <= p["p95"] <= p["p99"]

    def test_profile_report_carries_batch_stats(self):
        program = mlp_program()
        session = InferenceSession(program)
        session.run_batch(request_feeds(program, 8, seed=2))
        report = session.profile_report()
        assert report.p99_us >= report.p50_us > 0.0
        assert report.batching is not None
        assert report.batching.batched_requests == 8
        assert report.batching.mean_batch_size == pytest.approx(8.0)
        assert "occupancy" in report.batching.render()
        assert "p50/p95/p99" in report.render()


class TestBatchingServer:
    def test_threaded_stress_bit_identical_none_dropped(self):
        """N client threads x M requests each: every future resolves with
        outputs bit-identical to a direct unbatched run, the arena pools
        stay bounded, and the server accounts for every request."""
        workers, per_worker = 8, 6
        program = mlp_program()
        session = InferenceSession(program, max_pool=2)
        oracle = InferenceSession(program)
        requests = request_feeds(program, workers * per_worker, seed=11)
        expected = [oracle.run(feeds) for feeds in requests]
        results = [None] * len(requests)

        server = BatchingServer(
            session, max_batch_size=8, max_queue_delay_ms=5.0
        ).start()

        def client(worker: int) -> None:
            for j in range(per_worker):
                index = worker * per_worker + j
                results[index] = server.run(requests[index], timeout=60)

        threads = [
            threading.Thread(target=client, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()

        assert all(r is not None for r in results)
        for want, got in zip(expected, results):
            for a, b in zip(want, got):
                assert np.array_equal(a, b)
        assert server.requests_completed == server.requests_submitted
        assert server.requests_completed == workers * per_worker
        # Each pool (unbatched + one per touched bucket) obeys max_pool.
        max_pools = 1 + len(session.batch_buckets)
        state = session.arena_state
        assert state.pooled() <= state.max_pool * max_pools

    def test_stop_drains_queue(self):
        program = mlp_program()
        server = BatchingServer(
            InferenceSession(program), max_batch_size=4,
            max_queue_delay_ms=50.0,
        ).start()
        futures = [server.submit(f) for f in request_feeds(program, 7)]
        server.stop()  # must serve all 7 before returning
        assert all(f.done() for f in futures)
        assert server.requests_completed == 7

    def test_cancelled_request_is_skipped(self):
        """A request cancelled while queued is never run, and the rest of
        its batch, later requests and stop() are unaffected."""
        program = mlp_program()
        session = InferenceSession(program)
        requests = request_feeds(program, 3, seed=17)
        expected = [InferenceSession(program).run(f) for f in requests]
        server = BatchingServer(
            session, max_batch_size=8, max_queue_delay_ms=100.0
        ).start()
        try:
            cancelled = server.submit(requests[0])
            kept = server.submit(requests[1])
            assert cancelled.cancel()
            got = kept.result(timeout=60)
            for a, b in zip(expected[1], got):
                assert np.array_equal(a, b)
            assert server.running
            later = server.submit(requests[2])
            for a, b in zip(expected[2], later.result(timeout=60)):
                assert np.array_equal(a, b)
        finally:
            server.stop()
        assert all(f.done() for f in (cancelled, kept, later))
        assert cancelled.cancelled()
        assert server.requests_completed == 2

    def test_submit_after_stop_rejected_and_restartable(self):
        program = mlp_program()
        feeds = request_feeds(program, 1)[0]
        server = BatchingServer(InferenceSession(program)).start()
        server.stop()
        with pytest.raises(ExecutionError, match="not running"):
            server.submit(feeds)
        server.start()  # a stopped server can come back up
        assert np.array_equal(
            server.run(feeds, timeout=60)[0],
            InferenceSession(program).run(feeds)[0],
        )
        server.stop()

    def test_submit_merges_bound_weights(self):
        """A request may leave out the weights bound on the session
        (``plan_state.bind_weights``): submit validates it with them
        merged in, exactly as ``InferenceSession.run`` serves it."""
        program = lower_graph(TINY_MODELS["bert"]())
        session = InferenceSession(program)
        feeds = random_feeds(program, seed=3)
        session.plan_state.bind_weights(
            {t.name: v for t, v in feeds.items() if t.role == "weight"}
        )
        inputs = {t.name: v for t, v in feeds.items() if t.role != "weight"}
        want = session.run_by_name(inputs)
        with BatchingServer(session, max_queue_delay_ms=1.0) as server:
            got = server.run(inputs, timeout=60)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        assert server.requests_completed == 1

    def test_bad_feeds_fail_at_submit(self):
        program = mlp_program()
        server = BatchingServer(InferenceSession(program)).start()
        try:
            with pytest.raises(ExecutionError, match="shape"):
                server.submit({program.inputs[0]: np.zeros((3, 3))})
            with pytest.raises(ExecutionError, match="no input named"):
                server.submit({"bogus": np.zeros((4, 8))})
            assert server.requests_submitted == 0
        finally:
            server.stop()

    def test_batch_failure_falls_back_per_request(self, monkeypatch):
        """If a batched replay blows up, every member is retried unbatched
        so a batch-level fault never poisons its members' futures."""
        program = mlp_program()
        session = InferenceSession(program)

        def boom(feeds_list):
            raise RuntimeError("injected batch failure")

        monkeypatch.setattr(session, "run_batch", boom)
        requests = request_feeds(program, 4, seed=13)
        expected = [InferenceSession(program).run(f) for f in requests]
        with BatchingServer(session, max_queue_delay_ms=20.0) as server:
            futures = [server.submit(f) for f in requests]
            for want, future in zip(expected, futures):
                got = future.result(timeout=60)
                for a, b in zip(want, got):
                    assert np.array_equal(a, b)

    def test_queue_wait_metrics_in_profile(self):
        program = mlp_program()
        session = InferenceSession(program)
        with session.serve(max_batch_size=4, max_queue_delay_ms=5.0) as server:
            for future in [
                server.submit(f) for f in request_feeds(program, 8)
            ]:
                future.result(timeout=60)
        waits = server.queue_wait_percentiles()
        assert 0.0 < waits["p50"] <= waits["p95"] <= waits["p99"]
        report = server.profile_report()
        assert report.batching is not None
        assert report.batching.queue_wait_p99_us > 0.0
        assert "queue wait" in report.render()

    def test_invalid_policy_rejected(self):
        session = InferenceSession(mlp_program())
        with pytest.raises(ExecutionError):
            BatchingServer(session, max_batch_size=0)
        with pytest.raises(ExecutionError):
            BatchingServer(session, max_queue_delay_ms=-1.0)

    def test_session_serve_builds_running_server(self):
        session = InferenceSession(mlp_program())
        server = session.serve(max_batch_size=4)
        try:
            assert isinstance(server, BatchingServer)
            assert server.running
            assert server.session is session
        finally:
            server.stop()
