"""Tests for sharded multi-process serving over shared-memory weights.

The contract under test, bottom to top: ``WeightStore`` packs every
session-bound weight into one shared-memory segment that execution plans
bind zero-copy; ``PlanState`` makes one immutable plan + weight table
shareable across sessions while each ``InferenceSession`` keeps its own
arena pool; ``ShardedServer`` fans requests out to K worker processes
with outputs bit-identical to a serial single-process replay, survives
SIGKILLed and hung replicas without dropping an accepted request, and
reports that replicas map — not copy — the weight bytes. The segment
exists only between ``start()`` and ``stop()``.

Worker processes are spawned, so this module must run from a real file
(pytest does); it cannot be exercised from a stdin/heredoc script.
"""

import gc
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime.batching import BatchingServer
from repro.runtime.executor import ExecutionPlan
from repro.runtime.session import InferenceSession, PlanState
from repro.runtime.sharding import (
    ShardedServer,
    _load_program,
    pick_least_outstanding,
)
from repro.runtime.weight_store import WeightStore
from repro.transform import random_feeds


def mlp_graph():
    b = GraphBuilder("mlp")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    return b.build(
        [b.softmax(b.matmul(b.relu(b.matmul(x, w1)), w2), axis=-1)]
    )


def split_feeds(program, seed=0):
    """(weights_by_name, activation feed dicts) for serving-style traffic."""
    base = random_feeds(program, seed=seed)
    weights = {t.name: v for t, v in base.items() if t.role == "weight"}
    return base, weights


def request_stream(program, count, seed=0):
    lead = program.inputs[0]
    rng = np.random.default_rng(seed + 1)
    return [{lead.name: rng.standard_normal(lead.shape)}
            for _ in range(count)]


def serial_reference(program, base, requests):
    """Bit-exact per-request outputs from a fresh single session."""
    session = InferenceSession(program)
    lead = program.inputs[0]
    out = []
    for request in requests:
        feeds = dict(base)
        feeds[lead] = request[lead.name]
        out.append(session.run(feeds))
    return out


def assert_bit_identical(got_list, want_list):
    assert len(got_list) == len(want_list)
    for got, want in zip(got_list, want_list):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class Unloadable:
    """Pickles, but raises when loaded: a program carrying one ships to a
    worker and fails there."""

    def __reduce__(self):
        return (int, ("not a program",))


class TestDispatchPolicies:
    def test_least_outstanding_picks_min(self):
        assert pick_least_outstanding(0, [2, 0, 1]) == 1
        assert pick_least_outstanding(0, [5, None, 1]) == 2

    def test_least_outstanding_breaks_ties_round_robin(self):
        # All equal: continue the rotation from last+1, not always index 0.
        assert pick_least_outstanding(0, [1, 1, 1]) == 1
        assert pick_least_outstanding(1, [1, 1, 1]) == 2
        assert pick_least_outstanding(2, [1, 1, 1]) == 0


class TestWeightStore:
    def test_views_bind_zero_copy(self):
        program = lower_graph(mlp_graph())
        plan = ExecutionPlan(program)
        _, weights = split_feeds(program)
        store = WeightStore.create(program, weights)
        try:
            views = store.weights_by_name()
            for t in program.inputs:
                if t.role != "weight":
                    continue
                view = views[t.name]
                # _bind_one must return the mapped view itself, not a copy:
                # that is the zero-copy contract every replica relies on.
                assert plan._bind_one(t, view) is view
                assert np.array_equal(view, weights[t.name])
        finally:
            store.close()
            store.unlink()

    def test_outputs_bit_identical_through_store(self):
        program = lower_graph(mlp_graph())
        base, weights = split_feeds(program)
        requests = request_stream(program, 4)
        want = serial_reference(program, base, requests)

        state = PlanState(program)
        store = WeightStore.create(program, weights)
        try:
            state.bind_weights(store.weights_by_name())
            session = InferenceSession.from_plan_state(state)
            got = [session.run_by_name(r) for r in requests]
            assert_bit_identical(got, want)
        finally:
            store.close()
            store.unlink()


class TestPlanState:
    def test_sessions_share_plan_but_not_arenas(self):
        program = lower_graph(mlp_graph())
        base, weights = split_feeds(program)
        state = PlanState(program)
        state.bind_weights(weights)
        a = InferenceSession.from_plan_state(state)
        b = InferenceSession.from_plan_state(state)
        assert a.plan is b.plan
        requests = request_stream(program, 2)
        lead = program.inputs[0]
        for r in requests:
            a.run_by_name({lead.name: r[lead.name]})
            b.run_by_name({lead.name: r[lead.name]})
        # Batched plans are built once and shared...
        assert a.plan_state._batched_plans is b.plan_state._batched_plans
        # ...but each session pools its own arenas.
        assert a.arena_state.arenas_allocated >= 1
        assert b.arena_state.arenas_allocated >= 1
        assert a.arena_state is not b.arena_state

    def test_request_feeds_override_weight_table(self):
        program = lower_graph(mlp_graph())
        base, weights = split_feeds(program)
        state = PlanState(program)
        state.bind_weights(weights)
        session = InferenceSession.from_plan_state(state)
        lead = program.inputs[0]
        x = np.random.default_rng(5).standard_normal(lead.shape)
        default = session.run_by_name({lead.name: x})
        override = {"x": x, "w2": weights["w2"] * 2.0}
        changed = session.run_by_name(override)
        assert not all(
            np.array_equal(g, w) for g, w in zip(changed, default)
        )


class TestArenaAccounting:
    def test_profile_reports_pool_high_water_and_trims(self):
        program = lower_graph(mlp_graph())
        session = InferenceSession(program, profile=True, max_pool=1)
        base, _ = split_feeds(program)
        lead = program.inputs[0]
        requests = request_stream(program, 12, seed=3)

        def client(chunk):
            for r in chunk:
                feeds = dict(base)
                feeds[lead] = r[lead.name]
                session.run(feeds)

        threads = [
            threading.Thread(target=client, args=(requests[i::3],))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = session.profile_report()
        assert report.pool_high_water >= 1
        state = session.arena_state
        assert report.arenas_trimmed == state.arenas_trimmed
        if state.arenas_allocated > 1:
            # max_pool=1: every extra arena must have been trimmed.
            assert report.arenas_trimmed >= state.arenas_allocated - 1
        assert "arena pool" in report.render()


@pytest.fixture
def mlp_setup():
    graph = mlp_graph()
    program = lower_graph(graph)
    base, weights = split_feeds(program)
    return graph, program, base, weights


class TestShardedServer:
    def test_rejects_bad_config(self, mlp_setup):
        graph, _, _, weights = mlp_setup
        with pytest.raises(ExecutionError):
            ShardedServer(graph, weights, replicas=0)
        # Settings that would break the batch window or have the watchdog
        # kill a worker on every batch are refused before anything is
        # spawned.
        with pytest.raises(ExecutionError, match="max_queue_delay_ms"):
            ShardedServer(graph, weights, max_queue_delay_ms=-1.0)
        with pytest.raises(ExecutionError, match="request_timeout_s"):
            ShardedServer(graph, weights, request_timeout_s=0.0)

    def test_unstarted_server_holds_no_segment(self, mlp_setup):
        """A server built and dropped without start() never creates a
        shared-memory segment, and collecting it raises nothing."""
        graph, _, _, weights = mlp_setup
        unraisable = []
        hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            before = set(os.listdir("/dev/shm"))
            server = ShardedServer(graph, weights, replicas=1)
            assert server.store is None
            del server
            gc.collect()
        finally:
            sys.unraisablehook = hook
        assert not {
            name for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("psm_")
        }
        assert not unraisable

    def test_unstopped_server_exits_cleanly(self, tmp_path):
        """A script that starts a server, serves a request and exits
        without stop() is stopped at interpreter exit: no respawned worker
        dies on a closed pipe and no segment is left behind."""
        import subprocess

        import repro

        script = tmp_path / "unstopped.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.graph import GraphBuilder\n"
            "from repro.runtime.sharding import ShardedServer\n"
            "if __name__ == '__main__':\n"
            "    b = GraphBuilder('mlp')\n"
            "    x = b.input((4, 8), name='x')\n"
            "    w = b.weight((8, 4), name='w')\n"
            "    graph = b.build([b.relu(b.matmul(x, w))])\n"
            "    rng = np.random.default_rng(0)\n"
            "    server = ShardedServer(\n"
            "        graph, {'w': rng.standard_normal((8, 4))}, replicas=1\n"
            "    ).start()\n"
            "    x = rng.standard_normal((4, 8))\n"
            "    server.submit({'x': x}).result(timeout=60)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        before = set(os.listdir("/dev/shm"))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "EOFError" not in done.stderr
        assert "leaked shared_memory" not in done.stderr
        assert not {
            name for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("psm_")
        }

    def test_bit_identical_and_zero_copy(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 24)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=2,
                           max_queue_delay_ms=1.0) as server:
            futures = [server.submit(r) for r in requests]
            got = [f.result(timeout=120) for f in futures]
            m = server.metrics()
        assert_bit_identical(got, want)
        agg = m["aggregate"]
        assert agg["requests_completed"] == len(requests)
        assert agg["weight_bytes_saved"] == agg["weight_bytes_total"]
        for row in m["per_replica"]:
            # Every replica maps the segment; none holds a private copy.
            assert row["weight_bytes_mapped"] == agg["weight_bytes_total"]
            assert row["weight_private_bytes"] == 0

    def test_round_robin_spreads_requests(self, mlp_setup):
        graph, program, _, weights = mlp_setup
        requests = request_stream(program, 16)
        with ShardedServer(graph, weights, replicas=2, max_batch_size=1,
                           max_queue_delay_ms=0.0) as server:
            futures = [server.submit(r) for r in requests]
            for f in futures:
                f.result(timeout=120)
            m = server.metrics()
        served = [row["requests"] for row in m["per_replica"]]
        assert sum(served) == len(requests)
        assert all(count > 0 for count in served)

    def test_stop_drains_accepted_requests(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 12)
        want = serial_reference(program, base, requests)
        server = ShardedServer(graph, weights, replicas=2,
                               max_queue_delay_ms=50.0)
        server.start()
        futures = [server.submit(r) for r in requests]
        server.stop()  # must not drop what it accepted
        got = [f.result(timeout=120) for f in futures]
        assert_bit_identical(got, want)
        with pytest.raises(ExecutionError):
            server.submit(requests[0])

    def test_sigkill_mid_stream_redispatches_bit_identically(
        self, mlp_setup
    ):
        """Satellite fault drill: SIGKILL a worker holding in-flight
        requests. Every accepted request still completes, re-dispatched
        members are bit-identical, and the replica respawns."""
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 32)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=2,
                           request_timeout_s=20.0,
                           max_queue_delay_ms=5.0) as server:
            segment = server.store.manifest.shm_name
            pid0 = server.metrics(refresh=False)["per_replica"][0]["pid"]
            futures = [server.submit(r) for r in requests[:16]]
            os.kill(pid0, signal.SIGKILL)
            futures += [server.submit(r) for r in requests[16:]]
            got = [f.result(timeout=120) for f in futures]
            # A respawned replica counts as alive from spawn, before it is
            # ready; wait for the respawn itself, not just the alive flag.
            deadline = time.perf_counter() + 30.0
            while ((server.alive_replicas() < 2
                    or server.worker_respawns < 1)
                   and time.perf_counter() < deadline):
                time.sleep(0.05)
            m = server.metrics()
        assert_bit_identical(got, want)
        agg = m["aggregate"]
        assert agg["worker_crashes"] >= 1
        assert agg["worker_respawns"] >= 1
        assert agg["alive"] == 2
        assert m["per_replica"][0]["pid"] != pid0
        assert not os.path.exists(os.path.join("/dev/shm", segment))

    def test_hung_replica_killed_and_requests_recovered(self, mlp_setup):
        """A replica that stops responding is killed by the watchdog after
        request_timeout_s; its requests are re-dispatched and complete."""
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 6)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=2,
                           request_timeout_s=0.4) as server:
            segment = server.store.manifest.shm_name
            # Freeze every worker: each batch shipped to one hangs until the
            # watchdog kills it, and only respawned workers serve.
            frozen = [row["pid"] for row in
                      server.metrics(refresh=False)["per_replica"]]
            for pid in frozen:
                os.kill(pid, signal.SIGSTOP)
            try:
                futures = [server.submit(r) for r in requests]
                got = [f.result(timeout=120) for f in futures]
                m = server.metrics()
            finally:
                # No frozen worker may outlive the test.
                for pid in frozen:
                    try:
                        os.kill(pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass
        assert_bit_identical(got, want)
        assert m["aggregate"]["worker_crashes"] >= 1
        assert not os.path.exists(os.path.join("/dev/shm", segment))

    def test_cancelled_request_is_skipped(self, mlp_setup):
        """A request cancelled while queued is never shipped to a replica;
        the rest of its batch is served bit-identically."""
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 2, seed=17)
        want = serial_reference(program, base, requests)
        with ShardedServer(graph, weights, replicas=1,
                           max_queue_delay_ms=200.0) as server:
            cancelled = server.submit(requests[0])
            kept = server.submit(requests[1])
            assert cancelled.cancel()
            got = kept.result(timeout=120)
            m = server.metrics()
        assert_bit_identical([got], want[1:])
        assert cancelled.cancelled()
        assert m["per_replica"][0]["requests"] == 1
        assert m["aggregate"]["requests_completed"] == 1

    def test_bad_feeds_fail_at_submit(self, mlp_setup):
        graph, _, _, weights = mlp_setup
        with ShardedServer(graph, weights, replicas=1) as server:
            lead = server.plan_state.program.inputs[0]
            with pytest.raises(ExecutionError, match="shape"):
                server.submit({lead: np.zeros((3, 3))})
            with pytest.raises(ExecutionError, match="no input named"):
                server.submit({"bogus": np.zeros((4, 8))})
            assert server.requests_submitted == 0

    def test_run_blocks_like_session(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        request = request_stream(program, 1)[0]
        want = serial_reference(program, base, [request])[0]
        with ShardedServer(graph, weights, replicas=1) as server:
            got = server.run(request, timeout=120)
        assert_bit_identical([got], [want])

    def test_submit_after_stop_rejected_and_restartable(self, mlp_setup):
        """stop() unlinks the weight segment; start() publishes a new one
        and serves bit-identically again."""
        graph, program, base, weights = mlp_setup
        requests = request_stream(program, 3, seed=23)
        want = serial_reference(program, base, requests)
        server = ShardedServer(graph, weights, replicas=1)
        try:
            for _ in range(2):
                server.start()
                segment = server.store.manifest.shm_name
                got = [server.run(r, timeout=120) for r in requests]
                assert_bit_identical(got, want)
                server.stop()
                assert not os.path.exists(os.path.join("/dev/shm", segment))
                with pytest.raises(ExecutionError, match="not running"):
                    server.submit(requests[0])
        finally:
            server.stop()

    def test_failed_start_leaves_a_restartable_server(self, mlp_setup):
        graph, program, base, weights = mlp_setup
        request = request_stream(program, 1, seed=29)[0]
        want = serial_reference(program, base, [request])[0]
        server = ShardedServer(graph, weights, replicas=1)
        shipped = server.plan_state.program
        shipped.unloadable = Unloadable()  # the worker cannot load it
        with pytest.raises(ExecutionError, match="failed to start"):
            server.start()
        segment = server.store.manifest.shm_name
        assert not os.path.exists(os.path.join("/dev/shm", segment))
        del shipped.unloadable
        with server:
            got = server.run(request, timeout=120)
        assert_bit_identical([got], [want])


class TestShippedProgram:
    @pytest.mark.parametrize("model", ["bert", "lstm"])
    def test_workers_plan_what_the_parent_plans(self, model):
        """Every worker builds its plan from the program start() ships:
        the same step count and arena bytes as the parent's plan."""
        graph = TINY_MODELS[model]()
        _, weights = split_feeds(lower_graph(graph))
        with ShardedServer(graph, weights, replicas=2) as server:
            rows = server.metrics(refresh=False)["per_replica"]
        plan = server.plan_state.plan
        assert [(row["plan_steps"], row["arena_bytes"]) for row in rows] == [
            (plan.num_steps, plan.workspace_bytes)
        ] * 2

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_restores_the_collector_state(self, enabled):
        """A worker loads the shipped program with the cyclic collector
        paused and leaves it as it found it, whether the blob loads or
        not."""
        program = lower_graph(mlp_graph())
        good = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            loaded = _load_program(good)
            assert [n.name for n in loaded.nodes] == [
                n.name for n in program.nodes
            ]
            assert gc.isenabled() is enabled
            with pytest.raises(Exception):
                _load_program(good[: len(good) // 2])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def build_server(kind, mlp_setup, **options):
    """An unstarted server of ``kind`` over the MLP, and its PlanState."""
    graph, program, _, weights = mlp_setup
    if kind == "batching":
        session = InferenceSession(program)
        session.plan_state.bind_weights(weights)
        return BatchingServer(session, **options), session.plan_state
    server = ShardedServer(graph, weights, replicas=1, **options)
    return server, server.plan_state


class TestRequestCore:
    """The request path ``BatchingServer`` owns and ``ShardedServer``
    inherits: admission, the drain and the counters."""

    @pytest.mark.parametrize("kind", ["batching", "sharded"])
    def test_submit_racing_stop_is_served_or_refused(
        self, kind, mlp_setup, monkeypatch
    ):
        """A submit still validating its feeds when stop() runs either
        raises or returns a future that resolves; it is never accepted
        and then left unserved."""
        _, program, base, _ = mlp_setup
        request = request_stream(program, 1, seed=23)[0]
        want = serial_reference(program, base, [request])
        server, plan_state = build_server(kind, mlp_setup,
                                          max_queue_delay_ms=1.0)
        plan = plan_state.plan
        validating = threading.Event()
        bind_feeds = plan.bind_feeds

        def slow_bind_feeds(feeds):
            validating.set()
            time.sleep(0.5)
            return bind_feeds(feeds)

        server.start()
        monkeypatch.setattr(plan, "bind_feeds", slow_bind_feeds)
        outcome = {}

        def client():
            try:
                outcome["future"] = server.submit(request)
            except ExecutionError as exc:
                outcome["refused"] = exc

        thread = threading.Thread(target=client)
        thread.start()
        assert validating.wait(timeout=10)
        server.stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        if "future" in outcome:
            assert_bit_identical([outcome["future"].result(timeout=3)], want)
        else:
            assert "refused" in outcome

    @pytest.mark.parametrize("kind", ["batching", "sharded"])
    def test_clients_racing_stop_are_served_or_refused(
        self, kind, mlp_setup
    ):
        """More client threads than cores keep submitting, under a short
        switch interval, while stop() runs: every accepted request
        resolves bit-identically, and the counters agree with it."""
        _, program, base, _ = mlp_setup
        requests = request_stream(program, 64, seed=29)
        want = serial_reference(program, base, requests)
        server, _ = build_server(kind, mlp_setup, max_batch_size=4,
                                 max_queue_delay_ms=0.5)
        server.start()
        accepted, refused = [], []
        under_way = threading.Event()

        def client(first):
            for i in range(first, len(requests), 8):
                try:
                    accepted.append((i, server.submit(requests[i])))
                except ExecutionError:
                    refused.append(i)
                if len(accepted) >= 16:
                    under_way.set()

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            under_way.wait(timeout=30)
            server.stop()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(accepted) + len(refused) == len(requests)
        for i, future in accepted:
            assert_bit_identical([future.result(timeout=30)], [want[i]])
        assert server.requests_submitted == len(accepted)
        assert server.requests_completed == len(accepted)
