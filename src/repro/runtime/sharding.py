"""Sharded multi-process serving with zero-copy shared-memory weights.

A :class:`ShardedServer` scales the single-process serving stack
(:class:`~repro.runtime.batching.BatchingServer`) across K worker
*processes*. Each worker rebuilds the same deterministic
:class:`~repro.runtime.executor.ExecutionPlan` from the serialized source
graph, then maps the model's weights out of one shared
:class:`~repro.runtime.weight_store.WeightStore` segment, zero-copy. K
replicas therefore hold K arena pools but exactly *one* copy of the
weights. The segment exists only while the server runs: :meth:`start`
creates it and :meth:`stop` unlinks it, so a server that is built but
never started holds none.

Admission, the batch window, the dispatcher, the stop-time drain and the
batch-failure fallback are the :class:`~repro.runtime.batching.
RequestCore` that ``BatchingServer`` runs on too. What this module adds
is where a batch goes and what happens when a worker dies:

* each formed batch ships to the alive replica with the fewest
  outstanding requests (ties rotate), capped at a few batches per replica
  so one slow replica cannot absorb the whole queue;
* a crashed or hung replica's in-flight requests go back to the queue (a
  hang is converted into a crash by the watchdog's ``request_timeout_s``)
  while the worker is respawned, and :meth:`stop` returns only once they
  are served. If no replica is available the parent executes the batch
  itself over the same shared :class:`PlanState`, so every accepted
  request resolves even with every worker down.

Outputs are bit-identical to a serial replay of the same requests through
one :class:`~repro.runtime.session.InferenceSession`: workers replay the
same plans on the same weight bytes, and batch lanes are bit-identical to
unbatched replays by the batched-plan guarantee.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import multiprocessing as mp

import numpy as np

from repro.errors import ExecutionError
from repro.frontends.serialize import graph_from_dict, graph_to_dict
from repro.graph.graph import Graph
from repro.graph.lowering import lower_graph
from repro.runtime.batching import CoreServer, Feeds, Pending, RequestCore
from repro.runtime.session import InferenceSession, PlanState
from repro.runtime.weight_store import WeightManifest, WeightStore

# Batches one replica may hold in flight before dispatch waits for it.
_MAX_IN_FLIGHT = 2

# Watchdog sweep interval (hang detection granularity).
_WATCHDOG_POLL_S = 0.05

# How long start() waits for every worker to map weights and report ready.
_READY_TIMEOUT_S = 120.0


# ---- replica choice ---------------------------------------------------------


def pick_least_outstanding(
    last: int, outstanding: Sequence[Optional[int]]
) -> int:
    """Alive replica with the fewest in-flight requests; round-robin ties
    (``None`` marks a replica that is dead or at capacity)."""
    alive = [o for o in outstanding if o is not None]
    if not alive:
        raise ExecutionError("no alive replica to dispatch to")
    best = min(alive)
    n = len(outstanding)
    for i in range(1, n + 1):
        idx = (last + i) % n
        if outstanding[idx] == best:
            return idx
    raise ExecutionError("no alive replica to dispatch to")


# ---- worker process ---------------------------------------------------------


def _rss_bytes() -> int:
    """Resident set size of this process (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _session_stats(session: InferenceSession) -> dict:
    pct = session.latency_percentiles()
    state = session.arena_state
    return {
        "requests": state.request_count,
        "request_seconds": state.request_seconds,
        "p50_us": pct["p50"] * 1e6,
        "p95_us": pct["p95"] * 1e6,
        "p99_us": pct["p99"] * 1e6,
        "batches": state.batches_executed,
        "mean_occupancy": session.mean_batch_occupancy,
        "arenas_allocated": state.arenas_allocated,
        "arenas_trimmed": state.arenas_trimmed,
        "pool_high_water": state.pool_high_water,
        "rss_bytes": _rss_bytes(),
    }


def _worker_main(
    index: int,
    graph_doc: dict,
    manifest: WeightManifest,
    conn,
) -> None:
    """Replica body: rebuild the plan, map shared weights, serve batches.

    Protocol (over the duplex pipe): the worker sends ``("ready", index,
    info)`` once serving; the parent sends ``("batch", id, feeds_list)``
    (name-keyed feeds) and receives ``("result", id, outputs)`` or
    ``("error", id, message)``; ``("stats",)`` round-trips session
    metrics; ``None`` asks for a clean exit, acknowledged with ``("bye",
    index, None)``.
    """
    store = None
    try:
        store = WeightStore.attach(manifest)
        graph = graph_from_dict(graph_doc)
        program = lower_graph(graph)
        plan_state = PlanState(program)
        weights = store.weights_by_name()
        plan_state.bind_weights(weights)
        session = InferenceSession.from_plan_state(
            plan_state, name=f"{program.name}[{index}]"
        )
        # Zero-copy accounting: a weight whose bound value is not the shm
        # view itself was copied into this replica (should never happen —
        # the store packs execution-dtype contiguous arrays).
        private = 0
        for t, bound in plan_state.weight_feeds.items():
            if bound is not weights.get(t.name):
                private += bound.nbytes
        conn.send(("ready", index, {
            "pid": os.getpid(),
            "weight_bytes_mapped": store.total_bytes,
            "weight_private_bytes": private,
            "rss_bytes": _rss_bytes(),
        }))
    except BaseException as exc:  # noqa: BLE001 — forwarded to parent
        try:
            conn.send(("fatal", index, repr(exc)))
        except OSError:
            pass
        if store is not None:
            store.close()
        return

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone
            if msg is None:
                conn.send(("bye", index, None))
                break
            kind = msg[0]
            if kind == "batch":
                _, batch_id, feeds_list = msg
                try:
                    results = session.run_batch_by_name(feeds_list)
                    conn.send(("result", batch_id, results))
                except Exception as exc:  # noqa: BLE001 — forwarded
                    conn.send(("error", batch_id, repr(exc)))
            elif kind == "stats":
                conn.send(("stats", index, _session_stats(session)))
    finally:
        store.close()


# ---- parent-side bookkeeping ------------------------------------------------


@dataclass
class _InFlight:
    """One batch shipped to a replica, until its result (or its funeral)."""

    members: List[Pending]
    sent_at: float = field(default_factory=time.perf_counter)


class _Replica:
    """Parent-side handle for one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn = None
        self.receiver: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.in_flight: Dict[int, _InFlight] = {}
        self.alive = False
        self.clean_exit = False
        self.ready = threading.Event()
        self.info: dict = {}
        self.stats: dict = {}
        self.stats_event = threading.Event()
        self.fatal: Optional[str] = None
        self.crashes = 0
        self.requests_served = 0

    @property
    def outstanding(self) -> int:
        return sum(len(b.members) for b in self.in_flight.values())


class ShardedServer(CoreServer):
    """K-process sharded serving over one shared weight segment."""

    def __init__(
        self,
        graph: Graph,
        weights: Mapping[str, np.ndarray],
        replicas: int = 2,
        max_batch_size: int = 8,
        max_queue_delay_ms: float = 2.0,
        request_timeout_s: float = 30.0,
        # Accepted and unused; kept because perfbench shard-open passes it.
        cache_dir: Optional[str] = None,
    ) -> None:
        if replicas < 1:
            raise ExecutionError(f"replicas must be >= 1, got {replicas}")
        # A zero timeout would have the watchdog kill a worker on every
        # batch.
        if request_timeout_s <= 0:
            raise ExecutionError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        program = lower_graph(graph)
        self.name = program.name
        # The hand-off is looked up per batch, so a wrapper installed on
        # the class after construction (tracing) sees every batch.
        self._core = RequestCore(
            f"sharded-{self.name}-dispatch",
            lambda batch: self._dispatch(batch),
            max_batch_size,
            max_queue_delay_ms,
            outstanding=self._outstanding,
        )
        self.graph = graph
        self.replicas = replicas
        self.request_timeout_s = request_timeout_s
        self._graph_doc = graph_to_dict(graph)

        # The parent holds its own PlanState over the same weights: it
        # validates submissions and serves as the all-replicas-down
        # fallback executor (bit-identical by construction — same plans,
        # same weight bytes). Binding here rejects bad weights before
        # anything is spawned; start() publishes them.
        self.plan_state = PlanState(program)
        self.plan_state.bind_weights(weights)
        self.store: Optional[WeightStore] = None
        self._local: Optional[InferenceSession] = None
        self._local_lock = threading.Lock()

        self._ctx = mp.get_context("spawn")
        self._replicas: List[_Replica] = [
            _Replica(i) for i in range(replicas)
        ]
        self._lock = threading.Lock()
        self._capacity = threading.Condition(self._lock)
        self._watchdog: Optional[threading.Thread] = None
        self._batch_ids = itertools.count()
        self._last_replica = replicas - 1
        self._serving_since: Optional[float] = None

        self.requests_redispatched = 0
        self.local_fallback_batches = 0
        self.worker_crashes = 0
        self.worker_respawns = 0

    # ---- lifecycle -------------------------------------------------------

    def alive_replicas(self) -> int:
        with self._lock:
            return sum(1 for r in self._replicas if r.alive)

    def start(self) -> "ShardedServer":
        """Publish the weights, spawn every worker, wait for them to map
        the weights, start serving.

        The weights go into a new segment, and the parent's PlanState
        rebinds to its views, so the parent and the workers read the same
        bytes. A stopped server starts again the same way.
        """
        if self._core.running:
            return self
        self.store = WeightStore.create(self.plan_state.program, {
            t.name: v for t, v in self.plan_state.weight_feeds.items()
        })
        self.plan_state.bind_weights(self.store.weights_by_name())
        for replica in self._replicas:
            self._spawn(replica)
        deadline = time.perf_counter() + _READY_TIMEOUT_S
        for replica in self._replicas:
            remaining = max(0.0, deadline - time.perf_counter())
            if not replica.ready.wait(timeout=remaining):
                self._abort_start()
                raise ExecutionError(
                    f"replica {replica.index} did not become ready within "
                    f"{_READY_TIMEOUT_S}s"
                )
            if replica.fatal is not None:
                self._abort_start()
                raise ExecutionError(
                    f"replica {replica.index} failed to start: "
                    f"{replica.fatal}"
                )
        self._core.start()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop,
            name=f"sharded-{self.name}-watchdog",
            daemon=True,
        )
        self._watchdog.start()
        self._serving_since = time.perf_counter()
        # A started server left running at interpreter exit is stopped
        # first: otherwise its daemon workers die under it, each death
        # reads as a crash and respawns a worker that cannot start, and
        # the weight segment is left for the resource tracker.
        atexit.register(self.stop)
        return self

    def _abort_start(self) -> None:
        for replica in self._replicas:
            proc = replica.process
            if proc is not None and proc.is_alive():
                proc.terminate()
        self._reap_workers()
        self.store.unlink()

    def _spawn(self, replica: _Replica) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                replica.index,
                self._graph_doc,
                self.store.manifest,
                child_conn,
            ),
            name=f"sharded-{self.name}-w{replica.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        replica.process = proc
        replica.conn = parent_conn
        replica.clean_exit = False
        replica.fatal = None
        replica.ready.clear()
        with self._lock:
            replica.alive = True
        replica.receiver = threading.Thread(
            target=self._receive_loop,
            args=(replica,),
            name=f"sharded-{self.name}-recv{replica.index}",
            daemon=True,
        )
        replica.receiver.start()

    def stop(self) -> None:
        """Stop accepting requests, resolve everything accepted, shut down.

        The request core returns once the queue is empty and no batch is
        in flight (the watchdog still converts hangs into crashes, whose
        requests come back to the queue and are served), so no accepted
        request is dropped; then every worker is asked to exit.
        """
        atexit.unregister(self.stop)
        self._core.stop()
        for replica in self._replicas:
            with self._lock:
                alive = replica.alive
            if alive and replica.conn is not None:
                try:
                    with replica.send_lock:
                        replica.conn.send(None)
                except (OSError, ValueError):
                    pass
        self._reap_workers()
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout=5.0)
        if self.store is not None:
            self.store.unlink()

    def _reap_workers(self) -> None:
        """Join every worker and its receiver thread.

        Receivers are joined before a restart can respawn their replica,
        so a stale receiver never marks a new worker down.
        """
        for replica in self._replicas:
            proc = replica.process
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            if replica.conn is not None:
                replica.conn.close()
            if (
                replica.receiver is not None
                and replica.receiver is not threading.current_thread()
            ):
                replica.receiver.join(timeout=5.0)

    # ---- request entry ---------------------------------------------------

    def submit(self, feeds: Feeds) -> "Future[List[np.ndarray]]":
        """Queue one request; the future resolves with its output list.

        Feeds may be keyed by placeholder tensor or by name, and cover
        only the model *inputs* — the server merges its shared weights
        under every request. Shape and missing-placeholder errors raise
        here, synchronously.
        """
        return self._core.submit(feeds, self.plan_state)

    # ---- dispatch --------------------------------------------------------

    def _outstanding(self) -> bool:
        with self._lock:
            return any(r.in_flight for r in self._replicas)

    def _pick_replica(self) -> Optional[_Replica]:
        """The least-loaded replica with spare capacity; None to run
        locally.

        Blocks (briefly) while every replica is at its outstanding-batch
        cap; falls back to ``None`` — execute in the parent — only when no
        replica is alive and none is coming back.
        """
        deadline = time.perf_counter() + 1.0
        while True:
            with self._capacity:
                outstanding: List[Optional[int]] = []
                for r in self._replicas:
                    # A respawning replica is alive but not yet ready;
                    # dispatching to it would start the request clock while
                    # the worker is still importing, inviting a watchdog
                    # kill before it ever serves.
                    if (
                        r.alive
                        and r.ready.is_set()
                        and len(r.in_flight) < _MAX_IN_FLIGHT
                    ):
                        outstanding.append(r.outstanding)
                    else:
                        outstanding.append(None)
                if any(o is not None for o in outstanding):
                    idx = pick_least_outstanding(
                        self._last_replica, outstanding
                    )
                    self._last_replica = idx
                    return self._replicas[idx]
                if not any(r.alive for r in self._replicas):
                    if time.perf_counter() >= deadline:
                        return None  # every worker down: serve locally
                self._capacity.wait(timeout=_WATCHDOG_POLL_S)

    def _dispatch(self, batch: List[Pending]) -> None:
        replica = self._pick_replica()
        if replica is None:
            with self._lock:
                self.local_fallback_batches += 1
            self._core.serve(batch, self._local_session())
            return
        batch_id = next(self._batch_ids)
        feeds_list = [
            {t.name: v for t, v in pending.feeds.items()}
            for pending in batch
        ]
        with self._lock:
            lost = not replica.alive
            if not lost:
                replica.in_flight[batch_id] = _InFlight(list(batch))
        if lost:
            # Lost the replica between picking and registering; try again.
            self._dispatch(batch)
            return
        try:
            with replica.send_lock:
                replica.conn.send(("batch", batch_id, feeds_list))
        except (OSError, ValueError):
            # The worker died under us; its receiver thread sees EOF and
            # requeues this batch through the crash path.
            pass

    def _local_session(self) -> InferenceSession:
        """The parent's fallback session over the shared PlanState, built
        on first use."""
        with self._local_lock:
            if self._local is None:
                self._local = InferenceSession.from_plan_state(
                    self.plan_state, name=f"{self.name}[local]"
                )
            return self._local

    # ---- replica receive / crash recovery --------------------------------

    def _receive_loop(self, replica: _Replica) -> None:
        conn = replica.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind in ("result", "error"):
                _, batch_id, payload = msg
                with self._capacity:
                    entry = replica.in_flight.pop(batch_id, None)
                    if entry is not None and kind == "result":
                        replica.requests_served += len(entry.members)
                    self._capacity.notify_all()
                if entry is None:
                    continue
                if kind == "result":
                    self._core.settle(entry.members, payload)
                else:
                    # The worker's batch failed: serve it in the parent,
                    # where the core's fallback runs each member alone if
                    # the batch fails again.
                    self._core.serve(entry.members, self._local_session())
            elif kind == "ready":
                replica.info = msg[2]
                replica.ready.set()
            elif kind == "stats":
                replica.stats = msg[2]
                replica.stats_event.set()
            elif kind == "fatal":
                replica.fatal = msg[2]
                replica.ready.set()
            elif kind == "bye":
                replica.clean_exit = True
        self._on_replica_down(replica)

    def _on_replica_down(self, replica: _Replica) -> None:
        """EOF from a worker: reclaim its in-flight work, maybe respawn."""
        with self._capacity:
            was_alive = replica.alive
            replica.alive = False
            # Requeue every request the dead worker still owed — before its
            # in-flight record goes (the dispatcher outlives stop() until
            # both are empty) and before any early return: a respawned
            # replica can die *again* before ready while already holding
            # re-dispatched batches.
            for entry in replica.in_flight.values():
                for pending in entry.members:
                    self._core.requeue(pending)
                    self.requests_redispatched += 1
            replica.in_flight.clear()
            crashed = not replica.clean_exit and was_alive
            if crashed:
                replica.crashes += 1
                self.worker_crashes += 1
            self._capacity.notify_all()
        if not replica.ready.is_set():
            # Death during startup: fail start() fast, never respawn-loop.
            replica.fatal = replica.fatal or "worker exited before ready"
            replica.ready.set()
            return
        if crashed and self._core.accepting:
            try:
                self._spawn(replica)
            except Exception:  # noqa: BLE001 — replica stays down
                return
            if replica.ready.wait(timeout=_READY_TIMEOUT_S) and (
                replica.fatal is None
            ):
                with self._lock:
                    self.worker_respawns += 1
                with self._capacity:
                    self._capacity.notify_all()
            else:
                with self._lock:
                    replica.alive = False

    def _watchdog_loop(self) -> None:
        """Convert hangs into crashes: kill workers past the deadline.

        Runs as long as the dispatcher, which outlives stop() until no
        batch is in flight.
        """
        while self._core.running:
            now = time.perf_counter()
            for replica in self._replicas:
                with self._lock:
                    if not replica.alive or not replica.in_flight:
                        continue
                    oldest = min(
                        b.sent_at for b in replica.in_flight.values()
                    )
                    proc = replica.process
                if now - oldest > self.request_timeout_s and proc is not None:
                    proc.kill()
            time.sleep(_WATCHDOG_POLL_S)

    # ---- metrics ---------------------------------------------------------

    def refresh_replica_stats(self, timeout_s: float = 2.0) -> None:
        """Round-trip a stats request to every alive replica."""
        pinged = []
        for replica in self._replicas:
            with self._lock:
                alive = replica.alive
            if not alive or replica.conn is None:
                continue
            replica.stats_event.clear()
            try:
                with replica.send_lock:
                    replica.conn.send(("stats",))
            except (OSError, ValueError):
                continue
            pinged.append(replica)
        deadline = time.perf_counter() + timeout_s
        for replica in pinged:
            replica.stats_event.wait(
                timeout=max(0.0, deadline - time.perf_counter())
            )

    def metrics(self, refresh: bool = True) -> dict:
        """Per-replica and aggregate serving metrics.

        ``weight_bytes_saved`` counts the copies sharding avoided: with K
        replicas each mapping the same segment, K-1 per-process weight
        copies never exist.
        """
        if refresh and self._core.accepting:
            self.refresh_replica_stats()
        percentiles = self.latency_percentiles()
        weight_bytes = self.store.total_bytes if self.store is not None else 0
        per_replica = []
        for replica in self._replicas:
            with self._lock:
                row = {
                    "index": replica.index,
                    "alive": replica.alive,
                    "pid": replica.info.get("pid"),
                    "crashes": replica.crashes,
                    "outstanding": replica.outstanding,
                    "requests": replica.requests_served,
                    "weight_bytes_mapped": replica.info.get(
                        "weight_bytes_mapped", 0
                    ),
                    "weight_private_bytes": replica.info.get(
                        "weight_private_bytes", 0
                    ),
                }
            row.update({
                f"worker_{k}": v for k, v in replica.stats.items()
            })
            per_replica.append(row)
        elapsed = (
            time.perf_counter() - self._serving_since
            if self._serving_since is not None else 0.0
        )
        with self._lock:
            aggregate = {
                "model": self.name,
                "replicas": self.replicas,
                "alive": sum(1 for r in self._replicas if r.alive),
                "requests_submitted": self.requests_submitted,
                "requests_completed": self.requests_completed,
                "requests_redispatched": self.requests_redispatched,
                "batches_dispatched": self.batches_dispatched,
                "local_fallback_batches": self.local_fallback_batches,
                "worker_crashes": self.worker_crashes,
                "worker_respawns": self.worker_respawns,
                "elapsed_s": elapsed,
                "qps": (
                    self.requests_completed / elapsed
                    if elapsed > 0 else 0.0
                ),
                "p50_us": percentiles["p50"] * 1e6,
                "p95_us": percentiles["p95"] * 1e6,
                "p99_us": percentiles["p99"] * 1e6,
                "weight_bytes_total": weight_bytes,
                "weight_bytes_saved": (self.replicas - 1) * weight_bytes,
            }
        return {"per_replica": per_replica, "aggregate": aggregate}

    def render_metrics(self, refresh: bool = True) -> str:
        """Text report of the per-replica and aggregate metrics."""
        m = self.metrics(refresh=refresh)
        agg = m["aggregate"]
        lines = [
            f"sharded serving: {agg['model']} x{agg['replicas']}, "
            f"{agg['alive']} alive — "
            f"{agg['requests_completed']} served, "
            f"{agg['qps']:.1f} req/s, p50/p95/p99 = "
            f"{agg['p50_us']:.0f}/{agg['p95_us']:.0f}/"
            f"{agg['p99_us']:.0f} us",
            f"weights: {agg['weight_bytes_total'] / 1e6:.2f} MB shared "
            f"once ({agg['weight_bytes_saved'] / 1e6:.2f} MB of per-replica "
            f"copies avoided)",
            f"faults: {agg['worker_crashes']} crashes, "
            f"{agg['worker_respawns']} respawns, "
            f"{agg['requests_redispatched']} re-dispatched, "
            f"{agg['local_fallback_batches']} local-fallback batches",
        ]
        header = (
            f"{'replica':>7s} {'pid':>8s} {'alive':>5s} {'reqs':>8s} "
            f"{'occup':>6s} {'p50 us':>9s} {'p99 us':>9s} "
            f"{'private W':>10s} {'rss MB':>8s}"
        )
        lines.append(header)
        for row in m["per_replica"]:
            occup = row.get("worker_mean_occupancy", 0.0)
            lines.append(
                f"{row['index']:7d} {str(row.get('pid')):>8s} "
                f"{str(row['alive']):>5s} {row['requests']:8d} "
                f"{occup * 100:5.1f}% "
                f"{row.get('worker_p50_us', 0.0):9.0f} "
                f"{row.get('worker_p99_us', 0.0):9.0f} "
                f"{row['weight_private_bytes']:10d} "
                f"{row.get('worker_rss_bytes', 0) / 1e6:8.1f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ShardedServer {self.name} x{self.replicas}: "
            f"{self.requests_completed} served, "
            f"{self.worker_crashes} crashes>"
        )
