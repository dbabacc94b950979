"""Serving sessions: one execution plan, pooled arenas, request metrics.

An :class:`InferenceSession` owns exactly one :class:`~repro.runtime.
executor.ExecutionPlan` for a TE program and replays it per request. Arenas
(the preallocated intermediate workspaces) are checked out of a small pool
under a lock, so the session is safe for repeated *and* concurrent calls:
serial traffic reuses a single arena for its whole lifetime, while N
overlapping requests grow the pool to at most N workspaces. The pool is
bounded by ``max_pool`` — arenas released beyond the cap are dropped so a
traffic burst cannot pin peak-concurrency memory forever.

The session is split into two halves with distinct sharing stories:

* :class:`PlanState` — the immutable, shareable half: the program, the
  compiled :class:`ExecutionPlan`, lazily-built per-bucket
  :class:`BatchedExecutionPlan` replicas, and a bound weight table
  (server-owned feeds merged into every request). One ``PlanState`` can
  back many sessions — across threads in one process, and (rebuilt over
  shared-memory weight views) across the worker processes of a
  :class:`~repro.runtime.sharding.ShardedServer`.
* :class:`ArenaState` — the per-replica mutable half: arena pools, pool
  accounting (allocated / in-use / trimmed / high-water), latency ring and
  per-step timings, all guarded by a single lock so ``max_pool``
  enforcement is race-free under concurrent ``run``/``run_batch``.

The session is also the batched execution entry point: :meth:`run_batch`
routes a list of concurrent requests through per-bucket
:class:`~repro.runtime.executor.BatchedExecutionPlan` replays (power-of-two
``batch_buckets``, padded with duplicate feeds when a bucket is not full),
falling back to the unbatched plan for batch-1 traffic. Cross-request
dynamic batching — queueing, dispatch policy, futures — lives one layer up
in :class:`~repro.runtime.batching.BatchingServer`; :meth:`serve` builds
one over this session. Cross-process sharding lives in
:class:`~repro.runtime.sharding.ShardedServer`.

The session also feeds the profiler: per-request wall latency is always
recorded (two clock reads plus a bounded ring buffer for p50/p95/p99),
batch occupancy is tracked per replay, and ``profile=True`` additionally
accumulates the unbatched plan's per-step wall time over its replays,
surfaced as an :class:`~repro.runtime.profiler.ExecutionProfile` via
:meth:`InferenceSession.profile_report`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, PlanningError
from repro.graph.te_program import TEProgram
from repro.runtime.executor import Arena, BatchedExecutionPlan, ExecutionPlan
from repro.te.tensor import Tensor

# Per-bucket batched plans compiled on demand; bucket 1 is the unbatched
# plan itself (batch-1 traffic never pays batched-plan overhead).
DEFAULT_BATCH_BUCKETS = (2, 4, 8)

# Arenas kept per pool once traffic subsides (see max_pool).
DEFAULT_MAX_POOL = 8

# Per-request latencies kept for percentile reporting.
LATENCY_WINDOW = 2048


def resolve_feeds_by_name(
    program: TEProgram, feeds: Mapping[str, np.ndarray]
) -> Dict[Tensor, np.ndarray]:
    """Map name-keyed feeds onto the program's placeholder tensors."""
    by_name = program.inputs_by_name
    resolved: Dict[Tensor, np.ndarray] = {}
    for name, value in feeds.items():
        tensor = by_name.get(name)
        if tensor is None:
            raise ExecutionError(
                f"no input named {name!r}; available inputs: "
                f"{sorted(by_name)}"
            )
        resolved[tensor] = value
    return resolved


class PlanState:
    """The immutable, shareable half of a session.

    Holds everything that is compiled once and read-only afterwards: the
    program, the unbatched :class:`ExecutionPlan`, the per-bucket batched
    plans (built lazily under a lock, then never mutated), and an optional
    bound weight table. Many sessions — threads or processes — can serve
    from one ``PlanState``; each brings its own :class:`ArenaState`.
    """

    def __init__(
        self,
        program: TEProgram,
        plan: Optional[ExecutionPlan] = None,
        batch_buckets: Sequence[int] = DEFAULT_BATCH_BUCKETS,
    ) -> None:
        self.program = program
        self.plan = (
            plan if plan is not None
            else ExecutionPlan(program, optimize=True)
        )
        buckets = sorted(set(int(b) for b in batch_buckets))
        if not buckets or buckets[0] < 2:
            raise ExecutionError(
                f"batch_buckets must be sizes >= 2, got {batch_buckets!r} "
                "(batch-1 traffic uses the unbatched plan)"
            )
        self.batch_buckets: Tuple[int, ...] = tuple(buckets)
        self._lock = threading.Lock()
        self._batched_plans: Dict[int, BatchedExecutionPlan] = {}
        self.unbatchable_buckets: set = set()
        # Server-owned feeds (weights), merged under every request's feeds.
        self.weight_feeds: Dict[Tensor, np.ndarray] = {}

    # ---- weights ---------------------------------------------------------

    def bind_weights(self, weights_by_name: Mapping[str, np.ndarray]) -> None:
        """Install server-owned weight feeds, merged under every request.

        ``weights_by_name`` maps placeholder names to arrays; each is
        converted once through the plan's binder, which rejects an unknown
        name or a wrong shape and passes contiguous float64 arrays (e.g.
        shared-memory views) through zero-copy.
        """
        resolved = resolve_feeds_by_name(self.program, weights_by_name)
        bound: Dict[Tensor, np.ndarray] = {
            t: self.plan._bind_one(t, v) for t, v in resolved.items()
        }
        with self._lock:
            self.weight_feeds = bound

    def with_weights(
        self, feeds: Mapping[Tensor, np.ndarray]
    ) -> Mapping[Tensor, np.ndarray]:
        """Merge the weight table under one request's feeds (request wins)."""
        if not self.weight_feeds:
            return feeds
        merged: Dict[Tensor, np.ndarray] = dict(self.weight_feeds)
        merged.update(feeds)
        return merged

    @property
    def weight_bytes(self) -> int:
        """Total bytes of the bound weight table (one copy)."""
        return sum(v.nbytes for v in self.weight_feeds.values())

    # ---- batched plans ---------------------------------------------------

    def select_batch_bucket(self, n: int) -> int:
        """Smallest configured bucket >= n; the largest for oversize n
        (``run_batch`` splits oversize batches into bucket-sized chunks)."""
        if n < 1:
            raise ExecutionError(f"batch size must be >= 1, got {n}")
        for bucket in self.batch_buckets:
            if bucket >= n:
                return bucket
        return self.batch_buckets[-1]

    def batch_plan(self, bucket: int) -> BatchedExecutionPlan:
        """The batched plan for one bucket (compiled lazily, cached)."""
        if bucket not in self.batch_buckets:
            raise ExecutionError(
                f"{bucket} is not a configured batch bucket "
                f"{self.batch_buckets}"
            )
        with self._lock:
            plan = self._batched_plans.get(bucket)
        if plan is None:
            built = BatchedExecutionPlan(
                self.plan.program, bucket, optimize=True
            )
            with self._lock:
                plan = self._batched_plans.setdefault(bucket, built)
        return plan


class ArenaState:
    """The per-replica mutable half of a session.

    Owns the arena pools (unbatched + one per batched bucket) and every
    request-level counter. All mutation happens under one lock, which makes
    the ``max_pool`` bound race-free when ``run`` and ``run_batch`` overlap
    from many threads: an arena is counted in-use from the moment it leaves
    a pool until the release decision (keep vs. trim) is taken, and both
    transitions happen inside the lock.
    """

    def __init__(
        self,
        max_pool: int = DEFAULT_MAX_POOL,
        num_steps: int = 0,
    ) -> None:
        if max_pool < 1:
            raise ExecutionError(f"max_pool must be >= 1, got {max_pool}")
        self.max_pool = max_pool
        self.lock = threading.Lock()
        self._free_arenas: List[Arena] = []
        self._free_batched: Dict[int, List[Arena]] = {}
        self.arenas_allocated = 0
        self.arenas_trimmed = 0
        self.arenas_in_use = 0
        self.pool_high_water = 0
        self.request_count = 0
        self.request_seconds = 0.0
        self.last_latency_s = 0.0
        self.batches_executed = 0
        self.batched_requests = 0
        self.occupancy_sum = 0.0
        self.latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self.step_seconds = [0.0] * num_steps
        self.step_calls = 0

    def _pool(self, bucket: Optional[int]) -> List[Arena]:
        if bucket is None:
            return self._free_arenas
        return self._free_batched.setdefault(bucket, [])

    def pooled(self) -> int:
        """Arenas currently idle in the pools (unbatched + every bucket)."""
        with self.lock:
            return len(self._free_arenas) + sum(
                len(pool) for pool in self._free_batched.values()
            )

    def note_high_water(self) -> None:
        """Update the high-water mark (lock held by caller)."""
        live = (
            self.arenas_in_use
            + len(self._free_arenas)
            + sum(len(p) for p in self._free_batched.values())
        )
        if live > self.pool_high_water:
            self.pool_high_water = live


class InferenceSession:
    """Compile-once, replay-many serving wrapper around one TE program."""

    def __init__(
        self,
        program: TEProgram,
        name: Optional[str] = None,
        profile: bool = False,
        plan: Optional[ExecutionPlan] = None,
        max_pool: int = DEFAULT_MAX_POOL,
        batch_buckets: Sequence[int] = DEFAULT_BATCH_BUCKETS,
        plan_state: Optional[PlanState] = None,
    ) -> None:
        self.name = name if name is not None else program.name
        # Serving uses optimized plans (the pass pipeline is proven
        # bit-identical at plan time); an explicit ``plan`` is used as-is
        # for unbatched requests, e.g. ``ExecutionPlan(program)`` to serve
        # the plain lowering. Batched buckets are always optimized.
        if plan_state is None:
            plan_state = PlanState(
                program, plan=plan, batch_buckets=batch_buckets
            )
        self.plan_state = plan_state
        self.profile = profile
        self.arena_state = ArenaState(
            max_pool=max_pool, num_steps=plan_state.plan.num_steps
        )

    @classmethod
    def from_plan_state(
        cls, plan_state: PlanState, name: Optional[str] = None
    ) -> "InferenceSession":
        """A fresh replica over a shared :class:`PlanState` — its own arena
        pools and metrics, the same compiled plans and weight table."""
        return cls(plan_state.program, name=name, plan_state=plan_state)

    # ---- shared state read by callers ------------------------------------

    @property
    def plan(self) -> ExecutionPlan:
        return self.plan_state.plan

    @property
    def batch_buckets(self) -> Tuple[int, ...]:
        return self.plan_state.batch_buckets

    # ---- arena pool ------------------------------------------------------

    def _acquire_arena(self, bucket: Optional[int] = None) -> Arena:
        """Check an arena out of the (per-bucket) pool, allocating on miss."""
        state = self.arena_state
        with state.lock:
            pool = state._pool(bucket)
            state.arenas_in_use += 1
            if pool:
                return pool.pop()
            state.arenas_allocated += 1
            plan = (
                self.plan if bucket is None
                else self.plan_state._batched_plans[bucket]
            )
        arena = plan.new_arena()
        with state.lock:
            state.note_high_water()
        return arena

    def _release_arena(self, arena: Arena, bucket: Optional[int] = None) -> None:
        """Return an arena to its pool, dropping it beyond ``max_pool``."""
        state = self.arena_state
        with state.lock:
            state.arenas_in_use -= 1
            pool = state._pool(bucket)
            if len(pool) < state.max_pool:
                pool.append(arena)
            else:
                state.arenas_trimmed += 1
            state.note_high_water()

    # ---- batched plans ---------------------------------------------------

    def select_batch_bucket(self, n: int) -> int:
        return self.plan_state.select_batch_bucket(n)

    def batch_plan(self, bucket: int) -> BatchedExecutionPlan:
        """The batched plan for one bucket (compiled lazily, cached)."""
        return self.plan_state.batch_plan(bucket)

    def _batch_plan_or_none(
        self, bucket: int
    ) -> Optional[BatchedExecutionPlan]:
        """Like :meth:`batch_plan` but a build failure disables the bucket.

        Batching is an optimisation: a program whose broadcast grids are
        too large for ``bucket`` lanes (or that indexes data-dependently)
        must degrade to smaller buckets or unbatched replay, not error.
        Routed through ``self.batch_plan`` so a session-level override
        sees the build attempt; the unbatchable set is shared PlanState.
        """
        state = self.plan_state
        with state._lock:
            if bucket in state.unbatchable_buckets:
                return None
        try:
            return self.batch_plan(bucket)
        except (ExecutionError, PlanningError):
            with state._lock:
                state.unbatchable_buckets.add(bucket)
            return None

    # ---- execution -------------------------------------------------------

    def run(self, feeds: Mapping[Tensor, np.ndarray]) -> List[np.ndarray]:
        """Execute one request; returns outputs in program order."""
        feeds = self.plan_state.with_weights(feeds)
        bound = self.plan.bind_feeds(feeds)
        arena = self._acquire_arena()
        local_steps = [0.0] * self.plan.num_steps if self.profile else None
        start = time.perf_counter()
        try:
            outputs = self.plan.execute(bound, arena, local_steps)
        finally:
            self._release_arena(arena)
        elapsed = time.perf_counter() - start
        self._record(1, elapsed, local_steps)
        return outputs

    def run_by_name(self, feeds: Mapping[str, np.ndarray]) -> List[np.ndarray]:
        """Like :meth:`run` but feeds are keyed by placeholder name."""
        return self.run(resolve_feeds_by_name(self.plan.program, feeds))

    def run_batch(
        self, feeds_list: Sequence[Mapping[Tensor, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Execute concurrent requests together; one output list each.

        Requests are chunked to the largest configured bucket, each chunk
        replayed through the bucket's batched plan (padded by replaying the
        chunk's last request in the spare lanes — safe because batch lanes
        are independent — with the padding outputs discarded). A chunk of
        one falls back to the unbatched plan. Outputs are bit-identical to
        running every request through :meth:`run`.
        """
        feeds_list = list(feeds_list)
        if not feeds_list:
            return []
        results: List[List[np.ndarray]] = []
        max_bucket = self.batch_buckets[-1]
        for i in range(0, len(feeds_list), max_bucket):
            results.extend(self._run_chunk(feeds_list[i:i + max_bucket]))
        return results

    def run_batch_by_name(
        self, feeds_list: Sequence[Mapping[str, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Like :meth:`run_batch` but feeds are keyed by placeholder name."""
        program = self.plan.program
        return self.run_batch(
            [resolve_feeds_by_name(program, feeds) for feeds in feeds_list]
        )

    def _run_chunk(
        self, chunk: List[Mapping[Tensor, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        n = len(chunk)
        if n == 1:
            return [self.run(chunk[0])]
        bucket = self.select_batch_bucket(n)
        plan = self._batch_plan_or_none(bucket)
        while plan is None:
            # Degrade: largest bucket below the failed one, else unbatched.
            smaller = [b for b in self.batch_buckets if b < bucket]
            if not smaller:
                return [self.run(feeds) for feeds in chunk]
            bucket = smaller[-1]
            plan = self._batch_plan_or_none(bucket)
        if n > bucket:
            # Happens when the selected bucket was unbatchable: re-chunk to
            # the bucket that did build.
            results: List[List[np.ndarray]] = []
            for i in range(0, n, bucket):
                results.extend(self._run_chunk(chunk[i:i + bucket]))
            return results
        chunk = [self.plan_state.with_weights(feeds) for feeds in chunk]
        padded = chunk + [chunk[-1]] * (bucket - n)
        bound = plan.bind_batch(padded)
        arena = self._acquire_arena(bucket)
        start = time.perf_counter()
        try:
            # Not step-timed: the profile's rows are the unbatched plan's
            # steps, and a bucket's plan has steps of its own.
            outputs = plan.execute(bound, arena)
        finally:
            self._release_arena(arena, bucket)
        elapsed = time.perf_counter() - start
        self._record(n, elapsed, bucket=bucket)
        return [
            [np.array(out[lane]) for out in outputs] for lane in range(n)
        ]

    def _record(
        self,
        requests: int,
        elapsed: float,
        local_steps: Optional[List[float]] = None,
        bucket: Optional[int] = None,
    ) -> None:
        state = self.arena_state
        with state.lock:
            state.request_count += requests
            state.request_seconds += elapsed
            state.last_latency_s = elapsed
            # Every request in a batch waited for the whole replay.
            state.latencies.extend([elapsed] * requests)
            if bucket is not None:
                state.batches_executed += 1
                state.batched_requests += requests
                state.occupancy_sum += requests / bucket
            if local_steps is not None:
                state.step_calls += 1
                for i, seconds in enumerate(local_steps):
                    state.step_seconds[i] += seconds

    # ---- serving ---------------------------------------------------------

    def serve(self, max_batch_size: int = 8, max_queue_delay_ms: float = 2.0):
        """A started :class:`~repro.runtime.batching.BatchingServer` over
        this session."""
        from repro.runtime.batching import BatchingServer

        return BatchingServer(
            self,
            max_batch_size=max_batch_size,
            max_queue_delay_ms=max_queue_delay_ms,
        ).start()

    # ---- metrics ---------------------------------------------------------

    @property
    def requests_per_second(self) -> float:
        """Mean sustained throughput over every request so far."""
        state = self.arena_state
        if state.request_seconds <= 0.0:
            return 0.0
        return state.request_count / state.request_seconds

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean fraction of batch lanes carrying real requests."""
        state = self.arena_state
        if state.batches_executed == 0:
            return 0.0
        return state.occupancy_sum / state.batches_executed

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 request latency (seconds) over the bounded window."""
        from repro.runtime.profiler import percentiles

        state = self.arena_state
        with state.lock:
            window = list(state.latencies)
        return percentiles(window)

    def profile_report(self):
        """Per-step/per-request timing as an ``ExecutionProfile``."""
        from repro.runtime.profiler import (
            BatchStats,
            ExecutionProfile,
            StepTiming,
        )

        percentiles = self.latency_percentiles()
        state = self.arena_state
        pooled = state.pooled()
        with state.lock:
            steps = [
                StepTiming(
                    index=step.index,
                    name=step.name,
                    kind=step.kind,
                    calls=state.step_calls,
                    total_seconds=state.step_seconds[step.index],
                )
                for step in self.plan.steps
            ]
            batching = None
            if state.batches_executed:
                batching = BatchStats(
                    batches=state.batches_executed,
                    batched_requests=state.batched_requests,
                    mean_occupancy=(
                        state.occupancy_sum / state.batches_executed
                    ),
                )
            optimization = self.plan.optimization
            return ExecutionProfile(
                session_name=self.name,
                requests=state.request_count,
                total_seconds=state.request_seconds,
                workspace_bytes=self.plan.workspace_bytes,
                arenas_allocated=state.arenas_allocated,
                arenas_trimmed=state.arenas_trimmed,
                arenas_pooled=pooled,
                pool_high_water=state.pool_high_water,
                steps=steps,
                p50_us=percentiles["p50"] * 1e6,
                p95_us=percentiles["p95"] * 1e6,
                p99_us=percentiles["p99"] * 1e6,
                batching=batching,
                optimizer_summary=(
                    optimization.stats.summary()
                    if optimization is not None else None
                ),
            )

    def __repr__(self) -> str:
        return (
            f"<InferenceSession {self.name}: {self.plan.num_steps} steps, "
            f"{self.arena_state.request_count} requests served>"
        )
