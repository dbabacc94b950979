"""Cross-request dynamic batching: one request core for every server.

Souffle's premise is amortizing per-op overhead by globalizing work — one
kernel per subprogram, one arena per plan. The serving-path analogue is
amortizing per-*request* overhead: N concurrent requests replay the
execution plan once through a :class:`~repro.runtime.executor.
BatchedExecutionPlan` instead of N times through the scalar plan.

:class:`RequestCore` is the request path both servers share — the
in-process :class:`BatchingServer` below and the multi-process
:class:`~repro.runtime.sharding.ShardedServer` — each owning one:

* :meth:`RequestCore.submit` validates a request's feeds against the plan
  immediately (a malformed request fails fast at the door and can never
  poison a batch), then, under the lock :meth:`RequestCore.stop` takes,
  either refuses it or parks a future on an unbounded queue;
* a dispatcher thread drains the queue — the first waiting request opens
  a batch window that closes after ``max_queue_delay_ms`` or as soon as
  ``max_batch_size`` requests are aboard, whichever comes first — drops
  every member whose client cancelled it while queued, and hands the
  batch to its server;
* :meth:`RequestCore.serve` replays a batch through
  :meth:`InferenceSession.run_batch` (bucketed, padded, batch-1 falls back
  to the unbatched plan) and resolves each future with its own sliced
  outputs, bit-identical to an unbatched :meth:`InferenceSession.run` of
  the same feeds. If the batch replay fails, every member is retried
  unbatched so one request's failure surfaces only on its own future.

:meth:`RequestCore.stop` refuses new requests and returns once the
dispatcher has handed off everything accepted and its server reports no
work outstanding: every accepted request is served (or fails on its own
future); none are dropped, and a cancelled one is never run.

:class:`BatchingServer` is that core plus its hand-off: every batch goes
straight to one :class:`~repro.runtime.session.InferenceSession`.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.profiler import percentiles
from repro.runtime.session import (
    InferenceSession,
    PlanState,
    resolve_feeds_by_name,
)
from repro.te.tensor import Tensor

Feeds = Union[Mapping[Tensor, np.ndarray], Mapping[str, np.ndarray]]

# Samples kept for percentile reporting: queue wait (submit to batch
# formation) and latency (submit to resolve).
QUEUE_WAIT_WINDOW = 2048
LATENCY_WINDOW = 4096

# How often the idle dispatcher re-checks for shutdown.
_IDLE_POLL_S = 0.02


@dataclass
class Pending:
    """One queued request: resolved feeds, its future, and arrival time."""

    feeds: Mapping[Tensor, np.ndarray]
    future: "Future[List[np.ndarray]]"
    enqueued: float = field(default_factory=time.perf_counter)


class RequestCore:
    """Queue, batch window, dispatcher, drain and failure path of a server.

    The owning server supplies ``dispatch``, called on the dispatcher
    thread with every formed batch, and ``outstanding``, true while
    batches it was handed are unresolved; the dispatcher outlives
    :meth:`stop` until nothing is queued or outstanding, so work a server
    hands back with :meth:`requeue` is still served.
    """

    def __init__(
        self,
        name: str,
        dispatch: Callable[[List[Pending]], None],
        max_batch_size: int,
        max_queue_delay_ms: float,
        outstanding: Callable[[], bool] = lambda: False,
    ) -> None:
        if max_batch_size < 1:
            raise ExecutionError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_queue_delay_ms < 0:
            raise ExecutionError(
                f"max_queue_delay_ms must be >= 0, got {max_queue_delay_ms}"
            )
        self.name = name
        self.max_batch_size = max_batch_size
        self.max_queue_delay_ms = max_queue_delay_ms
        self._delay_s = max_queue_delay_ms / 1e3
        self._dispatch = dispatch
        self._outstanding = outstanding
        self._queue: "queue.Queue[Pending]" = queue.Queue()
        # Admission (submit/start/stop) and the dispatcher's bookkeeping
        # take separate locks, so a client never waits on a batch's.
        self._lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.requests_submitted = 0
        self.requests_completed = 0
        self.batches_dispatched = 0
        self._queue_waits: deque = deque(maxlen=QUEUE_WAIT_WINDOW)
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)

    # ---- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        """The dispatcher thread is alive (it outlives a stop() drain)."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def accepting(self) -> bool:
        """Started and not stopping: :meth:`submit` takes requests."""
        return self._thread is not None and not self._stopping.is_set()

    def start(self) -> None:
        """Spawn the dispatcher thread (idempotent while running)."""
        with self._lock:
            if self.running:
                return
            self._stopping.clear()
            self._thread = threading.Thread(
                target=self._dispatch_loop, name=self.name, daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Refuse new requests; return once every accepted one is served."""
        with self._lock:
            self._stopping.set()
            thread = self._thread
        if thread is not None:
            thread.join()

    # ---- admission -------------------------------------------------------

    def submit(
        self, feeds: Feeds, plan_state: PlanState
    ) -> "Future[List[np.ndarray]]":
        """Validate ``feeds`` against ``plan_state``, then queue them.

        Name-keyed feeds are resolved to the program's placeholders;
        tensor-keyed feeds are queued as given. Weights bound on the plan
        state may be left out. Shape and missing-placeholder errors raise
        here, synchronously, as does a server that is not running.
        """
        if feeds and all(isinstance(key, str) for key in feeds):
            feeds = resolve_feeds_by_name(plan_state.program, feeds)
        # Validate with the bound weights merged in exactly as run and
        # run_batch will: a bad request must fail at the door, not take a
        # whole batch down with it later.
        plan_state.plan.bind_feeds(plan_state.with_weights(feeds))
        pending = Pending(feeds, Future())
        # stop() sets the flag under this lock, so a request is either
        # refused here or queued before the dispatcher can see the flag.
        with self._lock:
            if not self.accepting:
                raise ExecutionError(
                    "server is not running; call start() "
                    "(or use it as a context manager)"
                )
            self._queue.put(pending)
            self.requests_submitted += 1
        return pending.future

    def requeue(self, pending: Pending) -> None:
        """Queue an accepted request again (its hand-off was lost)."""
        self._queue.put(pending)

    # ---- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            # Read before polling: once the flag is seen, every accepted
            # request is already queued, so an empty poll after it means
            # nothing is left but the server's own outstanding work.
            stopping = self._stopping.is_set()
            try:
                first = self._queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                if (
                    stopping
                    and not self._outstanding()
                    and self._queue.empty()
                ):
                    return
                continue
            batch = self._form(self._gather(first))
            if batch:
                self._dispatch(batch)

    def _gather(self, first: Pending) -> List[Pending]:
        """Fill a batch behind ``first`` under the size/delay policy."""
        batch = [first]
        deadline = first.enqueued + self._delay_s
        while len(batch) < self.max_batch_size:
            if self._stopping.is_set():
                # Shutting down: sweep what is already queued, don't wait.
                remaining = 0.0
            else:
                remaining = deadline - time.perf_counter()
            if remaining <= 0:
                try:
                    while len(batch) < self.max_batch_size:
                        batch.append(self._queue.get_nowait())
                except queue.Empty:
                    pass
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _form(self, batch: List[Pending]) -> List[Pending]:
        """Drop members cancelled while queued; mark the rest running.

        Once running, a late cancel() can no longer race the resolution.
        A requeued member is running already and passes straight through.
        """
        batch = [
            pending for pending in batch
            if pending.future.running()
            or pending.future.set_running_or_notify_cancel()
        ]
        if batch:
            formed = time.perf_counter()
            with self._metrics_lock:
                self.batches_dispatched += 1
                self._queue_waits.extend(
                    formed - pending.enqueued for pending in batch
                )
        return batch

    # ---- resolution ------------------------------------------------------

    def serve(self, batch: List[Pending], session: InferenceSession) -> None:
        """Resolve ``batch`` through ``session``: one batched replay, or,
        if that fails, each member alone so only a faulty request's
        future carries the exception."""
        try:
            outcomes = session.run_batch([pending.feeds for pending in batch])
        except Exception:  # noqa: BLE001 — isolated per request below
            outcomes = []
            for pending in batch:
                try:
                    outcomes.append(session.run(pending.feeds))
                except Exception as exc:  # noqa: BLE001 — forwarded
                    outcomes.append(exc)
        self.settle(batch, outcomes)

    def settle(self, batch: List[Pending], outcomes: Sequence) -> None:
        """Count ``batch`` served, then resolve each future with its
        outcome: an output list, or the exception its request raised."""
        settled = time.perf_counter()
        with self._metrics_lock:
            self.requests_completed += len(batch)
            self._latencies.extend(
                settled - pending.enqueued for pending in batch
            )
        for pending, outcome in zip(batch, outcomes):
            if isinstance(outcome, BaseException):
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)

    # ---- metrics ---------------------------------------------------------

    def queue_wait_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 queue wait (seconds) over the bounded window."""
        with self._metrics_lock:
            window = list(self._queue_waits)
        return percentiles(window)

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 submit->resolve latency (seconds, bounded window)."""
        with self._metrics_lock:
            window = list(self._latencies)
        return percentiles(window)


class CoreServer:
    """What a server built on a :class:`RequestCore` exposes of it.

    Subclasses set ``_core`` and define ``submit`` themselves; one with
    more to start or stop than the dispatcher overrides both.
    """

    _core: RequestCore

    @property
    def running(self) -> bool:
        return self._core.running

    @property
    def max_batch_size(self) -> int:
        return self._core.max_batch_size

    @property
    def max_queue_delay_ms(self) -> float:
        return self._core.max_queue_delay_ms

    @property
    def requests_submitted(self) -> int:
        return self._core.requests_submitted

    @property
    def requests_completed(self) -> int:
        return self._core.requests_completed

    @property
    def batches_dispatched(self) -> int:
        return self._core.batches_dispatched

    def queue_wait_percentiles(self) -> Dict[str, float]:
        return self._core.queue_wait_percentiles()

    def latency_percentiles(self) -> Dict[str, float]:
        return self._core.latency_percentiles()

    def start(self):
        """Spawn the dispatcher thread (idempotent while running)."""
        self._core.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, serve everything accepted, return."""
        self._core.stop()

    def run(self, feeds: Feeds, timeout: Optional[float] = None):
        """Synchronous convenience: submit and wait for the outputs."""
        return self.submit(feeds).result(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class BatchingServer(CoreServer):
    """Queue-and-dispatch dynamic batching over one inference session."""

    def __init__(
        self,
        session: InferenceSession,
        max_batch_size: int = 8,
        max_queue_delay_ms: float = 2.0,
    ) -> None:
        self.session = session
        # The hand-off is looked up per batch, so a wrapper installed on
        # the class after construction (tracing) sees every batch.
        self._core = RequestCore(
            f"batching-{session.name}",
            lambda batch: self._dispatch(batch),
            max_batch_size,
            max_queue_delay_ms,
        )

    def submit(self, feeds: Feeds) -> "Future[List[np.ndarray]]":
        """Queue one request; the future resolves with its output list.

        Feeds may be keyed by placeholder tensor or by name; weights the
        session has bound (``plan_state.bind_weights``) may be left out.
        Shape and missing-placeholder errors raise here, synchronously.
        """
        return self._core.submit(feeds, self.session.plan_state)

    def _dispatch(self, batch: List[Pending]) -> None:
        self._core.serve(batch, self.session)

    # ---- metrics ---------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        if self.batches_dispatched == 0:
            return 0.0
        return self.requests_completed / self.batches_dispatched

    def profile_report(self):
        """The session's profile with server-side batching stats merged."""
        from repro.runtime.profiler import BatchStats

        report = self.session.profile_report()
        stats = report.batching
        if stats is None:
            stats = BatchStats(
                batches=self.batches_dispatched,
                batched_requests=self.requests_completed,
                mean_occupancy=self.session.mean_batch_occupancy,
            )
        waits = self.queue_wait_percentiles()
        stats.queue_wait_p50_us = waits["p50"] * 1e6
        stats.queue_wait_p95_us = waits["p95"] * 1e6
        stats.queue_wait_p99_us = waits["p99"] * 1e6
        report.batching = stats
        return report

    def __repr__(self) -> str:
        return (
            f"<BatchingServer {self.session.name}: "
            f"max_batch={self.max_batch_size}, "
            f"delay={self.max_queue_delay_ms}ms, "
            f"{self.requests_completed} served>"
        )
