"""Cross-request dynamic batching: queue, dispatcher thread, futures.

Souffle's premise is amortizing per-op overhead by globalizing work — one
kernel per subprogram, one arena per plan. The serving-path analogue is
amortizing per-*request* overhead: N concurrent requests replay the
execution plan once through a :class:`~repro.runtime.executor.
BatchedExecutionPlan` instead of N times through the scalar plan.

:class:`BatchingServer` implements the standard dynamic-batching policy on
top of an :class:`~repro.runtime.session.InferenceSession`:

* :meth:`submit` validates a request's feeds immediately (a malformed
  request fails fast at the door and can never poison a batch) and parks a
  future on an unbounded queue;
* a dispatcher thread drains the queue — the first waiting request opens a
  batch window that closes after ``max_queue_delay_ms`` or as soon as
  ``max_batch_size`` requests are aboard, whichever comes first — and
  replays the whole group through :meth:`InferenceSession.run_batch`
  (bucketed, padded, batch-1 falls back to the unbatched plan);
* each future resolves with its own sliced outputs, bit-identical to an
  unbatched :meth:`InferenceSession.run` of the same feeds. If a batch
  replay fails, every member request is retried unbatched so one request's
  failure surfaces only on its own future.

:meth:`stop` drains the queue before returning: every accepted request is
served (or fails on its own future); none are dropped. A request whose
future the client cancelled while it was queued is skipped, never run.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from concurrent.futures import Future

from repro.errors import ExecutionError
from repro.runtime.profiler import percentiles
from repro.runtime.session import InferenceSession, resolve_feeds_by_name
from repro.te.tensor import Tensor

Feeds = Union[Mapping[Tensor, np.ndarray], Mapping[str, np.ndarray]]

# Queue-wait samples kept for percentile reporting.
QUEUE_WAIT_WINDOW = 2048

# How often the idle dispatcher re-checks for shutdown.
_IDLE_POLL_S = 0.02


@dataclass
class _Pending:
    """One queued request: resolved feeds, its future, and arrival time."""

    feeds: Mapping[Tensor, np.ndarray]
    future: "Future[List[np.ndarray]]"
    enqueued: float = field(default_factory=time.perf_counter)


class BatchingServer:
    """Queue-and-dispatch dynamic batching over one inference session."""

    def __init__(
        self,
        session: InferenceSession,
        max_batch_size: int = 8,
        max_queue_delay_ms: float = 2.0,
    ) -> None:
        if max_batch_size < 1:
            raise ExecutionError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_queue_delay_ms < 0:
            raise ExecutionError(
                f"max_queue_delay_ms must be >= 0, got {max_queue_delay_ms}"
            )
        self.session = session
        self.max_batch_size = max_batch_size
        self.max_queue_delay_ms = max_queue_delay_ms
        self._delay_s = max_queue_delay_ms / 1e3
        self._queue: "queue.Queue[_Pending]" = queue.Queue()
        self._state_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.requests_submitted = 0
        self.requests_completed = 0
        self.batches_dispatched = 0
        self._queue_waits: deque = deque(maxlen=QUEUE_WAIT_WINDOW)

    # ---- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "BatchingServer":
        """Spawn the dispatcher thread (idempotent while running)."""
        with self._state_lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stopping.clear()
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"batching-{self.session.name}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, serve everything queued, then return."""
        with self._state_lock:
            self._stopping.set()
            thread = self._thread
        if thread is not None:
            thread.join()
        # A submit racing the shutdown may have enqueued after the
        # dispatcher's final empty poll; serve any stragglers here so no
        # accepted request is ever dropped.
        self._drain_now()

    def __enter__(self) -> "BatchingServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ---- request entry ---------------------------------------------------

    def submit(self, feeds: Feeds) -> "Future[List[np.ndarray]]":
        """Queue one request; the future resolves with its output list.

        Feeds may be keyed by placeholder tensor or by name; weights the
        session has bound (``plan_state.bind_weights``) may be left out.
        Shape and missing-placeholder errors raise here, synchronously.
        """
        resolved = self._resolve(feeds)
        # Validate now, with the session's weights merged in exactly as
        # run/run_batch will: a bad request must fail at the door, not
        # take a whole batch down with it later.
        self.session.plan.bind_feeds(
            self.session.plan_state.with_weights(resolved)
        )
        pending = _Pending(resolved, Future())
        with self._state_lock:
            if self._stopping.is_set() or self._thread is None:
                raise ExecutionError(
                    "BatchingServer is not running; call start() "
                    "(or use it as a context manager)"
                )
            self._queue.put(pending)
        with self._metrics_lock:
            self.requests_submitted += 1
        return pending.future

    def run(self, feeds: Feeds, timeout: Optional[float] = None):
        """Synchronous convenience: submit and wait for the outputs."""
        return self.submit(feeds).result(timeout)

    def _resolve(self, feeds: Feeds) -> Mapping[Tensor, np.ndarray]:
        if feeds and all(isinstance(key, str) for key in feeds):
            return resolve_feeds_by_name(self.session.plan.program, feeds)
        return feeds  # type: ignore[return-value]

    # ---- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            self._execute(self._gather(first))

    def _gather(self, first: _Pending) -> List[_Pending]:
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

    def _execute(self, batch: List[_Pending]) -> None:
        # A request its client cancelled while queued is dropped here; the
        # rest are marked running, so a late cancel() can no longer race
        # the set_result below.
        batch = [
            pending for pending in batch
            if pending.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        dispatched = time.perf_counter()
        waits = [dispatched - pending.enqueued for pending in batch]
        try:
            results = self.session.run_batch(
                [pending.feeds for pending in batch]
            )
        except Exception:
            # Isolate the failure: replay each member unbatched so only
            # the faulty request's future carries the exception.
            results = None
        if results is not None:
            for pending, outputs in zip(batch, results):
                pending.future.set_result(outputs)
        else:
            for pending in batch:
                try:
                    pending.future.set_result(self.session.run(pending.feeds))
                except Exception as exc:  # noqa: BLE001 — forwarded
                    pending.future.set_exception(exc)
        with self._metrics_lock:
            self.batches_dispatched += 1
            self.requests_completed += len(batch)
            self._queue_waits.extend(waits)

    def _drain_now(self) -> None:
        """Serve whatever is still queued, one sweep at a time."""
        while True:
            batch: List[_Pending] = []
            try:
                while len(batch) < self.max_batch_size:
                    batch.append(self._queue.get_nowait())
            except queue.Empty:
                pass
            if not batch:
                return
            self._execute(batch)

    # ---- metrics ---------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        with self._metrics_lock:
            if self.batches_dispatched == 0:
                return 0.0
            return self.requests_completed / self.batches_dispatched

    def queue_wait_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 queue wait (seconds) over the bounded window."""
        with self._metrics_lock:
            window = list(self._queue_waits)
        return percentiles(window)

    def profile_report(self):
        """The session's profile with server-side batching stats merged."""
        from repro.runtime.profiler import BatchStats

        report = self.session.profile_report()
        stats = report.batching
        if stats is None:
            with self._metrics_lock:
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
