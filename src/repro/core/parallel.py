"""Worker-pool abstraction for independent per-subprogram compile work.

Subprograms are independent once partitioned, so their scheduling and kernel
construction can proceed concurrently. The pool guarantees:

* **deterministic ordering** — results come back in submission order, never
  completion order, so the kernel list (and everything derived from it) is
  identical to a serial build;
* **serial fallback** — any worker failure aborts the parallel attempt and
  re-runs the whole batch serially, so a threading issue can only cost time,
  never correctness (tasks must therefore be idempotent, which schedule
  memoisation and keyed cache writes are);
* **no pool for trivial batches** — one item or one worker short-circuits
  to a plain loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # honours container CPU limits
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


class WorkerPool:
    """Maps a function over items with deterministic result ordering.

    ``max_workers=None`` auto-sizes to the machine; ``0``/``1`` force serial
    execution. After :meth:`map`, ``used_workers`` and ``fell_back`` report
    what actually happened (for :class:`repro.runtime.module.CompileStats`).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
        self.max_workers = max_workers
        self.used_workers = 1
        self.fell_back = False

    def _resolve_workers(self, num_items: int) -> int:
        workers = self.max_workers
        if workers is None:
            workers = default_worker_count()
        return max(1, min(workers, num_items)) if num_items else 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """``[fn(item) for item in items]``, possibly concurrently."""
        items = list(items)
        workers = self._resolve_workers(len(items))
        self.used_workers = workers
        self.fell_back = False
        if workers <= 1 or len(items) <= 1:
            self.used_workers = 1
            return [fn(item) for item in items]
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(fn, item) for item in items]
                # Collect in submission order; any failure propagates here.
                return [future.result() for future in futures]
        except Exception:
            # Degrade, never break: one full serial re-run. If the failure
            # was not concurrency-related the serial pass raises it cleanly.
            self.fell_back = True
            self.used_workers = 1
            return [fn(item) for item in items]
