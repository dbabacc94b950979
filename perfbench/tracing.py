"""Span recording around the program's public entry points.

The benchmark never edits the program: a :class:`Tracer` swaps a callable
on a module or class for a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts every original back. Spans stay in memory as
plain tuples and are written out once, at the end of a run.

A span is ``(id, name, start, end, parent)``. The parent is the innermost
open span on the calling thread; a call made on a pool thread with nothing
open there takes its parent from ``resolve_parent`` (the executor's steps
use this to hang parallel-wave steps under the ``execute`` span that
dispatched them). Spans of one request share the id of their root span.

Self time is a span's duration minus the union of its children's
intervals, so parallel children are not double-subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, int]  # id, name, start, end, parent

NO_PARENT = 0

# Requests (root spans) written to a trace file; the metrics use every span.
TRACE_FILE_ROOTS = 300


class Recorder:
    """In-memory span store; one per run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Extra attributes per span id (e.g. the step kind, a request id).
        self.tags: Dict[int, Dict[str, object]] = {}

    def stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(
        self,
        fn: Callable,
        name: str,
        resolve_parent: Optional[Callable[[], int]] = None,
        on_enter: Optional[Callable[[int, int, tuple], None]] = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``on_enter(span_id, parent_id, args)`` runs before ``fn``, on the
        calling thread; counts read there sit at the span's boundary.
        """
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        stack_of = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif resolve_parent is not None:
                parent = resolve_parent()
            else:
                parent = NO_PARENT
            sid = next(ids)
            if on_enter is not None:
                on_enter(sid, parent, args)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return wrapper

    def new_id(self) -> int:
        """A span id for a span the caller records later with ``record``."""
        return next(self._ids)

    def record(self, name: str, start: float, end: float,
               parent: int = NO_PARENT, sid: Optional[int] = None) -> int:
        """Add a span measured by the caller (e.g. send -> resolve)."""
        if sid is None:
            sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent))
        return sid

    # ---- analysis ---------------------------------------------------------

    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            kids[span[4]].append(span)
        return kids

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's time."""
        kids = self.children()
        result: Dict[int, float] = {}
        for sid, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for _, _, c_start, c_end, _ in sorted(
                kids.get(sid, ()), key=lambda s: s[2]
            ):
                lo = max(c_start, cursor)
                hi = min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[sid] = (end - start) - covered
        return result

    def roots(self) -> Dict[int, int]:
        """Span id -> id of its root span (the request it belongs to)."""
        parent = {s[0]: s[4] for s in self.spans}
        root: Dict[int, int] = {}
        for sid in parent:
            path = []
            node = sid
            while node in parent and parent[node] != NO_PARENT:
                if node in root:
                    break
                path.append(node)
                node = parent[node]
            top = root.get(node, node)
            for p in path:
                root[p] = top
            root[sid] = top
        return root

    def clear(self) -> None:
        self.spans.clear()
        self.tags.clear()

    def write_chrome_trace(self, path: str) -> None:
        """Write spans in Chrome trace-event format (opens in Perfetto).

        Only the spans of the first ``TRACE_FILE_ROOTS`` root spans are
        written, which keeps the file small.
        """
        if not self.spans:
            return
        roots = self.roots()
        kept = set(sorted(set(roots.values()))[:TRACE_FILE_ROOTS])
        spans = [s for s in self.spans if roots[s[0]] in kept]
        origin = min(s[2] for s in spans)
        events = []
        for sid, name, start, end, parent in spans:
            args = {"id": sid, "parent": parent, "request": roots[sid]}
            args.update(self.tags.get(sid, {}))
            events.append({
                "name": name, "ph": "X", "pid": 0, "tid": roots[sid] % 64,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": args,
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


class Tracer:
    """Installs and removes span wrappers on modules, classes and objects."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        resolve_parent: Optional[Callable[[], int]] = None,
        on_enter: Optional[Callable[[int, int, tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper (restored later).

        On a class, ``attr`` must be defined by that class itself (so the
        raw descriptor, not a bound method, is what gets wrapped).
        """
        raw = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        if isinstance(raw, classmethod):
            replacement = classmethod(self.recorder.traced(
                raw.__func__, name, resolve_parent, on_enter))
        else:
            replacement = self.recorder.traced(
                raw, name, resolve_parent, on_enter)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
