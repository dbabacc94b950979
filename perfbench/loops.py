"""Closed- and open-loop load generators.

Both cut the measured phase into :class:`~harness.Segment` objects with a
probe reading at every boundary, taken while nothing is in flight, so a
probe never overlaps a request. In a traced run, segments alternate between
untraced and traced (``set_traced`` is called at each boundary), which puts
both halves under the same host conditions and gives the tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence

from harness import Segment, probe

# Longest an open loop waits for one request's future.
RESULT_TIMEOUT_S = 60.0


class Op:
    """One closed-loop operation.

    ``prepare`` builds the request outside the timed region, ``run`` is the
    timed call into the program, ``check`` validates its output (untimed)
    and returns False for a wrong answer.
    """

    kind = ""
    key = ""  # ops with equal keys do the same work
    fixed_s = 0.0  # leading seconds of the op no probe tracks (inf: all)

    def prepare(self):
        return None

    def run(self, arg):
        raise NotImplementedError

    def check(self, out) -> bool:
        return True


@dataclass
class LoopResult:
    segments: List[Segment] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    errors: List[str] = field(default_factory=list)
    # Open loop only: send lateness (s) and the measured-phase duration.
    lateness: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0

    def untraced(self) -> List[Segment]:
        return [s for s in self.segments if not s.traced]

    def traced(self) -> List[Segment]:
        return [s for s in self.segments if s.traced]


def _note_error(result: LoopResult, exc: BaseException) -> None:
    if len(result.errors) < 5:
        result.errors.append(f"{type(exc).__name__}: {exc}")


def closed_loop(
    rounds: Iterable[Sequence[Op]],
    seconds: float,
    probe_kind: str,
    probe_every: int,
    set_traced: Optional[Callable[[bool], None]] = None,
    recorder=None,
) -> LoopResult:
    """Run whole rounds of ops back to back until ``seconds`` have passed.

    A run always ends on a round boundary, so every run measures the same
    op mix whatever the host speed. A probe reading is taken every
    ``probe_every`` ops. In traced segments each op runs under a root
    ``request`` span of ``recorder``, tagged with the op's kind and key and
    with where its sample sits (segment index, sample index); tracing is
    switched on and off between segments, never during an op.
    """
    result = LoopResult()
    clock = time.perf_counter
    traced = False
    segment = Segment(probe(probe_kind), clock())
    start = clock()
    for ops in rounds:
        for op in ops:
            if segment.ops == probe_every:
                segment.end = clock()
                segment.probe_after = probe(probe_kind)
                result.segments.append(segment)
                if set_traced is not None:
                    traced = not traced
                    set_traced(traced)
                segment = Segment(segment.probe_after, clock(), traced=traced)
            arg = op.prepare()
            run = op.run
            roots: List[int] = []
            if traced and recorder is not None:
                run = recorder.traced(
                    op.run, "request",
                    on_enter=lambda sid, _p, _a: roots.append(sid),
                )
            t0 = clock()
            try:
                out = run(arg)
                exc = None
            except Exception as err:  # noqa: BLE001 — a failed op
                out, exc = None, err
            t1 = clock()
            result.attempted += 1
            segment.ops += 1
            ok = exc is None and op.check(out)
            if exc is not None:
                _note_error(result, exc)
            if ok:
                segment.add(t1 - t0, (t0 + t1) / 2, op.key, op.fixed_s)
                segment.busy_s += t1 - t0
            else:
                result.failed += 1
            if roots:
                recorder.tags[roots[0]] = {
                    "kind": op.kind, "key": op.key, "ok": ok,
                    "segment": len(result.segments),
                    "sample": len(segment.latencies) - 1,
                    **getattr(op, "info", {})}
            # Free the output now: rebinding it in the next op's timed call
            # would charge that op for tearing this one's result down.
            del out
        result.rounds += 1
        if clock() - start >= seconds:
            break
    if set_traced is not None:
        set_traced(False)
    segment.end = clock()
    segment.probe_after = probe(probe_kind)
    result.segments.append(segment)
    result.elapsed_s = clock() - start
    return result


def _stamp(done: List[float], index: int, _future) -> None:
    done[index] = time.perf_counter()


@dataclass
class OpenSegmentPlan:
    """One segment's arrivals: offsets from the segment start and payloads."""

    offsets: List[float]
    payloads: List[object]
    picks: Sequence[int] = ()  # which input set each payload carries


def open_loop(
    plans: Iterable[OpenSegmentPlan],
    seconds: float,
    submit: Callable[[object], object],
    check: Callable[[OpenSegmentPlan, int, object], bool],
    probe_kind: str,
    fixed_s: float,
    set_traced: Optional[Callable[[bool], None]] = None,
    on_segment: Optional[Callable[[List[float], List[float]], None]] = None,
) -> LoopResult:
    """Send seeded arrivals on schedule, segment by segment.

    Each request is timed from its scheduled send time to the moment its
    future resolves (a done-callback stamps the clock in the resolving
    thread). After a segment's last send the loop waits for every future,
    checks the outputs, then takes the probe reading: the server is idle.
    ``check(plan, i, outputs)`` validates request ``i`` of the segment;
    ``on_segment(dues, done)`` then gets the segment's scheduled send times
    and completion stamps.
    The first ``fixed_s`` of each request's latency is kept as measured
    when the run is normalised (see :meth:`~harness.Segment.normalised`).
    """
    result = LoopResult()
    traced = False
    last_probe = probe(probe_kind)
    clock = time.perf_counter
    start = clock()
    for plan in plans:
        if set_traced is not None:
            set_traced(traced)
        segment = Segment(last_probe, clock(), traced=traced)
        n = len(plan.offsets)
        done = [0.0] * n
        futures = []
        dues = []
        seg_start = clock()
        for i in range(n):
            due = seg_start + plan.offsets[i]
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = clock()
            try:
                future = submit(plan.payloads[i])
            except Exception as err:  # noqa: BLE001 — refused at the door
                _note_error(result, err)
                future = None
            result.lateness.append(sent - due)
            dues.append(due)
            if future is not None:
                future.add_done_callback(partial(_stamp, done, i))
            futures.append(future)
        outputs = []
        for future in futures:
            if future is None:
                outputs.append(None)
                continue
            try:
                outputs.append(future.result(timeout=RESULT_TIMEOUT_S))
            except Exception as err:  # noqa: BLE001 — a failed request
                _note_error(result, err)
                outputs.append(None)
        # A future wakes its waiters before it runs its callbacks: wait for
        # the resolving thread to stamp every completion.
        deadline = clock() + RESULT_TIMEOUT_S
        while clock() < deadline and any(
            f is not None and d == 0.0 for f, d in zip(futures, done)
        ):
            time.sleep(0.0005)
        last_done = seg_start
        for i, out in enumerate(outputs):
            result.attempted += 1
            if out is not None and check(plan, i, out):
                segment.add(done[i] - dues[i], (done[i] + dues[i]) / 2,
                            fixed=fixed_s)
                last_done = max(last_done, done[i])
            else:
                result.failed += 1
        segment.busy_s = last_done - seg_start
        if set_traced is not None:
            set_traced(False)
        if on_segment is not None:
            on_segment(dues, done)
        segment.end = clock()
        segment.probe_after = last_probe = probe(probe_kind)
        result.segments.append(segment)
        result.rounds += 1
        if set_traced is not None:
            traced = not traced
        if clock() - start >= seconds:
            break
    result.elapsed_s = clock() - start
    return result
