"""Mega-step execution: the plan as one persistent task graph.

Replaying a plan's independent steps level by level would pay a
worker-pool dispatch *and a barrier* after every dependency level; deep
models chain hundreds of small levels per request. MPK's observation
(PAPERS.md) is that this dispatch overhead disappears once the whole
program becomes a single persistent task graph with an internal scheduler
— the per-request path collapses to "reset counters, bind feeds, kick root
tasks, wait on sinks". An optimized plan replays through its task graph
when the plan optimizer's replay rule finds parallel work
(:func:`repro.runtime.plan_opt.apply_replay_rule`); every other plan
replays as a flat serial step loop and builds its graph only on demand.

This module is that analogue for the numpy execution engine:

* :func:`build_task_graph` compiles an :class:`~repro.runtime.executor.
  ExecutionPlan` (optimized or not, batched or not) into an immutable
  dependency table at plan time: per-task predecessor counts, successor
  lists, and **byte-conflict edges** — WAR/WAW orderings derived from the
  :class:`~repro.runtime.memory_planner.MemoryPlan` wherever two steps
  touch overlapping arena bytes without a data dependency (buffer reuse
  across time, in-place elision). Tasks are tagged compute- vs
  memory-intensive via the paper's Sec. 5.3 characterisation so the
  scheduler can bias worker affinity.
* The table is *certified* before first use: the verifier's extended
  arena-hazard pass (:func:`repro.verify.hazards.check_schedule_cover`)
  statically proves every byte-conflicting step pair is ordered by the
  dependency table, raising :class:`~repro.errors.PlanningError`
  otherwise. A concurrent executor that silently corrupts arenas is
  exactly the bug class this repo's verifier exists for.
* :class:`GraphExecutor` runs one request: copy the predecessor-count
  template, push the roots, and let workers pull ready tasks from shared
  deques with **no per-level barriers**. A worker finishing a task runs a
  newly-enabled successor inline (chain continuation), so a dependency
  chain stays on one thread with zero handoffs — the LSTM case.

Correctness is testable, not hoped for: the executor takes an injectable
scheduler policy. :class:`ScriptedScheduler` executes any caller-chosen
topological order deterministically and :class:`AdversarialScheduler`
always picks the most-recently-enabled task, which turns "is every legal
interleaving bit-identical?" into an enumerable property (the serial
replay of the same plan stays available as the differential oracle via
:meth:`ExecutionPlan.execute_serial`).
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.characterize import characterize_program
from repro.core.parallel import default_worker_count
from repro.errors import ExecutionError, PlanningError

# Worker-affinity tags (paper Sec. 5.3 characterisation).
TAG_COMPUTE = "compute"
TAG_MEMORY = "memory"

# One process-wide helper pool shared by every graph executor, created on
# first use: task work is GIL-releasing numpy, so a single bounded thread
# set serves all concurrent sessions without per-request thread churn.
_HELPER_POOL: Optional[ThreadPoolExecutor] = None
_HELPER_POOL_LOCK = threading.Lock()


def _submit_helper(fn, *args):
    """Fire one helper worker on the shared pool (``None`` if serial).

    Helpers are best-effort: a single-CPU box or a shut-down pool simply
    returns ``None`` and the caller keeps the work on its own thread.
    Correctness never depends on a submission landing.
    """
    global _HELPER_POOL
    workers = default_worker_count()
    if workers <= 1:
        return None
    with _HELPER_POOL_LOCK:
        if _HELPER_POOL is None:
            _HELPER_POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-task"
            )
        pool = _HELPER_POOL
    try:
        return pool.submit(fn, *args)
    except RuntimeError:
        return None


@dataclass(frozen=True)
class TaskGraphStats:
    """Static shape of one compiled task graph (``repro plan-stats``)."""

    tasks: int
    data_edges: int
    conflict_edges: int
    roots: int
    sinks: int
    critical_path: int      # longest dependency chain, in tasks
    max_ready_width: int    # widest dependency level (peak parallelism)
    compute_tasks: int
    memory_tasks: int

    def render(self) -> str:
        return "\n".join([
            f"tasks:             {self.tasks} "
            f"({self.compute_tasks} compute-intensive, "
            f"{self.memory_tasks} memory-intensive)",
            f"edges:             {self.data_edges} data + "
            f"{self.conflict_edges} byte-conflict",
            f"roots/sinks:       {self.roots} / {self.sinks}",
            f"critical path:     {self.critical_path} tasks",
            f"max ready-width:   {self.max_ready_width}",
        ])


class Task:
    """One schedulable unit: a plan step plus its static scheduling tag."""

    __slots__ = ("position", "name", "kind", "tag", "step")

    def __init__(self, position: int, name: str, kind: str, tag: str,
                 step) -> None:
        self.position = position
        self.name = name
        self.kind = kind
        self.tag = tag
        self.step = step  # PlanStep; None in structure-only (stats) graphs

    def __repr__(self) -> str:
        return f"<Task#{self.position} {self.name} [{self.kind}/{self.tag}]>"


class TaskGraph:
    """Immutable dependency table over one execution plan's steps.

    ``successors[i]`` lists the positions that must wait for task ``i``;
    ``pred_template[i]`` is the number of predecessors of task ``i`` — the
    per-request counters start as a copy of this template ("reset
    counters" is one list copy). ``view``/``memory_plan`` are kept so the
    hazard-cover certification can be re-run (:meth:`verify_cover`).
    """

    def __init__(
        self,
        tasks: List[Task],
        successors: List[Tuple[int, ...]],
        pred_template: List[int],
        stats: TaskGraphStats,
        view,
        memory_plan,
    ) -> None:
        self.tasks = tasks
        self.successors = successors
        self.pred_template = pred_template
        self.stats = stats
        self.view = view
        self.memory_plan = memory_plan
        self.roots: Tuple[int, ...] = tuple(
            i for i, n in enumerate(pred_template) if n == 0
        )
        self.sinks: Tuple[int, ...] = tuple(
            i for i, s in enumerate(successors) if not s
        )

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def levels(self) -> List[int]:
        """Dependency level per task (roots are level 0)."""
        return _dependency_levels(self.successors)

    def verify_cover(self):
        """Re-run the hazard-cover certification; returns diagnostics.

        The static proof that this dependency table orders every WAR/WAW
        byte-conflicting step pair the memory plan knows about. Mutation
        tests drive this directly after seeding scheduler defects.
        """
        from repro.verify.hazards import check_schedule_cover

        return check_schedule_cover(self.view, self.memory_plan,
                                    self.successors)

    def __repr__(self) -> str:
        return (
            f"<TaskGraph {len(self.tasks)} tasks, "
            f"{self.stats.data_edges}+{self.stats.conflict_edges} edges, "
            f"critical path {self.stats.critical_path}>"
        )


# ---- construction -----------------------------------------------------------


def _group_entries(groups):
    """(name, output tensor, external reads, member nodes) per step group."""
    return [
        (g.name, g.terminal.tensor, list(g.reads), list(g.members))
        for g in groups
    ]


def _plan_entries(plan):
    """Task entries per step, plus the verifier view the positions are
    expressed over."""
    opt = plan.optimization
    if opt is not None:
        return _group_entries(opt.groups), opt.step_view
    entries = [
        (n.name, n.tensor, list(n.inputs), [n])
        for n in plan.program.nodes
    ]
    return entries, plan.program


def _build_structure(
    entries, memory_plan
) -> Tuple[List[Tuple[int, ...]], List[int], int, int]:
    """Dependency table construction: data edges + byte-conflict edges.

    Data edges connect a producer position to every position reading its
    tensor. Conflict edges serialize, in serial-replay order, every pair
    of positions that touch overlapping arena byte ranges through
    *different* tensors — the buffer-reuse WAR/WAW pairs that a barrier
    between levels would otherwise order. Readers of the same bytes never
    conflict with each other.
    """
    n = len(entries)
    # A tensor may have several writers: a tiled chain's blocks (see
    # runtime.tiling) each write one disjoint row slice of the chain
    # terminal. Every reader gets a data edge from *all* of them; sibling
    # blocks never pair with each other (disjoint bytes by construction).
    producer: Dict[int, List[int]] = {}
    for pos, (_, t, _, _) in enumerate(entries):
        producer.setdefault(id(t), []).append(pos)
    readers: Dict[int, List[int]] = {}
    succ: List[Set[int]] = [set() for _ in range(n)]
    data_pairs: Set[Tuple[int, int]] = set()

    for j, (_, _, reads, _) in enumerate(entries):
        for t in reads:
            readers.setdefault(id(t), []).append(j)
            for i in producer.get(id(t), ()):
                if i == j:
                    continue
                if i > j:
                    raise PlanningError(
                        "task graph construction requires steps in "
                        f"topological order (position {j} reads "
                        f"position {i})"
                    )
                succ[i].add(j)
                data_pairs.add((i, j))
    data_edges = len(data_pairs)

    conflict_pairs: Set[Tuple[int, int]] = set()

    def order_pair(a: int, b: int) -> None:
        if a == b:
            return
        pair = (a, b) if a < b else (b, a)
        if pair in data_pairs or pair in conflict_pairs:
            return
        conflict_pairs.add(pair)
        succ[pair[0]].add(pair[1])

    # Sorted interval sweep over arena assignments: only tensors whose
    # byte ranges overlap can race, and packing reuses few offsets, so the
    # candidate pair set stays near-linear in practice.
    intervals = sorted(
        (
            (a.offset, a.offset + a.nbytes, id(t))
            for t, a in memory_plan.assignments.items()
        ),
        key=lambda item: item[:2],
    )
    active: List[Tuple[int, int]] = []  # (end, tensor id)
    for start, end, t_key in intervals:
        active = [item for item in active if item[0] > start]
        wts = producer.get(t_key, ())
        for _, u_key in active:
            wus = producer.get(u_key, ())
            for wt in wts:
                for wu in wus:
                    order_pair(wt, wu)                  # WAW
                for r in readers.get(u_key, ()):        # t's write vs u reads
                    order_pair(wt, r)
            for wu in wus:
                for r in readers.get(t_key, ()):        # u's write vs t reads
                    order_pair(wu, r)
        active.append((end, t_key))

    # Transitive reduction over the conflict edges: arena reuse in serial
    # replay order makes nearly every step pair byte-conflict, but most of
    # those orderings are already implied by paths through other edges.
    # Dropping the implied ones keeps per-task successor lists (and the
    # per-completion counter work) near-linear; reachability — what the
    # hazard-cover certification checks — is unchanged. Data edges stay
    # verbatim: they are sparse and name real value flow.
    desc = [0] * n
    for i in range(n - 1, -1, -1):
        mask = 1 << i
        for j in succ[i]:
            mask |= desc[j]
        desc[i] = mask
    kept_conflicts = 0
    for i, k in sorted(conflict_pairs):
        implied = any(
            j != k and (desc[j] >> k) & 1 for j in succ[i]
        )
        if implied:
            succ[i].discard(k)
        else:
            kept_conflicts += 1

    preds = [0] * n
    for i, out in enumerate(succ):
        for j in out:
            preds[j] += 1
    successors = [tuple(sorted(out)) for out in succ]
    return successors, preds, data_edges, kept_conflicts


def _dependency_levels(successors: Sequence[Tuple[int, ...]]) -> List[int]:
    """Per-task level: 0 for roots, else one past the deepest predecessor.

    Edges always point forward (construction enforces topological
    positions), so one forward sweep settles every level.
    """
    level = [0] * len(successors)
    for i, out in enumerate(successors):
        for j in out:
            if level[i] + 1 > level[j]:
                level[j] = level[i] + 1
    return level


def _level_stats(successors: Sequence[Tuple[int, ...]]) -> Tuple[int, int]:
    """(critical path in tasks, max dependency-level width)."""
    level = _dependency_levels(successors)
    if not level:
        return 0, 0
    widths: Dict[int, int] = {}
    for lv in level:
        widths[lv] = widths.get(lv, 0) + 1
    return max(level) + 1, max(widths.values())


def _tag_entries(program, entries) -> List[str]:
    """Compute/memory affinity tag per position (Sec. 5.3)."""
    chars = characterize_program(program)
    tags = []
    for _, _, _, members in entries:
        compute = any(
            chars[m].is_compute_intensive for m in members if m in chars
        )
        tags.append(TAG_COMPUTE if compute else TAG_MEMORY)
    return tags


def _assemble(program, entries, view, memory_plan, steps) -> TaskGraph:
    successors, preds, data_edges, conflict_edges = _build_structure(
        entries, memory_plan
    )
    critical, width = _level_stats(successors)
    tags = _tag_entries(program, entries)
    tasks = []
    for pos, (name, _, _, _) in enumerate(entries):
        step = steps[pos] if steps is not None else None
        kind = step.kind if step is not None else "static"
        tasks.append(Task(pos, name, kind, tags[pos], step))
    stats = TaskGraphStats(
        tasks=len(tasks),
        data_edges=data_edges,
        conflict_edges=conflict_edges,
        roots=sum(1 for p in preds if p == 0),
        sinks=sum(1 for s in successors if not s),
        critical_path=critical,
        max_ready_width=width,
        compute_tasks=sum(1 for t in tags if t == TAG_COMPUTE),
        memory_tasks=sum(1 for t in tags if t == TAG_MEMORY),
    )
    graph = TaskGraph(tasks, successors, preds, stats, view, memory_plan)

    from repro.verify import Severity
    from repro.verify.hazards import check_schedule_cover

    diags = check_schedule_cover(view, memory_plan, graph.successors)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        raise PlanningError(
            "task-graph dependency table fails hazard-cover "
            "certification:\n" + "\n".join(d.render() for d in errors)
        )
    return graph


def build_task_graph(plan) -> TaskGraph:
    """Compile one execution plan's steps into a certified task graph."""
    entries, view = _plan_entries(plan)
    if len(entries) != len(plan.steps):
        raise PlanningError(
            f"plan has {len(plan.steps)} steps but {len(entries)} "
            "task entries; optimizer state is inconsistent"
        )
    return _assemble(plan.program, entries, view, plan.memory_plan,
                     plan.steps)


def optimization_task_graph(opt) -> TaskGraph:
    """Certified structure-only task graph over a static optimizer result.

    ``opt`` is a :class:`~repro.runtime.plan_opt.PlanOptimization`. No
    executable steps are built, so it also covers paper-scale programs
    (``repro plan-stats --scale paper``), whose grids exceed the functional
    executor's limits; tiling is already applied, so ready-width is
    reported over the *post-tiling* step list.
    """
    return _assemble(opt.program, _group_entries(opt.groups), opt.step_view,
                     opt.memory_plan, None)


# ---- scheduler policies -----------------------------------------------------


class SchedulerPolicy:
    """How the executor picks the next ready task.

    Serial policies implement :meth:`select` over the executor-maintained
    ready list (tasks append in the order they become ready); the threaded
    production policy is a marker class the executor special-cases.
    """

    threaded = False

    def reset(self) -> None:
        """Called once per request before any task runs."""

    def select(self, ready: List[int]) -> int:
        """Remove and return the position of the next task to run."""
        raise NotImplementedError


class FifoScheduler(SchedulerPolicy):
    """Deterministic serial replay in first-enabled order (Kahn order)."""

    def select(self, ready: List[int]) -> int:
        return ready.pop(0)


class AdversarialScheduler(SchedulerPolicy):
    """Always runs the most-recently-enabled ready task.

    The depth-first adversary: it maximally reorders independent work
    relative to serial replay, so a missing dependency edge shows up as a
    differential mismatch instead of surviving under friendly FIFO orders.
    """

    def select(self, ready: List[int]) -> int:
        return ready.pop()


class ScriptedScheduler(SchedulerPolicy):
    """Executes a caller-chosen topological order, deterministically.

    The testing workhorse: any legal interleaving of the task graph can be
    replayed exactly, which turns scheduler correctness into an enumerable
    property. An order that is not a legal topological order of the graph
    raises :class:`~repro.errors.ExecutionError` at the first violation.
    Single-threaded use only (the cursor is per-instance state).
    """

    def __init__(self, order: Sequence[int]) -> None:
        self.order = list(order)
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(self, ready: List[int]) -> int:
        if self._cursor >= len(self.order):
            raise ExecutionError(
                "scripted order exhausted with ready tasks remaining "
                f"({sorted(ready)}); the script must cover every task"
            )
        pos = self.order[self._cursor]
        self._cursor += 1
        try:
            ready.remove(pos)
        except ValueError:
            raise ExecutionError(
                f"scripted order runs task {pos} before its predecessors "
                "completed; not a topological order of this task graph"
            ) from None
        return pos


class ThreadedScheduler(SchedulerPolicy):
    """The production policy: workers pull from shared ready deques.

    Workers alternate compute/memory affinity — each prefers tasks whose
    Sec. 5.3 tag matches its own, falling back to any ready task — and a
    worker finishing a task runs one newly-enabled successor inline, so
    dependency chains never pay a handoff. ``max_workers`` bounds the
    crew; the graph's ``max_ready_width`` bounds it further (threads
    beyond the widest level could never be busy).
    """

    threaded = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExecutionError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers

    def resolve_workers(self, graph: TaskGraph) -> int:
        workers = self.max_workers
        if workers is None:
            workers = default_worker_count()
        return max(1, min(workers, graph.stats.max_ready_width))


# ---- per-request run state --------------------------------------------------


class _RunState:
    """Mutable scheduler state for one request (threaded mode)."""

    __slots__ = (
        "values", "counters", "cond", "ready_compute", "ready_memory",
        "remaining", "error", "busy_seconds", "run_seconds",
        "queue_seconds", "enabled_at",
    )

    def __init__(self, values, graph: TaskGraph, timing: bool) -> None:
        self.values = values
        self.counters = list(graph.pred_template)
        self.cond = threading.Condition()
        self.ready_compute: deque = deque()
        self.ready_memory: deque = deque()
        self.remaining = len(graph.tasks)
        self.error: Optional[BaseException] = None
        self.busy_seconds = 0.0
        n = len(graph.tasks)
        self.run_seconds = [0.0] * n if timing else None
        self.queue_seconds = [0.0] * n if timing else None
        self.enabled_at = [0.0] * n if timing else None


class GraphExecutor:
    """Executes one task graph per request, under an injectable policy.

    The executor itself is immutable apart from metrics accumulators; all
    per-request state lives in a :class:`_RunState`, so one executor (one
    plan) safely serves concurrent sessions. Metrics: request/task counts,
    busy vs wall seconds (scheduler occupancy), and — when profiling —
    per-task queue-wait and run time.
    """

    def __init__(
        self,
        graph: TaskGraph,
        scheduler: Optional[SchedulerPolicy] = None,
    ) -> None:
        self.graph = graph
        self.scheduler = scheduler or ThreadedScheduler()
        self._metrics_lock = threading.Lock()
        self.requests = 0
        self.tasks_executed = 0
        self.busy_seconds = 0.0
        self.wall_seconds = 0.0
        self.worker_seconds = 0.0
        self.workers_used = 1
        n = len(graph.tasks)
        self.step_run_seconds = [0.0] * n
        self.step_queue_seconds = [0.0] * n

    # ---- entry -----------------------------------------------------------

    def run(
        self,
        values,
        scheduler: Optional[SchedulerPolicy] = None,
        step_seconds: Optional[List[float]] = None,
    ) -> None:
        """One request: reset counters, kick roots, wait on sinks."""
        policy = scheduler if scheduler is not None else self.scheduler
        timing = step_seconds is not None
        start = perf_counter()
        if policy.threaded:
            workers = policy.resolve_workers(self.graph)
            if workers > 1 and len(self.graph.tasks) > 1:
                state = self._run_threaded(values, workers, timing)
            else:
                workers = 1
                state = self._run_serial(values, FifoScheduler(), timing)
        else:
            workers = 1
            state = self._run_serial(values, policy, timing)
        wall = perf_counter() - start
        with self._metrics_lock:
            self.requests += 1
            self.tasks_executed += len(self.graph.tasks)
            self.busy_seconds += state.busy_seconds
            self.wall_seconds += wall
            self.worker_seconds += wall * workers
            self.workers_used = workers
            if timing:
                for i, s in enumerate(state.run_seconds):
                    self.step_run_seconds[i] += s
                    step_seconds[i] += s
                for i, s in enumerate(state.queue_seconds):
                    self.step_queue_seconds[i] += s

    @property
    def occupancy(self) -> float:
        """Fraction of scheduled worker time spent inside task closures."""
        if self.worker_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / self.worker_seconds

    # ---- serial (policy-driven) mode -------------------------------------

    def _run_serial(self, values, policy: SchedulerPolicy,
                    timing: bool) -> _RunState:
        graph = self.graph
        state = _RunState(values, graph, timing)
        policy.reset()
        now = perf_counter()
        if timing:
            for r in graph.roots:
                state.enabled_at[r] = now
        ready = list(graph.roots)
        counters = state.counters
        executed = 0
        while ready:
            pos = policy.select(ready)
            start = perf_counter()
            graph.tasks[pos].step.run(values)
            elapsed = perf_counter() - start
            state.busy_seconds += elapsed
            if timing:
                state.run_seconds[pos] += elapsed
                state.queue_seconds[pos] += start - state.enabled_at[pos]
            executed += 1
            enabled = perf_counter() if timing else 0.0
            for s in graph.successors[pos]:
                counters[s] -= 1
                if counters[s] == 0:
                    ready.append(s)
                    if timing:
                        state.enabled_at[s] = enabled
                elif counters[s] < 0:
                    raise ExecutionError(
                        f"task {graph.tasks[s].name} completed a "
                        "predecessor it never counted: the dependency "
                        "table's counters are corrupt (premature "
                        "decrement)"
                    )
        if executed != len(graph.tasks):
            stalled = [
                graph.tasks[i].name
                for i, c in enumerate(counters) if c > 0
            ]
            raise ExecutionError(
                f"task graph stalled with {len(graph.tasks) - executed} "
                f"tasks never enabled (first: {stalled[:3]}); a successor "
                "edge is missing from the dependency table"
            )
        return state

    # ---- threaded (production) mode --------------------------------------

    def _run_threaded(self, values, workers: int, timing: bool) -> _RunState:
        graph = self.graph
        state = _RunState(values, graph, timing)
        if timing:
            now = perf_counter()
            for r in graph.roots:
                state.enabled_at[r] = now
        for r in graph.roots:
            if graph.tasks[r].tag == TAG_COMPUTE:
                state.ready_compute.append(r)
            else:
                state.ready_memory.append(r)
        # Helper workers come from the shared helper pool; the calling
        # thread always participates, so a saturated (or serial-fallback)
        # pool degrades throughput, never correctness.
        for index in range(1, workers):
            if _submit_helper(self._worker_loop, state, index) is None:
                break
        self._worker_loop(state, 0)
        if state.error is not None:
            raise state.error
        if any(c > 0 for c in state.counters):
            stalled = [
                graph.tasks[i].name
                for i, c in enumerate(state.counters) if c > 0
            ]
            raise ExecutionError(
                f"task graph stalled (first: {stalled[:3]}); a successor "
                "edge is missing from the dependency table"
            )
        return state

    def _pop_ready(self, state: _RunState, prefer: str) -> Optional[int]:
        first, second = (
            (state.ready_compute, state.ready_memory)
            if prefer == TAG_COMPUTE
            else (state.ready_memory, state.ready_compute)
        )
        if first:
            return first.popleft()
        if second:
            return second.popleft()
        return None

    def _worker_loop(self, state: _RunState, worker_index: int) -> None:
        prefer = TAG_COMPUTE if worker_index % 2 == 0 else TAG_MEMORY
        cond = state.cond
        task: Optional[int] = None
        while True:
            if task is None:
                with cond:
                    while True:
                        task = self._pop_ready(state, prefer)
                        if task is not None:
                            break
                        if state.remaining == 0 or state.error is not None:
                            return
                        cond.wait()
            task = self._run_task(state, task, prefer)

    def _run_task(self, state: _RunState, pos: int,
                  prefer: str) -> Optional[int]:
        """Run one task; returns an inline continuation (or ``None``)."""
        graph = self.graph
        timing = state.run_seconds is not None
        start = perf_counter()
        try:
            graph.tasks[pos].step.run(state.values)
        except BaseException as exc:  # noqa: BLE001 — forwarded to caller
            with state.cond:
                state.error = exc
                state.cond.notify_all()
            return None
        elapsed = perf_counter() - start
        cont: Optional[int] = None
        with state.cond:
            state.busy_seconds += elapsed
            if timing:
                state.run_seconds[pos] += elapsed
                state.queue_seconds[pos] += start - state.enabled_at[pos]
            newly: List[int] = []
            for s in graph.successors[pos]:
                c = state.counters[s] - 1
                state.counters[s] = c
                if c == 0:
                    newly.append(s)
                elif c < 0:
                    state.error = ExecutionError(
                        f"task {graph.tasks[s].name} predecessor counter "
                        "went negative: the dependency table's counters "
                        "are corrupt (premature decrement)"
                    )
                    state.cond.notify_all()
                    return None
            state.remaining -= 1
            if newly:
                if timing:
                    now = perf_counter()
                    for s in newly:
                        state.enabled_at[s] = now
                # Chain continuation: keep one successor (preferring our
                # own affinity) and run it without touching the deques.
                pick = len(newly) - 1
                for k, s in enumerate(newly):
                    if graph.tasks[s].tag == prefer:
                        pick = k
                        break
                cont = newly.pop(pick)
                for s in newly:
                    if graph.tasks[s].tag == TAG_COMPUTE:
                        state.ready_compute.append(s)
                    else:
                        state.ready_memory.append(s)
                if newly:
                    state.cond.notify(len(newly))
            if state.remaining == 0 or state.error is not None:
                state.cond.notify_all()
        return cont

    def __repr__(self) -> str:
        return (
            f"<GraphExecutor {len(self.graph.tasks)} tasks, "
            f"{self.requests} requests, "
            f"occupancy {self.occupancy * 100:.0f}%>"
        )


def random_topological_order(graph: TaskGraph, rng) -> List[int]:
    """A uniformly-random-ish legal execution order (for scripted tests).

    Kahn's algorithm with the next task drawn randomly from the ready set;
    every topological order of the graph is reachable.
    """
    counters = list(graph.pred_template)
    ready = list(graph.roots)
    order: List[int] = []
    while ready:
        pick = int(rng.integers(len(ready))) if hasattr(rng, "integers") \
            else rng.randrange(len(ready))
        order.append(ready.pop(pick))
        for s in graph.successors[order[-1]]:
            counters[s] -= 1
            if counters[s] == 0:
                ready.append(s)
    if len(order) != len(graph.tasks):
        raise ExecutionError("task graph has a cycle; no topological order")
    return order
