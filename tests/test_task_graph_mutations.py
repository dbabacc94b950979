"""Mutation tests: seeded scheduler defects must be *caught*, not survived.

Each test plants one classic concurrent-executor bug in an otherwise
correct task graph and asserts the safety net trips deterministically:

* a **dropped successor edge** — the extended arena-hazard pass
  (``check_schedule_cover``) reports the now-unordered hazard pair, and at
  runtime the executor detects the stalled graph (the orphaned task's
  predecessor counter never reaches zero);
* a **premature counter decrement** (a duplicated successor edge driving a
  counter below zero) — the executor raises at the exact completion that
  corrupts the counter;
* a **missing byte-conflict edge** — the hazard pass proves the WAR/WAW
  pair is no longer ordered by any dependency path.

The point of the exercise: the differential and static checks shipped with
the executor are sufficient to catch the defect classes a task scheduler
can realistically regress into.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph import lower_graph
from repro.models import TINY_MODELS
from repro.runtime.executor import ExecutionPlan
from repro.runtime.task_graph import FifoScheduler, TaskGraph
from repro.transform import random_feeds
from repro.verify import Severity, check_schedule_cover


def build_plan():
    """LSTM keeps both real data chains and arena-reuse conflict edges."""
    program = lower_graph(TINY_MODELS["lstm"]())
    return ExecutionPlan(program, optimize=True)


def mutate(graph, successors, preds=None):
    """A structurally-identical graph with a tampered dependency table."""
    return TaskGraph(
        graph.tasks,
        [tuple(s) for s in successors],
        list(graph.pred_template if preds is None else preds),
        graph.stats,
        graph.view,
        graph.memory_plan,
    )


def cover_errors(graph):
    return [
        d for d in check_schedule_cover(
            graph.view, graph.memory_plan, graph.successors
        )
        if d.severity is Severity.ERROR
    ]


class TestDroppedSuccessorEdge:
    def test_hazard_pass_reports_uncovered_pair(self):
        """Dropping an edge is caught exactly when it matters: iff the
        drop leaves some hazard pair with no ordering path. Reachability
        and the hazard-pair set are recomputed here independently, so the
        oracle does not share code with the checker under test."""
        from repro.verify import hazard_pairs

        plan = build_plan()
        graph = plan.task_graph
        assert not cover_errors(graph)
        pairs = {
            (i, j) for i, j, _ in
            hazard_pairs(graph.view, graph.memory_plan)
        }

        def descendants(successors):
            n = len(successors)
            desc = [0] * n
            for i in range(n - 1, -1, -1):
                mask = 1 << i
                for j in successors[i]:
                    mask |= desc[j]
                desc[i] = mask
            return desc

        caught = 0
        load_bearing = 0
        dropped = 0
        for i, succ in enumerate(graph.successors):
            for j in succ:
                mutated = [list(s) for s in graph.successors]
                mutated[i].remove(j)
                dropped += 1
                desc = descendants(mutated)
                breaks_order = any(
                    not (desc[a] >> b) & 1 for a, b in pairs
                )
                flagged = bool(cover_errors(mutate(graph, mutated)))
                assert flagged == breaks_order, (i, j)
                caught += flagged
                load_bearing += breaks_order
        assert dropped > 0
        # The transitive reduction keeps the table lean, so most retained
        # edges really are the only ordering for some hazard pair.
        assert load_bearing > 0
        assert caught == load_bearing

    def test_executor_detects_stalled_graph(self):
        """Runtime backstop: with an edge dropped (counters untouched),
        the orphaned task never enables and the executor raises instead
        of silently returning partial results."""
        plan = build_plan()
        graph = plan.task_graph
        # Drop every edge into one task so it can never become ready.
        victim = max(
            range(len(graph)), key=lambda i: graph.pred_template[i]
        )
        assert graph.pred_template[victim] > 0
        mutated = [
            [j for j in succ if j != victim] for succ in graph.successors
        ]
        plan.graph_executor.graph = mutate(graph, mutated)
        feeds = random_feeds(plan.program, seed=1)
        with pytest.raises(ExecutionError, match="stalled"):
            plan.execute(plan.bind_feeds(feeds), plan.new_arena(),
                         scheduler=FifoScheduler())


class TestPrematureCounterDecrement:
    def test_executor_raises_on_negative_counter(self):
        plan = build_plan()
        graph = plan.task_graph
        # Duplicate one edge: the successor's counter is decremented twice
        # per request — the "premature decrement" scheduler defect.
        i = next(
            pos for pos, succ in enumerate(graph.successors) if succ
        )
        j = graph.successors[i][0]
        mutated = [list(s) for s in graph.successors]
        mutated[i].append(j)
        plan.graph_executor.graph = mutate(graph, mutated)
        feeds = random_feeds(plan.program, seed=2)
        with pytest.raises(ExecutionError, match="premature"):
            plan.execute(plan.bind_feeds(feeds), plan.new_arena(),
                         scheduler=FifoScheduler())


class TestMissingByteConflictEdge:
    def test_hazard_pass_reports_unordered_war_waw_pair(self):
        """Remove a conflict-only edge (no data flow between the two
        tasks, only shared arena bytes) and demand the extended hazard
        pass names the race."""
        plan = build_plan()
        graph = plan.task_graph
        assert graph.stats.conflict_edges > 0
        # Conflict-only edges are the successor edges with no value flow:
        # the later task does not read the earlier task's output tensor.
        reads_of = {}
        for pos, task in enumerate(graph.tasks):
            reads_of[pos] = set()
        view_nodes = graph.view.nodes
        produced = {pos: id(view_nodes[pos].tensor)
                    for pos in range(len(view_nodes))}
        for pos, node in enumerate(view_nodes):
            reads_of[pos] = {id(t) for t in node.inputs}
        found = False
        for i, succ in enumerate(graph.successors):
            for j in succ:
                if produced[i] in reads_of[j]:
                    continue  # data edge, covered by the other test
                mutated = [list(s) for s in graph.successors]
                mutated[i].remove(j)
                errors = cover_errors(mutate(graph, mutated))
                if errors:
                    found = True
                    assert any(
                        "WAR/WAW" in d.message for d in errors
                    ), [d.message for d in errors]
        assert found, "no load-bearing byte-conflict edge was found"

    def test_plan_construction_rejects_uncovered_table(self):
        """End to end: build_task_graph certifies at plan time, so a
        builder that produced an uncovered table could never ship a
        plan (simulated via the certification entry point)."""
        plan = build_plan()
        graph = plan.task_graph
        empty = [tuple() for _ in graph.successors]
        errors = cover_errors(mutate(graph, empty))
        assert len(errors) > 0
