"""Property test: task-graph execution is order-independent.

The scheduler-injection contract, stated as an enumerable property: for
*any* legal topological order of the compiled task graph, a
``ScriptedScheduler`` replay is bit-identical to serial replay — and
therefore every pair of legal orders is bit-identical to each other.
Hypothesis drives the order choice (a seeded random-Kahn draw), so each
example exercises a different interleaving of the same dependency table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime.executor import ExecutionPlan
from repro.runtime.task_graph import (
    ScriptedScheduler,
    random_topological_order,
)
from repro.transform import random_feeds


def mlp_program():
    b = GraphBuilder("mlp")
    x = b.input((4, 8), name="x")
    w1 = b.weight((8, 16), name="w1")
    w2 = b.weight((16, 4), name="w2")
    return lower_graph(
        b.build([b.softmax(b.matmul(b.relu(b.matmul(x, w1)), w2), axis=-1)])
    )


def diamond_program():
    """Wide independent branches over one input: many legal orders."""
    b = GraphBuilder("diamond")
    x = b.input((6, 6), name="x")
    branches = [
        b.relu(x), b.sigmoid(x), b.tanh(x), b.exp(x), b.mul(x, x),
    ]
    out = branches[0]
    for other in branches[1:]:
        out = b.add(out, other)
    return lower_graph(b.build([out]))


class _Case:
    """One plan + feeds + serial-oracle outputs, built once per process."""

    def __init__(self, program, optimize):
        self.plan = ExecutionPlan(program, optimize=optimize)
        self.bound = self.plan.bind_feeds(
            random_feeds(program, seed=17)
        )
        self.oracle = self.plan.execute_serial(
            self.bound, self.plan.new_arena()
        )


_CASES = {}


def case(name):
    if name not in _CASES:
        if name == "mlp":
            _CASES[name] = _Case(mlp_program(), optimize=False)
        elif name == "diamond":
            _CASES[name] = _Case(diamond_program(), optimize=False)
        else:
            _CASES[name] = _Case(
                lower_graph(TINY_MODELS[name]()), optimize=True
            )
    return _CASES[name]


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["mlp", "diamond", "mmoe", "lstm"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_scripted_order_matches_serial_replay(name, seed):
    c = case(name)
    order = random_topological_order(
        c.plan.task_graph, np.random.default_rng(seed)
    )
    got = c.plan.execute(
        c.bound, c.plan.new_arena(), scheduler=ScriptedScheduler(order)
    )
    for g, w in zip(got, c.oracle):
        assert np.array_equal(g, w), (name, seed)


@pytest.mark.parametrize("name", ["diamond", "lstm"])
def test_distinct_orders_are_bit_identical_to_one_another(name):
    """Directly compare many scripted orders against each other (the
    pairwise statement of the property, without the oracle in between)."""
    c = case(name)
    orders = {
        tuple(random_topological_order(
            c.plan.task_graph, np.random.default_rng(seed)
        ))
        for seed in range(12)
    }
    assert len(orders) > 1, "graph admits only one order; property vacuous"
    results = [
        c.plan.execute(c.bound, c.plan.new_arena(),
                       scheduler=ScriptedScheduler(list(order)))
        for order in orders
    ]
    first = results[0]
    for outputs in results[1:]:
        for g, w in zip(outputs, first):
            assert np.array_equal(g, w)
