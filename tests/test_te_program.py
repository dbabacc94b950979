"""Tests for TEProgram integrity and queries."""

import pickle

import pytest

from repro import SouffleCompiler
from repro.errors import AnalysisError
from repro.graph import GraphBuilder, lower_graph
from repro.graph.te_program import TENode, TEProgram
from repro.models import TINY_MODELS
from repro.runtime.executor import ExecutionPlan
from repro.te import compute, placeholder


@pytest.fixture()
def program():
    b = GraphBuilder("p")
    x = b.input((4, 4), name="x")
    y = b.relu(x)
    z = b.sigmoid(y)
    w = b.add(y, z)
    return lower_graph(b.build([w]))


class TestQueries:
    def test_producer_of_placeholder_is_none(self, program):
        assert program.producer(program.inputs[0]) is None

    def test_producer_consumer_round_trip(self, program):
        relu = program.nodes[0]
        consumers = program.node_consumers(relu)
        assert len(consumers) == 2
        for consumer in consumers:
            assert relu in program.node_producers(consumer)

    def test_is_output(self, program):
        assert program.is_output(program.outputs[0])
        assert not program.is_output(program.nodes[0].tensor)

    def test_tensors_covers_all(self, program):
        assert len(program.tensors) == len(program.inputs) + len(program)

    def test_node_inputs_dedup(self, program):
        add = program.nodes[-1]
        assert len(add.inputs) == 2


class TestValidation:
    def test_rejects_non_topological(self):
        a = placeholder((4,), name="a")
        t1 = compute((4,), lambda i: a[i] + 1, name="t1")
        t2 = compute((4,), lambda i: t1[i] * 2, name="t2")
        n1 = TENode(0, t1, "op1", "add")
        n2 = TENode(1, t2, "op2", "mul")
        with pytest.raises(AnalysisError):
            TEProgram("bad", [a], [n2, n1], [t2])

    def test_rejects_unknown_input(self):
        a = placeholder((4,), name="a")
        t1 = compute((4,), lambda i: a[i] + 1, name="t1")
        with pytest.raises(AnalysisError):
            TEProgram("bad", [], [TENode(0, t1, "op", "add")], [t1])

    def test_rejects_unproduced_output(self):
        a = placeholder((4,), name="a")
        t1 = compute((4,), lambda i: a[i] + 1)
        other = compute((4,), lambda i: a[i])
        with pytest.raises(AnalysisError):
            TEProgram("bad", [a], [TENode(0, t1, "op", "add")], [other])

    def test_rejects_duplicate_producer(self):
        a = placeholder((4,), name="a")
        t1 = compute((4,), lambda i: a[i] + 1)
        nodes = [TENode(0, t1, "op", "add"), TENode(1, t1, "op", "add")]
        with pytest.raises(AnalysisError):
            TEProgram("bad", [a], nodes, [t1])


# (steps, elided buffers, arena bytes) of the compiled programs'
# optimized plans.
COMPILED_PLANS = {"bert": (58, 22, 8192), "lstm": (31, 7, 2816)}


def plan_summary(plan):
    return (
        plan.num_steps,
        plan.optimization.stats.elided_buffers,
        plan.workspace_bytes,
    )


class TestPickling:
    """A pickled program is a whole program: sharded workers load one."""

    @pytest.mark.parametrize("kind", ["compiled", "lowered"])
    @pytest.mark.parametrize("model", sorted(COMPILED_PLANS))
    def test_copy_answers_and_plans_like_the_original(self, model, kind):
        graph = TINY_MODELS[model]()
        if kind == "compiled":
            program = SouffleCompiler(cache=False).compile(graph).program
        else:
            program = lower_graph(graph)
        # The build memoises lowerings (closures included) on the tensors.
        original = plan_summary(ExecutionPlan(program, optimize=True))
        if kind == "compiled":
            assert original == COMPILED_PLANS[model]
        copy = pickle.loads(pickle.dumps(program))

        for node, twin in zip(program.nodes, copy.nodes):
            assert twin.name == node.name
            assert copy.producer(twin.tensor) is twin
        for tensor, twin in zip(program.tensors, copy.tensors):
            producer = program.producer(tensor)
            if producer is None:
                assert copy.producer(twin) is None
            assert [n.index for n in copy.consumers(twin)] == [
                n.index for n in program.consumers(tensor)
            ]
        assert plan_summary(ExecutionPlan(copy, optimize=True)) == original
