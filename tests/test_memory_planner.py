"""Tests + property tests for the global-memory planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime.memory_planner import ALIGNMENT, plan_memory
from repro.verify import Severity, check_arena


def chain_program(length=6, size=(32, 32)):
    b = GraphBuilder("chain")
    x = b.input(size)
    for _ in range(length):
        x = b.relu(x)
    return lower_graph(b.build([x]))


def arena_errors(program, plan):
    """The arena-hazard pass's errors under the plan's own write rule."""
    return [
        d for d in check_arena(
            program, plan, require_exclusive_writes=plan.exclusive_writes
        )
        if d.severity is Severity.ERROR
    ]


class TestPlanning:
    def test_chain_reuses_two_buffers(self):
        """A pure chain alternates between two buffers (ping-pong)."""
        program = chain_program(length=8)
        plan = plan_memory(program)
        buffer_size = ALIGNMENT * -(-32 * 32 * 4 // ALIGNMENT)
        assert plan.workspace_bytes <= 2 * buffer_size
        assert plan.sharing_ratio > 3

    def test_offsets_aligned(self):
        plan = plan_memory(chain_program())
        for assignment in plan.assignments.values():
            assert assignment.offset % ALIGNMENT == 0

    def test_outputs_excluded(self):
        program = chain_program()
        plan = plan_memory(program)
        assert program.outputs[0] not in plan.assignments

    def test_diamond_needs_both_branches_live(self):
        b = GraphBuilder("d")
        x = b.input((64, 64))
        left = b.relu(x)
        right = b.sigmoid(x)
        out = b.add(left, right)
        program = lower_graph(b.build([out]))
        plan = plan_memory(program)
        tensor_bytes = ALIGNMENT * -(-64 * 64 * 4 // ALIGNMENT)
        # left and right are simultaneously live: workspace >= 2 buffers.
        assert plan.workspace_bytes >= 2 * tensor_bytes

    def test_validates(self):
        program = chain_program()
        assert not arena_errors(program, plan_memory(program))

    def test_validate_raises_on_overlap(self):
        """A corrupted layout must raise PlanningError at plan build, not
        assert."""
        from repro.errors import PlanningError
        from repro.runtime.executor import EXEC_ITEMSIZE, ExecutionPlan
        from repro.runtime.memory_planner import BufferAssignment

        b = GraphBuilder("d")
        x = b.input((16, 16))
        out = b.add(b.relu(x), b.sigmoid(x))
        program = lower_graph(b.build([out]))
        plan = plan_memory(
            program,
            sizer=lambda t: t.num_elements * EXEC_ITEMSIZE,
            exclusive_writes=True,
        )
        assert not arena_errors(program, plan)
        # Force every simultaneously-live intermediate onto offset 0.
        for tensor, a in list(plan.assignments.items()):
            plan.assignments[tensor] = BufferAssignment(
                tensor, 0, a.nbytes, a.live
            )
        with pytest.raises(PlanningError, match="WAW/aliasing hazard"):
            ExecutionPlan(program, memory_plan=plan)

    def test_render(self):
        text = plan_memory(chain_program()).render()
        assert "workspace" in text


class TestExclusiveWrites:
    """The execution engine's packing flavour: operands never share bytes
    with the step that consumes them."""

    def test_chain_ping_pongs(self):
        program = chain_program(length=8)
        plan = plan_memory(program, exclusive_writes=True)
        buffer_size = ALIGNMENT * -(-32 * 32 * 4 // ALIGNMENT)
        # In-place reuse is forbidden, so a chain needs exactly two buffers.
        assert plan.workspace_bytes == 2 * buffer_size

    def test_consumer_never_shares_operand_bytes(self):
        program = chain_program(length=6)
        plan = plan_memory(program, exclusive_writes=True)
        assert not arena_errors(program, plan)
        for node in program.nodes:
            out = plan.assignments.get(node.tensor)
            if out is None:
                continue
            for operand in node.inputs:
                inp = plan.assignments.get(operand)
                if inp is None:
                    continue
                assert out.end <= inp.offset or inp.end <= out.offset

    def test_sizer_overrides_tensor_bytes(self):
        program = chain_program(length=2, size=(8, 8))
        plan = plan_memory(program, sizer=lambda t: t.num_elements * 8)
        for tensor, a in plan.assignments.items():
            assert a.nbytes >= tensor.num_elements * 8


@pytest.mark.parametrize("name", sorted(TINY_MODELS))
def test_all_models_plan_consistently(name):
    program = lower_graph(TINY_MODELS[name]())
    plan = plan_memory(program)
    assert not arena_errors(program, plan)
    assert plan.workspace_bytes <= plan.unshared_bytes
    assert plan.sharing_ratio >= 1.0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_programs_never_overlap(data):
    """Property: on random fan-out programs, live-overlapping tensors never
    share bytes and the workspace never beats the naive sum."""
    b = GraphBuilder("r")
    frontier = [b.input((data.draw(st.integers(2, 8)), 8))]
    for _ in range(data.draw(st.integers(2, 10))):
        src = frontier[data.draw(st.integers(0, len(frontier) - 1))]
        frontier.append(b.relu(src) if data.draw(st.booleans())
                        else b.sigmoid(src))
    outs = [frontier[-1]]
    program = lower_graph(b.build(outs))
    plan = plan_memory(program)
    assert not arena_errors(program, plan)
    assert plan.workspace_bytes <= plan.unshared_bytes
