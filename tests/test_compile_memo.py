"""The compile front half reads each TE body a bounded number of times.

Expression nodes and compute ops are immutable, so a tensor's distinct
reads are collected once and kept on the tensor, keyed by its op
(``te.traversal.tensor_inputs``). These tests pin that bound and check
that a reassigned op refreshes every query built on the memo;
``test_compile_pin`` pins what the compiler emits.
"""

import sys

from repro import SouffleCompiler, SouffleOptions
from repro.graph.te_program import TENode, TEProgram
from repro.models import TINY_MODELS
from repro.te import compute, placeholder, tensor_inputs, traversal
from repro.te.tensor import ComputeOp
from repro.transform.common import toposort_nodes


def compile_cold_and_certified(graph):
    cold = SouffleCompiler(cache=False).compile(graph)
    certified = SouffleCompiler(
        cache=False, options=SouffleOptions(certify=True)
    ).compile(graph)
    return cold, certified


def test_each_body_collects_its_reads_once(monkeypatch):
    """A cold plus a certified compile of every tiny model walks each
    (tensor, op) body for its reads at most once."""
    collect, accessor = traversal.input_tensors, traversal.tensor_inputs
    walks = []
    requested = {}  # (id(tensor), id(op)) -> (tensor, op), kept alive

    def counted_collect(expr):
        walks.append(expr)
        return collect(expr)

    def counted_accessor(tensor):
        requested[(id(tensor), id(tensor.op))] = (tensor, tensor.op)
        return accessor(tensor)

    for module in list(sys.modules.values()):
        if getattr(module, "input_tensors", None) is collect:
            monkeypatch.setattr(module, "input_tensors", counted_collect)
        if getattr(module, "tensor_inputs", None) is accessor:
            monkeypatch.setattr(module, "tensor_inputs", counted_accessor)
    for build in TINY_MODELS.values():
        compile_cold_and_certified(build())
    assert walks
    # Every requested body is walked once, on its first request.
    assert len(walks) <= len(requested)


def test_reassigned_op_refreshes_reads():
    """Reassigning ``Tensor.op``, as a horizontal merge does, is seen by
    ``TENode.inputs``, ``TEProgram`` and ``toposort_nodes``."""
    a = placeholder((4,), name="a")
    u = compute((4,), lambda i: a[i] + 1.0, name="u")
    t = compute((4,), lambda i: a[i] * 2.0, name="t")
    t_node = TENode(0, t, "t", "mul")
    u_node = TENode(1, u, "u", "add")
    assert t_node.inputs == (a,)
    assert toposort_nodes([a], [t_node, u_node]) == [t_node, u_node]

    t.op = ComputeOp(t.op.axes, u[t.op.axes[0].var] * 2.0)
    assert tensor_inputs(t) == (u,)
    assert t_node.inputs == (u,)
    assert toposort_nodes([a], [t_node, u_node]) == [u_node, t_node]
    program = TEProgram("p", [a], [u_node, t_node], [t])
    assert program.consumers(u) == [t_node]
    assert program.consumers(a) == [u_node]
    assert program.node_producers(t_node) == [u_node]
