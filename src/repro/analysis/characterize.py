"""TE characterisation: memory- vs compute-intensive (paper Sec. 5.3).

The ratio divides arithmetic instructions by the number of tensor elements
read and written; a TE with ratio below the threshold (3, as in the paper)
is memory-intensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.errors import AnalysisError
from repro.graph.te_program import TENode, TEProgram
from repro.te.patterns import count_arith_ops
from repro.te.tensor import Tensor, dtype_bytes
from repro.te.traversal import tensor_inputs

MEMORY_INTENSIVE = "memory-intensive"
COMPUTE_INTENSIVE = "compute-intensive"

# Paper Sec. 5.3: "the classification threshold is empirically set to 3".
DEFAULT_THRESHOLD = 3.0

# Default cache budget for the plan optimizer's block-level tiling pass
# (runtime.tiling): one chain block — scratch intermediates plus its slices
# of row-aligned externals — should fit a per-core last-level-cache share.
# 4 MiB is a conservative slice of a contemporary server CPU's L2+L3.
CACHE_BUDGET_BYTES = 4 << 20


@dataclass(frozen=True)
class TECharacter:
    """Characterisation record for one TE."""

    node: TENode
    arith_ops: int          # total arithmetic instructions
    elements_accessed: int  # tensor elements read + written
    ratio: float
    kind: str

    @property
    def is_compute_intensive(self) -> bool:
        return self.kind == COMPUTE_INTENSIVE


def te_flops(tensor: Tensor) -> int:
    """Total arithmetic operations to materialise ``tensor``."""
    if tensor.op is None:
        raise AnalysisError(f"{tensor.name} is a placeholder")
    return tensor.num_elements * count_arith_ops(tensor.op.body)


def _classify_ops(expr) -> int:
    """Arithmetic-instruction count per evaluation, at *classification*
    granularity (Sec. 5.3):

    * every intrinsic is one instruction (a ``tanh`` is one MUFU op);
    * address computation inside reads is excluded (a reshape moves bytes);
    * comparisons/selects are predication, not arithmetic, and only one
      select branch executes per element (count the heavier one).
    """
    from repro.te.expr import BinOp, Call, Cmp, IfThenElse, Reduce, TensorRead

    if isinstance(expr, TensorRead):
        return 0
    if isinstance(expr, Cmp):
        return 0
    if isinstance(expr, BinOp):
        return 1 + _classify_ops(expr.lhs) + _classify_ops(expr.rhs)
    if isinstance(expr, Call):
        return 1 + sum(_classify_ops(a) for a in expr.args)
    if isinstance(expr, IfThenElse):
        return max(_classify_ops(expr.then_value), _classify_ops(expr.else_value))
    if isinstance(expr, Reduce):
        domain = 1
        for ax in expr.axes:
            domain *= ax.extent
        return domain * (1 + _classify_ops(expr.body))
    return 0


def te_classify_ops(tensor: Tensor) -> int:
    """Total classification-granularity instruction count for one TE."""
    if tensor.op is None:
        raise AnalysisError(f"{tensor.name} is a placeholder")
    return tensor.num_elements * _classify_ops(tensor.op.body)


def te_elements_accessed(tensor: Tensor) -> int:
    """Tensor elements read (whole accessed input tensors) plus written."""
    if tensor.op is None:
        raise AnalysisError(f"{tensor.name} is a placeholder")
    read = sum(t.num_elements for t in tensor_inputs(tensor))
    return read + tensor.num_elements


def te_footprint_bytes(tensor: Tensor) -> int:
    """Bytes of all accessed tensors (inputs + output), used by cost models."""
    if tensor.op is None:
        raise AnalysisError(f"{tensor.name} is a placeholder")
    read = sum(t.size_bytes for t in tensor_inputs(tensor))
    return read + tensor.size_bytes


def characterize_te(node: TENode, threshold: float = DEFAULT_THRESHOLD) -> TECharacter:
    """Classify one TE as memory- or compute-intensive."""
    arith = te_classify_ops(node.tensor)
    accessed = te_elements_accessed(node.tensor)
    ratio = arith / max(accessed, 1)
    kind = COMPUTE_INTENSIVE if ratio >= threshold else MEMORY_INTENSIVE
    return TECharacter(node, arith, accessed, ratio, kind)


def characterize_program(
    program: TEProgram, threshold: float = DEFAULT_THRESHOLD
) -> Dict[TENode, TECharacter]:
    """Characterise every TE, memoising identical structures by shape/type."""
    result: Dict[TENode, TECharacter] = {}
    # Structural memoisation: TEs lowered from the same kind of operator with
    # the same shapes always characterise identically. This keeps the pass
    # linear for models like LSTM with thousands of identical cells.
    cache: Dict[tuple, tuple] = {}
    for node in program:
        key = _structure_key(node)
        if key in cache:
            arith, accessed = cache[key]
        else:
            arith = te_classify_ops(node.tensor)
            accessed = te_elements_accessed(node.tensor)
            cache[key] = (arith, accessed)
        ratio = arith / max(accessed, 1)
        kind = COMPUTE_INTENSIVE if ratio >= threshold else MEMORY_INTENSIVE
        result[node] = TECharacter(node, arith, accessed, ratio, kind)
    return result


def _structure_key(node: TENode) -> tuple:
    """Memoisation key: TEs with equal keys characterise and schedule
    identically. Includes per-element op counts so structurally different
    bodies with matching shapes (e.g. softmax's exp vs its div) never
    collide."""
    from repro.te.patterns import count_memory_reads

    tensor = node.tensor
    assert tensor.op is not None
    input_shapes = tuple((t.shape, t.dtype) for t in tensor_inputs(tensor))
    reduce_extents = tuple(ax.extent for ax in tensor.op.reduce_axes)
    fingerprint = (
        count_arith_ops(tensor.op.body),
        _classify_ops(tensor.op.body),
        count_memory_reads(tensor.op.body),
    )
    return (node.op_type, tensor.shape, tensor.dtype, input_shapes,
            reduce_extents, fingerprint)


def compute_intensive_nodes(
    chars: Dict[TENode, TECharacter]
) -> List[TENode]:
    """The CI set of Algorithm 1."""
    return [n for n, c in chars.items() if c.kind == COMPUTE_INTENSIVE]


def memory_intensive_nodes(
    chars: Dict[TENode, TECharacter]
) -> List[TENode]:
    """The MI set of Algorithm 1."""
    return [n for n, c in chars.items() if c.kind == MEMORY_INTENSIVE]
