"""Graph operator nodes.

A :class:`OpNode` is one operator of the model computation graph, before
lowering to tensor expressions. Nodes reference their input nodes directly,
so a graph is a DAG of OpNodes rooted at ``input``/``weight`` nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import LoweringError

Shape = Tuple[int, ...]

# Operator taxonomy used by baselines' fusion rules and by analysis.
ELEMENTWISE_ARITH_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "exp",
        "log",
        "sqrt",
        "rsqrt",
        "erf",
        "tanh",
        "sigmoid",
        "relu",
        "relu6",
        "gelu",
        "swish",
        "power",
        "scale",
        "bias_add",
        "clip",
    }
)
ELEMENTWISE_MEMORY_OPS = frozenset(
    {"reshape", "transpose", "slice", "concat", "pad", "broadcast_to", "identity"}
)
REDUCTION_OPS = frozenset(
    {"reduce_sum", "reduce_mean", "reduce_max", "softmax", "layernorm",
     "avg_pool2d", "max_pool2d", "global_avg_pool"}
)
COMPUTE_OPS = frozenset(
    {"matmul", "batch_matmul", "dense", "conv2d", "depthwise_conv2d", "gemv"}
)
OPAQUE_OPS = frozenset({"resize"})  # paper Sec. 9: no TE lowering, library call

ALL_OPS = (
    ELEMENTWISE_ARITH_OPS
    | ELEMENTWISE_MEMORY_OPS
    | REDUCTION_OPS
    | COMPUTE_OPS
    | OPAQUE_OPS
    | {"input", "weight"}
)

_op_counter = itertools.count()


@dataclass
class OpNode:
    """One operator in the computation graph."""

    op_type: str
    inputs: List["OpNode"]
    shape: Shape
    dtype: str = "float32"
    attrs: Dict[str, Any] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if self.op_type not in ALL_OPS:
            raise LoweringError(f"unknown operator type {self.op_type!r}")
        if not self.name:
            self.name = f"{self.op_type}_{next(_op_counter)}"

    @property
    def is_source(self) -> bool:
        """True for graph inputs and weights."""
        return self.op_type in ("input", "weight")

    @property
    def num_elements(self) -> int:
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    def __repr__(self) -> str:
        ins = ", ".join(i.name for i in self.inputs)
        return f"{self.name}({ins}) : {self.dtype}{list(self.shape)}"

    # identity semantics: two nodes are equal iff same object
    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other
