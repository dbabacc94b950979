"""Pretty printing of tensor expressions and TE programs."""

from __future__ import annotations

from typing import Iterable, List

from repro.te.tensor import Tensor
from repro.te.traversal import tensor_inputs


def format_tensor(tensor: Tensor) -> str:
    """One-line ``te.compute``-style rendering of a tensor definition."""
    shape = "x".join(str(extent) for extent in tensor.shape)
    if tensor.op is None:
        return f"{tensor.name}: placeholder({shape}, {tensor.dtype})"
    axes = ", ".join(ax.name for ax in tensor.op.axes)
    return f"{tensor.name}[{axes}] : ({shape}) = {tensor.op.body!r}"


def format_program(tensors: Iterable[Tensor]) -> str:
    """Multi-line rendering of a sequence of tensor definitions."""
    lines: List[str] = []
    for tensor in tensors:
        lines.append(format_tensor(tensor))
    return "\n".join(lines)


def describe_dependencies(tensor: Tensor) -> str:
    """Summarise which tensors a compute tensor reads."""
    if tensor.op is None:
        return f"{tensor.name}: (input)"
    names = ", ".join(t.name for t in tensor_inputs(tensor))
    return f"{tensor.name} <- [{names}]"
