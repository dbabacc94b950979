"""Tensors and the ``compute``/``placeholder``/``reduce_axis`` builders.

Mirrors the TVM tensor-expression API used throughout the paper (Sec. 3):

    rk = reduce_axis((0, 64), name="rk")
    O0 = compute((64, 64), lambda i, j: sum_expr(I0[i, rk] * W0[rk, j], [rk]))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TEError
from repro.te.expr import (
    Expr,
    ExprLike,
    IterVar,
    Range,
    Reduce,
    TensorRead,
    Var,
    _wrap,
)

Shape = Tuple[int, ...]

_name_counter = itertools.count()


def _fresh_name(prefix: str) -> str:
    return f"{prefix}{next(_name_counter)}"


def reset_names() -> None:
    """Reset the global name counter (test isolation helper)."""
    global _name_counter
    _name_counter = itertools.count()


DTYPE_BYTES = {
    "float16": 2,
    "float32": 4,
    "float64": 8,
    "int32": 4,
    "int64": 8,
    "bool": 1,
}


def row_major_strides(shape: Sequence[int]) -> List[int]:
    """Element strides of a C-ordered (row-major) array of ``shape``."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return strides


def dtype_bytes(dtype: str) -> int:
    """Byte width of a dtype string."""
    try:
        return DTYPE_BYTES[dtype]
    except KeyError:
        raise TEError(f"unknown dtype {dtype!r}") from None


@dataclass(frozen=True)
class ComputeOp:
    """The defining computation of a non-placeholder tensor.

    ``axes`` are the spatial iteration variables (one per output dim);
    ``body`` is the scalar expression computing one output element. An op
    is immutable: passes that keep per-tensor results (read sets,
    contraction lowerings) key them by the op's identity.
    """

    axes: Tuple[IterVar, ...]
    body: Expr

    @property
    def reduce_axes(self) -> Tuple[IterVar, ...]:
        """Reduction axes of the body, or ``()`` for elementwise TEs."""
        if isinstance(self.body, Reduce):
            return self.body.axes
        return ()


class Tensor:
    """A named, shaped, typed tensor.

    A tensor is either a *placeholder* (graph input / weight; ``op is None``)
    or the output of a :class:`ComputeOp`. ``A[i, j]`` builds a
    :class:`TensorRead` expression.
    """

    def __init__(
        self,
        shape: Sequence[int],
        dtype: str = "float32",
        name: Optional[str] = None,
        op: Optional[ComputeOp] = None,
        role: str = "input",
    ) -> None:
        if not shape:
            raise TEError("tensors must have at least one dimension")
        for extent in shape:
            if not isinstance(extent, int) or extent <= 0:
                raise TEError(f"bad tensor extent {extent!r} in shape {tuple(shape)}")
        dtype_bytes(dtype)  # validate
        self.shape: Shape = tuple(shape)
        self.dtype = dtype
        self.name = name if name is not None else _fresh_name("t")
        self.op = op
        # Placeholders only: "weight" marks a session-bound constant (fed
        # identically across requests), "input" a per-request feed. Servers
        # bind weights once and merge them under every request's feeds.
        self.role = role

    @property
    def is_placeholder(self) -> bool:
        return self.op is None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    @property
    def size_bytes(self) -> int:
        return self.num_elements * dtype_bytes(self.dtype)

    def __getitem__(self, indices: Union[ExprLike, Tuple[ExprLike, ...]]) -> TensorRead:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return TensorRead(self, tuple(_wrap(i) for i in indices))

    def __repr__(self) -> str:
        kind = "placeholder" if self.is_placeholder else "compute"
        return f"<{kind} {self.name}: {self.dtype}{list(self.shape)}>"


def placeholder(
    shape: Sequence[int],
    dtype: str = "float32",
    name: Optional[str] = None,
    role: str = "input",
) -> Tensor:
    """Declare a graph input or weight tensor.

    ``role="weight"`` marks the placeholder as a session-bound constant —
    the same array is fed on every request — which a server binds once
    (sharded servers place it once in shared memory) and merges under
    every request's feeds.
    """
    return Tensor(shape, dtype=dtype, name=name, role=role)


def reduce_axis(dom: Tuple[int, int], name: Optional[str] = None) -> IterVar:
    """Create a reduction iteration variable over ``[dom[0], dom[1])``."""
    lo, hi = dom
    name = name if name is not None else _fresh_name("rk")
    return IterVar(Var(name), Range(lo, hi), kind="reduce")


def spatial_axis(extent: int, name: str) -> IterVar:
    """Create a spatial iteration variable over ``[0, extent)``."""
    return IterVar(Var(name), Range(0, extent), kind="spatial")


_AXIS_NAMES = "ijklmnpq"


def compute(
    shape: Sequence[int],
    fcompute: Callable[..., ExprLike],
    name: Optional[str] = None,
    dtype: str = "float32",
) -> Tensor:
    """Define a tensor by a per-element computation.

    ``fcompute`` receives one :class:`Var` per output dimension and returns
    the scalar expression for that element.
    """
    shape = tuple(shape)
    axes: List[IterVar] = []
    for dim, extent in enumerate(shape):
        axis_name = (
            _AXIS_NAMES[dim] if dim < len(_AXIS_NAMES) else f"ax{dim}"
        ) + f"_{next(_name_counter)}"
        axes.append(spatial_axis(extent, axis_name))
    body = _wrap(fcompute(*[ax.var for ax in axes]))
    op = ComputeOp(tuple(axes), body)
    return Tensor(shape, dtype=dtype, name=name, op=op)


def sum_expr(body: ExprLike, axes: Sequence[IterVar]) -> Reduce:
    """Sum reduction over ``axes`` (TVM's ``te.sum``)."""
    return Reduce("sum", _wrap(body), tuple(axes))


def max_expr(body: ExprLike, axes: Sequence[IterVar]) -> Reduce:
    """Max reduction over ``axes`` (TVM's ``te.max``)."""
    return Reduce("max", _wrap(body), tuple(axes))


def min_expr(body: ExprLike, axes: Sequence[IterVar]) -> Reduce:
    """Min reduction over ``axes`` (TVM's ``te.min``)."""
    return Reduce("min", _wrap(body), tuple(axes))
