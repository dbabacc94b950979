"""Functional (numpy) evaluation of tensor expressions.

Used for correctness: differential testing of transformations, example
programs, and validation of compiled modules. Performance numbers come from
the analytic GPU model, never from this evaluator.

Evaluation is vectorised. Elementwise TEs evaluate their body once with each
iteration variable bound to a broadcastable ``arange``. Every ``sum`` over a
product of tensor reads (GEMMs, composed reshapes, convolution windows,
predicated horizontal merges) runs as the contractions over strided views
that :func:`~repro.te.patterns.match_contraction` lowers it to, the same
call the execution plan makes. Only the remaining reductions — max/min, and
sums of anything but a product of reads — add the reduce axes as extra
broadcast dimensions and reduce at the end with the ufunc's ``reduce``,
under :data:`MAX_GRID_ELEMENTS`; an execution plan reduces that same
C-ordered grid with the same call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np
from scipy import special as _sp

from repro.errors import ExecutionError
from repro.te.expr import (
    BinOp,
    Call,
    Cmp,
    Const,
    Expr,
    IfThenElse,
    IterVar,
    Reduce,
    TensorRead,
    Var,
)
from repro.te.patterns import match_contraction
from repro.te.tensor import Tensor

# Refuse to materialise broadcast grids larger than this many elements;
# models under functional test must use small shapes.
MAX_GRID_ELEMENTS = 1 << 26

_BINOP_FN = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "floordiv": np.floor_divide,
    "mod": np.mod,
    "max": np.maximum,
    "min": np.minimum,
    "pow": np.power,
}

# A reduction is its ufunc's ``reduce`` over the trailing axes of the C-
# ordered grid; execution plans reduce the same grid with the same call.
REDUCE_FN = {"sum": np.add, "max": np.maximum, "min": np.minimum}

_CMP_FN = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


# Every intrinsic takes ``out=`` like a ufunc: a composite passes it to its
# last ufunc, so an execution plan computes a step's root straight into its
# arena view while this evaluator, calling the same functions, allocates.


def _rsqrt(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.divide(1.0, np.sqrt(x), out=out)


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.divide(1.0, 1.0 + np.exp(-x), out=out)


def _relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _gelu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.multiply(0.5 * x, 1.0 + _sp.erf(x / np.sqrt(2.0)), out=out)


def _cast_roundtrip(dtype: type):
    """Quantize through ``dtype`` while keeping the float64 compute type.

    The evaluator computes in float64 throughout; a precision cast must
    therefore *round-trip* — drop the mantissa/exponent bits the narrow type
    cannot represent, then widen back — or it would be a silent identity.
    """

    def cast(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        narrow = np.asarray(x, dtype=dtype)
        if out is None:
            return narrow.astype(np.float64)
        np.copyto(out, narrow)
        return out

    return cast


_CALL_FN = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "rsqrt": _rsqrt,
    "erf": _sp.erf,
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "relu": _relu,
    "gelu": _gelu,
    "abs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "cast_fp16": _cast_roundtrip(np.float16),
    "cast_fp32": _cast_roundtrip(np.float32),
}


class Evaluator:
    """Evaluates compute tensors given concrete placeholder values.

    Producer results are memoised per evaluator instance, so evaluating a
    whole TE program reuses intermediate tensors.
    """

    def __init__(self, feeds: Mapping[Tensor, np.ndarray]) -> None:
        self._values: Dict[int, np.ndarray] = {}
        self._tensors: Dict[int, Tensor] = {}
        for tensor, value in feeds.items():
            # C-contiguous like the plan engine's bound feeds: contraction
            # views are built over C-ordered buffers.
            arr = np.ascontiguousarray(value, dtype=np.float64)
            if arr.shape != tensor.shape:
                raise ExecutionError(
                    f"feed for {tensor.name} has shape {arr.shape}, "
                    f"expected {tensor.shape}"
                )
            self._values[id(tensor)] = arr
            self._tensors[id(tensor)] = tensor

    def value_of(self, tensor: Tensor) -> np.ndarray:
        """Evaluate (and memoise) a tensor."""
        key = id(tensor)
        if key in self._values:
            return self._values[key]
        if tensor.op is None:
            raise ExecutionError(f"no feed provided for placeholder {tensor.name}")
        result = self._compute(tensor)
        if result.shape != tensor.shape:
            raise ExecutionError(
                f"evaluating {tensor.name} produced shape {result.shape}, "
                f"expected {tensor.shape}"
            )
        self._values[key] = result
        self._tensors[key] = tensor
        return result

    # ---- internals ----------------------------------------------------

    def _compute(self, tensor: Tensor) -> np.ndarray:
        op = tensor.op
        assert op is not None
        contraction = match_contraction(tensor)
        if contraction is not None:
            # The execution plan runs this same call on the same views.
            out = np.empty(tensor.shape, dtype=np.float64)
            contraction.run(
                [self.value_of(t) for t in contraction.tensors], out
            )
            return out

        spatial = list(op.axes)
        body = op.body
        reduce_axes: list[IterVar] = []
        reduce_kind: Optional[str] = None
        if isinstance(body, Reduce):
            reduce_axes = list(body.axes)
            reduce_kind = body.kind
            body = body.body

        all_axes = spatial + reduce_axes
        total = 1
        for ax in all_axes:
            total *= ax.extent
        if total > MAX_GRID_ELEMENTS:
            raise ExecutionError(
                f"evaluation grid for {tensor.name} has {total} points "
                f"(> {MAX_GRID_ELEMENTS}); use smaller shapes for functional "
                "tests — benchmarks use the analytic model"
            )

        env: Dict[str, np.ndarray] = {}
        ndim = len(all_axes)
        for dim, ax in enumerate(all_axes):
            index = np.arange(ax.dom.lo, ax.dom.hi, dtype=np.int64)
            shape = [1] * ndim
            shape[dim] = ax.extent
            env[ax.name] = index.reshape(shape)

        grid = self._eval(body, env)
        grid = np.broadcast_to(
            grid, tuple(ax.extent for ax in all_axes)
        )
        if reduce_kind is None:
            return np.array(grid, dtype=np.float64)
        reduce_dims = tuple(range(len(spatial), ndim))
        return np.asarray(
            REDUCE_FN[reduce_kind].reduce(grid, axis=reduce_dims),
            dtype=np.float64,
        )

    def _eval(self, expr: Expr, env: Mapping[str, np.ndarray]) -> np.ndarray:
        if isinstance(expr, Const):
            return np.asarray(expr.value, dtype=np.float64)
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise ExecutionError(f"unbound variable {expr.name}") from None
        if isinstance(expr, BinOp):
            return _BINOP_FN[expr.op](
                self._eval(expr.lhs, env), self._eval(expr.rhs, env)
            )
        if isinstance(expr, Cmp):
            return _CMP_FN[expr.op](
                self._eval(expr.lhs, env), self._eval(expr.rhs, env)
            )
        if isinstance(expr, Call):
            args = [self._eval(a, env) for a in expr.args]
            return _CALL_FN[expr.func](*args)
        if isinstance(expr, IfThenElse):
            return np.where(
                self._eval(expr.cond, env),
                self._eval(expr.then_value, env),
                self._eval(expr.else_value, env),
            )
        if isinstance(expr, TensorRead):
            base = self.value_of(expr.tensor)  # type: ignore[arg-type]
            indices = [
                np.asarray(self._eval(i, env), dtype=np.int64) for i in expr.indices
            ]
            indices = list(np.broadcast_arrays(*indices)) if len(indices) > 1 else indices
            return base[tuple(indices)]
        if isinstance(expr, Reduce):
            # Nested reductions are normalised away during lowering; the
            # evaluator only handles top-level Reduce (see _compute).
            raise ExecutionError("nested Reduce is not supported by the evaluator")
        raise ExecutionError(f"cannot evaluate node {type(expr).__name__}")


def evaluate(
    tensor: Tensor, feeds: Mapping[Tensor, np.ndarray]
) -> np.ndarray:
    """Evaluate a single tensor given placeholder feeds."""
    return Evaluator(feeds).value_of(tensor)


def evaluate_many(
    tensors: Iterable[Tensor], feeds: Mapping[Tensor, np.ndarray]
) -> Dict[Tensor, np.ndarray]:
    """Evaluate several tensors sharing one memoisation context."""
    ev = Evaluator(feeds)
    return {t: ev.value_of(t) for t in tensors}
