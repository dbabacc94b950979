"""Lowering graph operators to tensor expressions (paper Sec. 4, step 1).

Each operator type has a registered lowering rule that emits one or more
TEs. Composite operators decompose into simpler TEs — e.g. softmax becomes a
reduction TE plus elementwise TEs, exactly the property Souffle's analysis
exploits (Sec. 1: "a softmax operator can be represented by two TEs").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import LoweringError, UnsupportedOperatorError
from repro.graph.graph import Graph
from repro.graph.op import OpNode
from repro.graph.te_program import TENode, TEProgram
from repro.te.expr import Const, Expr, Var, call, if_then_else, maximum, minimum
from repro.te.tensor import (
    Tensor,
    compute,
    max_expr,
    placeholder,
    reduce_axis,
    row_major_strides,
    sum_expr,
)

Shape = Tuple[int, ...]


class LoweringContext:
    """Collects emitted TEs while lowering one graph."""

    def __init__(self, graph_name: str) -> None:
        self.graph_name = graph_name
        self.nodes: List[TENode] = []
        self.placeholders: List[Tensor] = []

    def emit(self, tensor: Tensor, source: OpNode) -> Tensor:
        """Register a compute tensor as a TE of the program."""
        if tensor.op is None:
            raise LoweringError(f"emit() expects a compute tensor, got {tensor.name}")
        self.nodes.append(
            TENode(len(self.nodes), tensor, source.name, source.op_type)
        )
        return tensor

    def add_placeholder(self, tensor: Tensor) -> Tensor:
        self.placeholders.append(tensor)
        return tensor


LoweringFn = Callable[[OpNode, List[Tensor], LoweringContext], Tensor]
_RULES: Dict[str, LoweringFn] = {}


def register(op_type: str) -> Callable[[LoweringFn], LoweringFn]:
    def deco(fn: LoweringFn) -> LoweringFn:
        if op_type in _RULES:
            raise LoweringError(f"duplicate lowering rule for {op_type}")
        _RULES[op_type] = fn
        return fn

    return deco


def lower_graph(graph: Graph) -> TEProgram:
    """Lower an operator graph to a TE program (tensor dependency graph)."""
    ctx = LoweringContext(graph.name)
    env: Dict[OpNode, Tensor] = {}
    for node in graph.nodes:
        if node.is_source:
            env[node] = ctx.add_placeholder(
                placeholder(node.shape, dtype=node.dtype, name=node.name,
                            role=node.op_type)
            )
            continue
        rule = _RULES.get(node.op_type)
        if rule is None:
            raise UnsupportedOperatorError(
                f"no TE lowering for operator {node.op_type!r} "
                f"(paper Sec. 6.7 limitation)"
            )
        inputs = [env[parent] for parent in node.inputs]
        env[node] = rule(node, inputs, ctx)
    outputs = [env[out] for out in graph.outputs]
    return TEProgram(graph.name, ctx.placeholders, ctx.nodes, outputs)


# ---- helpers --------------------------------------------------------------


def _clamp(index: Expr, extent: int) -> Expr:
    """Clamp an index into [0, extent) — used under predicates whose false
    branch must still evaluate in-range (the evaluator computes both sides of
    a select, like a GPU would with predication)."""
    return minimum(maximum(index, 0), extent - 1)


def _broadcast_read(tensor: Tensor, out_vars: Sequence[Var], out_shape: Shape) -> Expr:
    """Read ``tensor`` at the output point, numpy broadcast semantics."""
    offset = len(out_shape) - tensor.ndim
    if offset < 0:
        raise LoweringError(
            f"cannot broadcast {tensor.name} of rank {tensor.ndim} to rank "
            f"{len(out_shape)}"
        )
    indices: List[Expr] = []
    for d in range(tensor.ndim):
        if tensor.shape[d] == 1 and out_shape[d + offset] != 1:
            indices.append(Const(0, "int32"))
        else:
            indices.append(out_vars[d + offset])
    return tensor[tuple(indices)]


def _maybe_pad(
    x: Tensor, padding: int, node: OpNode, ctx: LoweringContext
) -> Tensor:
    """Emit a zero-padding TE over the two trailing spatial dims if needed."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    ph, pw = h + 2 * padding, w + 2 * padding

    def body(nn: Var, cc: Var, hh: Var, ww: Var) -> Expr:
        inside = (
            (hh >= padding) * (hh < h + padding) * (ww >= padding) * (ww < w + padding)
        )
        return if_then_else(
            inside,
            x[nn, cc, _clamp(hh - padding, h), _clamp(ww - padding, w)],
            0.0,
        )

    padded = compute((n, c, ph, pw), body, name=f"{x.name}_pad", dtype=x.dtype)
    return ctx.emit(padded, node)


# ---- compute-intensive ops -------------------------------------------------


@register("matmul")
def _lower_matmul(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    a, b = inputs
    k = a.shape[1]
    rk = reduce_axis((0, k), name=f"rk_{node.name}")
    out = compute(
        node.shape,
        lambda i, j: sum_expr(a[i, rk] * b[rk, j], [rk]),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("batch_matmul")
def _lower_batch_matmul(
    node: OpNode, inputs: List[Tensor], ctx: LoweringContext
) -> Tensor:
    a, b = inputs
    k = a.shape[2]
    rk = reduce_axis((0, k), name=f"rk_{node.name}")
    out = compute(
        node.shape,
        lambda bb, i, j: sum_expr(a[bb, i, rk] * b[bb, rk, j], [rk]),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("gemv")
def _lower_gemv(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    a, v = inputs
    k = a.shape[1]
    rk = reduce_axis((0, k), name=f"rk_{node.name}")
    out = compute(
        node.shape,
        lambda i: sum_expr(a[i, rk] * v[rk], [rk]),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("conv2d")
def _lower_conv2d(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    x, w = inputs
    stride = node.attrs["stride"]
    padding = node.attrs["padding"]
    groups = node.attrs["groups"]
    x = _maybe_pad(x, padding, node, ctx)
    f_total, c_per_group, kh, kw = w.shape
    f_per_group = f_total // groups

    rc = reduce_axis((0, c_per_group), name=f"rc_{node.name}")
    rh = reduce_axis((0, kh), name=f"rh_{node.name}")
    rw = reduce_axis((0, kw), name=f"rw_{node.name}")

    def body(nn: Var, ff: Var, hh: Var, ww: Var) -> Expr:
        if groups == 1:
            cin: Expr = rc.var
        else:
            cin = (ff // f_per_group) * c_per_group + rc.var
        return sum_expr(
            x[nn, cin, hh * stride + rh, ww * stride + rw] * w[ff, rc, rh, rw],
            [rc, rh, rw],
        )

    out = compute(node.shape, body, name=node.name, dtype=node.dtype)
    return ctx.emit(out, node)


@register("depthwise_conv2d")
def _lower_depthwise(
    node: OpNode, inputs: List[Tensor], ctx: LoweringContext
) -> Tensor:
    x, w = inputs
    stride = node.attrs["stride"]
    padding = node.attrs["padding"]
    x = _maybe_pad(x, padding, node, ctx)
    _, _, kh, kw = w.shape
    rh = reduce_axis((0, kh), name=f"rh_{node.name}")
    rw = reduce_axis((0, kw), name=f"rw_{node.name}")
    out = compute(
        node.shape,
        lambda nn, cc, hh, ww: sum_expr(
            x[nn, cc, hh * stride + rh, ww * stride + rw] * w[cc, 0, rh, rw],
            [rh, rw],
        ),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


# ---- element-wise arithmetic ------------------------------------------------


def _lower_binary(op: str) -> LoweringFn:
    import operator

    fns = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }
    fn = fns[op]

    def rule(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
        a, b = inputs
        out = compute(
            node.shape,
            lambda *vs: fn(
                _broadcast_read(a, vs, node.shape),
                _broadcast_read(b, vs, node.shape),
            ),
            name=node.name,
            dtype=node.dtype,
        )
        return ctx.emit(out, node)

    return rule


for _op in ("add", "sub", "mul", "div"):
    register(_op)(_lower_binary(_op))


@register("bias_add")
def _lower_bias_add(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    x, bias = inputs
    out = compute(
        node.shape,
        lambda *vs: x[tuple(vs)] + bias[vs[-1]],
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


_UNARY_INTRINSICS = {
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "rsqrt": "rsqrt",
    "erf": "erf",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "gelu": "gelu",
}


def _lower_unary(op: str) -> LoweringFn:
    intrinsic = _UNARY_INTRINSICS[op]

    def rule(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
        (x,) = inputs
        out = compute(
            node.shape,
            lambda *vs: call(intrinsic, x[tuple(vs)]),
            name=node.name,
            dtype=node.dtype,
        )
        return ctx.emit(out, node)

    return rule


for _op in _UNARY_INTRINSICS:
    register(_op)(_lower_unary(_op))


@register("relu6")
def _lower_relu6(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    out = compute(
        node.shape,
        lambda *vs: minimum(maximum(x[tuple(vs)], 0.0), 6.0),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("swish")
def _lower_swish(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    out = compute(
        node.shape,
        lambda *vs: x[tuple(vs)] * call("sigmoid", x[tuple(vs)]),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("scale")
def _lower_scale(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    factor = node.attrs["factor"]
    out = compute(
        node.shape,
        lambda *vs: x[tuple(vs)] * factor,
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("clip")
def _lower_clip(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    lo, hi = node.attrs["lo"], node.attrs["hi"]
    out = compute(
        node.shape,
        lambda *vs: minimum(maximum(x[tuple(vs)], lo), hi),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


# ---- element-wise memory ops -------------------------------------------------


@register("reshape")
def _lower_reshape(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    out_strides = row_major_strides(node.shape)
    in_strides = row_major_strides(x.shape)

    def body(*vs: Var) -> Expr:
        linear: Expr = Const(0, "int32")
        for var, stride in zip(vs, out_strides):
            linear = linear + var * stride
        indices: List[Expr] = []
        for d, stride in enumerate(in_strides):
            index = linear // stride
            if d > 0:
                index = index % x.shape[d]
            indices.append(index)
        return x[tuple(indices)]

    out = compute(node.shape, body, name=node.name, dtype=node.dtype)
    return ctx.emit(out, node)


@register("transpose")
def _lower_transpose(
    node: OpNode, inputs: List[Tensor], ctx: LoweringContext
) -> Tensor:
    (x,) = inputs
    perm = node.attrs["perm"]

    def body(*vs: Var) -> Expr:
        indices: List[Expr] = [None] * x.ndim  # type: ignore[list-item]
        for out_dim, in_dim in enumerate(perm):
            indices[in_dim] = vs[out_dim]
        return x[tuple(indices)]

    out = compute(node.shape, body, name=node.name, dtype=node.dtype)
    return ctx.emit(out, node)


@register("slice")
def _lower_slice(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    begins = node.attrs["begins"]
    strides = node.attrs["strides"]

    def body(*vs: Var) -> Expr:
        indices = [
            v * s + b if (s != 1 or b != 0) else v
            for v, b, s in zip(vs, begins, strides)
        ]
        return x[tuple(indices)]

    out = compute(node.shape, body, name=node.name, dtype=node.dtype)
    return ctx.emit(out, node)


@register("concat")
def _lower_concat(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    axis = node.attrs["axis"]

    def body(*vs: Var) -> Expr:
        v = vs[axis]
        # Build the select chain from the last input backwards.
        offsets = []
        acc = 0
        for tensor in inputs:
            offsets.append(acc)
            acc += tensor.shape[axis]
        expr: Optional[Expr] = None
        for tensor, offset in zip(reversed(inputs), reversed(offsets)):
            extent = tensor.shape[axis]
            indices = list(vs)
            indices[axis] = _clamp(v - offset, extent)
            read = tensor[tuple(indices)]
            if expr is None:
                expr = read
            else:
                expr = if_then_else(v < offset + extent, read, expr)
        assert expr is not None
        return expr

    out = compute(node.shape, body, name=node.name, dtype=node.dtype)
    return ctx.emit(out, node)


@register("pad")
def _lower_pad(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    pad_width = node.attrs["pad_width"]

    def body(*vs: Var) -> Expr:
        inside: Optional[Expr] = None
        indices: List[Expr] = []
        for v, (before, _after), extent in zip(vs, pad_width, x.shape):
            if before == 0 and _after == 0:
                indices.append(v)
                continue
            cond = (v >= before) * (v < before + extent)
            inside = cond if inside is None else inside * cond
            indices.append(_clamp(v - before, extent))
        read = x[tuple(indices)]
        if inside is None:
            return read
        return if_then_else(inside, read, 0.0)

    out = compute(node.shape, body, name=node.name, dtype=node.dtype)
    return ctx.emit(out, node)


# ---- reductions & composites ---------------------------------------------------


def _reduce_body_indices(
    x: Tensor, out_vars: Sequence[Var], axes: Sequence[int], keepdims: bool,
    reduce_vars: Dict[int, Var],
) -> Tuple[Expr, ...]:
    """Input indices mixing surviving spatial vars and reduce vars."""
    norm = {a + x.ndim if a < 0 else a for a in axes}
    indices: List[Expr] = []
    pos = 0
    for d in range(x.ndim):
        if d in norm:
            indices.append(reduce_vars[d])
            if keepdims:
                pos += 1
        else:
            indices.append(out_vars[pos])
            pos += 1
    return tuple(indices)


def _lower_reduce(kind: str, scale_by_count: bool) -> LoweringFn:
    def rule(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
        (x,) = inputs
        axes = node.attrs["axes"]
        keepdims = node.attrs["keepdims"]
        norm = sorted(a + x.ndim if a < 0 else a for a in axes)
        rvars = {
            d: reduce_axis((0, x.shape[d]), name=f"r{d}_{node.name}") for d in norm
        }
        count = 1
        for d in norm:
            count *= x.shape[d]

        make = sum_expr if kind == "sum" else max_expr

        def body(*vs: Var) -> Expr:
            indices = _reduce_body_indices(
                x, vs, axes, keepdims, {d: rv.var for d, rv in rvars.items()}
            )
            return make(x[indices], [rvars[d] for d in norm])

        reduced_name = node.name if not scale_by_count else f"{node.name}_sum"
        reduced = compute(node.shape, body, name=reduced_name, dtype=node.dtype)
        ctx.emit(reduced, node)
        if not scale_by_count:
            return reduced
        out = compute(
            node.shape,
            lambda *vs: reduced[tuple(vs)] * (1.0 / count),
            name=node.name,
            dtype=node.dtype,
        )
        return ctx.emit(out, node)

    return rule


register("reduce_sum")(_lower_reduce("sum", scale_by_count=False))
register("reduce_mean")(_lower_reduce("sum", scale_by_count=True))
register("reduce_max")(_lower_reduce("max", scale_by_count=False))


@register("softmax")
def _lower_softmax(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    axis = node.attrs["axis"]
    extent = x.shape[axis]
    reduced_shape = tuple(e for d, e in enumerate(x.shape) if d != axis)
    reduced_shape = reduced_shape if reduced_shape else (1,)

    def _outer_indices(vs: Sequence[Var], rvar: Expr) -> Tuple[Expr, ...]:
        indices: List[Expr] = []
        pos = 0
        for d in range(x.ndim):
            if d == axis:
                indices.append(rvar)
            else:
                indices.append(vs[pos])
                pos += 1
        return tuple(indices)

    def _reduced_read(tensor: Tensor, vs: Sequence[Var]) -> Expr:
        outer = [vs[d] for d in range(x.ndim) if d != axis]
        if not outer:
            outer = [Const(0, "int32")]
        return tensor[tuple(outer)]

    r1 = reduce_axis((0, extent), name=f"rmax_{node.name}")
    xmax = compute(
        reduced_shape,
        lambda *vs: max_expr(x[_outer_indices(vs, r1.var)], [r1]),
        name=f"{node.name}_max",
        dtype=node.dtype,
    )
    ctx.emit(xmax, node)

    exp = compute(
        x.shape,
        lambda *vs: call("exp", x[tuple(vs)] - _reduced_read(xmax, vs)),
        name=f"{node.name}_exp",
        dtype=node.dtype,
    )
    ctx.emit(exp, node)

    r2 = reduce_axis((0, extent), name=f"rsum_{node.name}")
    xsum = compute(
        reduced_shape,
        lambda *vs: sum_expr(exp[_outer_indices(vs, r2.var)], [r2]),
        name=f"{node.name}_sum",
        dtype=node.dtype,
    )
    ctx.emit(xsum, node)

    out = compute(
        x.shape,
        lambda *vs: exp[tuple(vs)] / _reduced_read(xsum, vs),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


@register("layernorm")
def _lower_layernorm(
    node: OpNode, inputs: List[Tensor], ctx: LoweringContext
) -> Tensor:
    x, gamma, beta = inputs
    eps = node.attrs["eps"]
    hidden = x.shape[-1]
    outer_shape = x.shape[:-1] if len(x.shape) > 1 else (1,)

    def _outer(vs: Sequence[Var]) -> Tuple[Expr, ...]:
        if len(x.shape) == 1:
            return (Const(0, "int32"),)
        return tuple(vs[:-1])

    r1 = reduce_axis((0, hidden), name=f"rm_{node.name}")
    total = compute(
        outer_shape,
        lambda *vs: sum_expr(x[tuple(list(vs) + [r1.var])], [r1]),
        name=f"{node.name}_sum",
        dtype=node.dtype,
    )
    ctx.emit(total, node)
    mean = compute(
        outer_shape,
        lambda *vs: total[tuple(vs)] * (1.0 / hidden),
        name=f"{node.name}_mean",
        dtype=node.dtype,
    )
    ctx.emit(mean, node)

    # One-pass variance: Var[x] = E[x^2] - mean^2 (keeps the reduction body
    # to a single multiply, like production fused-LN kernels).
    r2 = reduce_axis((0, hidden), name=f"rv_{node.name}")
    sq = compute(
        outer_shape,
        lambda *vs: sum_expr(
            x[tuple(list(vs) + [r2.var])] * x[tuple(list(vs) + [r2.var])],
            [r2],
        ),
        name=f"{node.name}_sqsum",
        dtype=node.dtype,
    )
    ctx.emit(sq, node)
    var = compute(
        outer_shape,
        lambda *vs: sq[tuple(vs)] * (1.0 / hidden)
        - mean[tuple(vs)] * mean[tuple(vs)],
        name=f"{node.name}_var",
        dtype=node.dtype,
    )
    ctx.emit(var, node)

    out = compute(
        x.shape,
        lambda *vs: (x[tuple(vs)] - mean[_outer(vs)])
        * call("rsqrt", var[_outer(vs)] + eps)
        * gamma[vs[-1]]
        + beta[vs[-1]],
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)


def _lower_pool(kind: str) -> LoweringFn:
    def rule(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
        (x,) = inputs
        kernel = node.attrs["kernel"]
        stride = node.attrs["stride"]
        padding = node.attrs["padding"]
        x = _maybe_pad(x, padding, node, ctx)
        rh = reduce_axis((0, kernel), name=f"rh_{node.name}")
        rw = reduce_axis((0, kernel), name=f"rw_{node.name}")
        make = sum_expr if kind == "avg" else max_expr
        reduced_name = node.name if kind == "max" else f"{node.name}_sum"
        reduced = compute(
            node.shape,
            lambda nn, cc, hh, ww: make(
                x[nn, cc, hh * stride + rh, ww * stride + rw], [rh, rw]
            ),
            name=reduced_name,
            dtype=node.dtype,
        )
        ctx.emit(reduced, node)
        if kind == "max":
            return reduced
        out = compute(
            node.shape,
            lambda *vs: reduced[tuple(vs)] * (1.0 / (kernel * kernel)),
            name=node.name,
            dtype=node.dtype,
        )
        return ctx.emit(out, node)

    return rule


register("avg_pool2d")(_lower_pool("avg"))
register("max_pool2d")(_lower_pool("max"))


@register("global_avg_pool")
def _lower_gap(node: OpNode, inputs: List[Tensor], ctx: LoweringContext) -> Tensor:
    (x,) = inputs
    _, _, h, w = x.shape
    rh = reduce_axis((0, h), name=f"rh_{node.name}")
    rw = reduce_axis((0, w), name=f"rw_{node.name}")
    total = compute(
        node.shape,
        lambda nn, cc: sum_expr(x[nn, cc, rh, rw], [rh, rw]),
        name=f"{node.name}_sum",
        dtype=node.dtype,
    )
    ctx.emit(total, node)
    out = compute(
        node.shape,
        lambda *vs: total[tuple(vs)] * (1.0 / (h * w)),
        name=node.name,
        dtype=node.dtype,
    )
    return ctx.emit(out, node)
