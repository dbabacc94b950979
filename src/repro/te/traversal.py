"""Expression traversal utilities: walking, collecting, and rewriting.

These are the workhorses of every analysis and transformation pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import TEError
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
from repro.te.tensor import Tensor


def children(expr: Expr) -> Tuple[Expr, ...]:
    """Direct sub-expressions of a node."""
    if isinstance(expr, (BinOp, Cmp)):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, TensorRead):
        return expr.indices
    if isinstance(expr, Reduce):
        return (expr.body,)
    if isinstance(expr, IfThenElse):
        return (expr.cond, expr.then_value, expr.else_value)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of all nodes in an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def collect_reads(expr: Expr) -> List[TensorRead]:
    """All tensor reads in an expression, in traversal order."""
    return [node for node in walk(expr) if isinstance(node, TensorRead)]


def input_tensors(expr: Expr) -> List[Tensor]:
    """Distinct tensors read by an expression, in first-read order.

    For a tensor's own body use :func:`tensor_inputs`, which collects the
    reads once per body.
    """
    seen: Set[int] = set()
    out: List[Tensor] = []
    for read in collect_reads(expr):
        if id(read.tensor) not in seen:
            seen.add(id(read.tensor))
            out.append(read.tensor)  # type: ignore[arg-type]
    return out


def tensor_inputs(tensor: Tensor) -> Tuple[Tensor, ...]:
    """Distinct tensors a compute tensor's body reads, in first-read order
    (``()`` for a placeholder).

    The reads of a body are collected once: the result is kept on the
    tensor, keyed by its op (a horizontal merge assigns ``op`` after
    creating the tensor; a :class:`ComputeOp` never changes its body), so
    every pass shares one walk and the memo dies with the tensor.
    """
    op = tensor.op
    if op is None:
        return ()
    memo = getattr(tensor, "_inputs", None)
    if memo is None or memo[0] is not op:
        memo = (op, tuple(input_tensors(op.body)))
        tensor._inputs = memo
    return memo[1]


def free_vars(expr: Expr) -> Set[str]:
    """Names of all variables referenced by an expression."""
    return {node.name for node in walk(expr) if isinstance(node, Var)}


def contains_reduce(expr: Expr) -> bool:
    """Whether the expression contains a reduction anywhere."""
    return any(isinstance(node, Reduce) for node in walk(expr))


def rewrite(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite.

    ``fn`` is applied to each node after its children were rewritten; a
    ``None`` return keeps the node. Subtrees that no rewrite touched are
    returned *by identity*, so callers can cheaply detect "nothing changed"
    with ``result is expr``.
    """
    if isinstance(expr, BinOp):
        lhs, rhs = rewrite(expr.lhs, fn), rewrite(expr.rhs, fn)
        node: Expr = (
            expr if lhs is expr.lhs and rhs is expr.rhs else BinOp(expr.op, lhs, rhs)
        )
    elif isinstance(expr, Cmp):
        lhs, rhs = rewrite(expr.lhs, fn), rewrite(expr.rhs, fn)
        node = (
            expr if lhs is expr.lhs and rhs is expr.rhs else Cmp(expr.op, lhs, rhs)
        )
    elif isinstance(expr, Call):
        args = tuple(rewrite(a, fn) for a in expr.args)
        node = (
            expr
            if all(a is b for a, b in zip(args, expr.args))
            else Call(expr.func, args)
        )
    elif isinstance(expr, TensorRead):
        indices = tuple(rewrite(i, fn) for i in expr.indices)
        node = (
            expr
            if all(a is b for a, b in zip(indices, expr.indices))
            else TensorRead(expr.tensor, indices)
        )
    elif isinstance(expr, Reduce):
        body = rewrite(expr.body, fn)
        node = expr if body is expr.body else Reduce(expr.kind, body, expr.axes)
    elif isinstance(expr, IfThenElse):
        cond = rewrite(expr.cond, fn)
        then_value = rewrite(expr.then_value, fn)
        else_value = rewrite(expr.else_value, fn)
        node = (
            expr
            if cond is expr.cond
            and then_value is expr.then_value
            and else_value is expr.else_value
            else IfThenElse(cond, then_value, else_value)
        )
    else:
        node = expr
    replaced = fn(node)
    return node if replaced is None else replaced


def substitute_vars(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace every :class:`Var` whose name is in ``mapping``."""

    def visit(node: Expr) -> Optional[Expr]:
        if isinstance(node, Var):
            return mapping.get(node.name)
        return None

    return rewrite(expr, visit)


def replace_tensor_reads(
    expr: Expr, fn: Callable[[TensorRead], Optional[Expr]]
) -> Expr:
    """Replace tensor reads for which ``fn`` returns a new expression."""

    def visit(node: Expr) -> Optional[Expr]:
        if isinstance(node, TensorRead):
            return fn(node)
        return None

    return rewrite(expr, visit)


def rename_reduce_axes(expr: Expr, suffix: str) -> Expr:
    """Give every reduce axis in ``expr`` a fresh name with ``suffix``.

    Needed when inlining one TE body into another so that reduce-axis names
    from different TEs never collide.
    """

    renames: Dict[str, IterVar] = {}

    def visit(node: Expr) -> Optional[Expr]:
        if isinstance(node, Reduce):
            new_axes = []
            for ax in node.axes:
                if ax.name not in renames:
                    renames[ax.name] = IterVar(
                        Var(ax.name + suffix), ax.dom, kind="reduce"
                    )
                new_axes.append(renames[ax.name])
            body = substitute_vars(
                node.body, {old: iv.var for old, iv in renames.items()}
            )
            return Reduce(node.kind, body, tuple(new_axes))
        return None

    return rewrite(expr, visit)


def count_nodes(expr: Expr) -> int:
    """Number of nodes in the expression tree."""
    return sum(1 for _ in walk(expr))


def validate_closed(expr: Expr, allowed: Sequence[IterVar]) -> None:
    """Check that every variable in ``expr`` is bound by ``allowed`` or a Reduce.

    Raises :class:`TEError` on dangling variables — this catches malformed
    transformations early.
    """
    bound = {iv.name for iv in allowed}
    for node in walk(expr):
        if isinstance(node, Reduce):
            bound.update(ax.name for ax in node.axes)
    dangling = free_vars(expr) - bound
    if dangling:
        raise TEError(f"dangling variables in expression: {sorted(dangling)}")
