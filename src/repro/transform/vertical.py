"""Vertical TE transformation (paper Sec. 6.2).

Chains of TEs connected by *one-relies-on-one* dependence collapse into a
single semantic-preserving TE by substituting producer bodies into consumer
bodies — the TE-level realisation of composing the quasi-affine index maps
(Eq. 2). The Fig. 4 example (relu -> strided_slice -> permute) reduces three
TEs to one.

Two inlining forms keep the "Reduce only at top level" invariant:

* an **elementwise producer** inlines into any consumer (including into a
  reduction body), provided it has a single consuming TE;
* a **reduction producer** inlines into a consumer that is a *pure memory
  op* (its body is a single read of the producer), which re-indexes the
  reduction's output — this is what eliminates reshape/transpose kernels
  after GEMMs (Sec. 2.3 "eventually eliminates all element-wise memory
  operators").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.te_program import TENode, TEProgram
from repro.te.expr import Expr, IterVar, Reduce, TensorRead
from repro.te.patterns import count_arith_ops
from repro.te.tensor import ComputeOp, Tensor
from repro.te.traversal import replace_tensor_reads, substitute_vars, walk
from repro.transform.common import rebuild
from repro.transform.simplify import Interval, simplify_expr

# Inlined bodies beyond this size stop being profitable to duplicate.
DEFAULT_MAX_BODY_NODES = 600


@dataclass
class VerticalReport:
    """What the pass did: (producer, consumer) pairs that were fused."""

    inlined: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def num_inlined(self) -> int:
        return len(self.inlined)


def _is_pure_memory_body(body: Expr, producer: Tensor) -> bool:
    """Body is exactly one read of ``producer`` (reshape/transpose/slice)."""
    return isinstance(body, TensorRead) and body.tensor is producer


def _recompute_amplification(consumer: Tensor, producer: Tensor) -> float:
    """How many times each producer element would be recomputed if inlined.

    A consumer evaluates its body once per output element, times the
    reduction domain if the read sits under a reduce. Amplification 1 means
    the inlined producer still runs exactly once per element (e.g. a scale
    folded into the following row-sum); a GEMV re-reading an activation K
    times per output amplifies K-fold — the schedule-propagation path
    (Sec. 6.3) handles those instead of inlining.
    """
    assert consumer.op is not None
    domain = 1
    for node in walk(consumer.op.body):
        if isinstance(node, Reduce):
            for ax in node.axes:
                domain *= ax.extent
    evaluations = consumer.num_elements * domain
    return evaluations / max(producer.num_elements, 1)


def _is_index_remap_only(body: Expr) -> bool:
    """Producer body performs no data arithmetic (only index remapping)."""
    return count_arith_ops(body, include_index_math=False) == 0


def _interval(ax: IterVar) -> Interval:
    return Interval(ax.dom.lo, ax.dom.hi - 1)


def _summarise(body: Expr) -> Tuple[int, Dict[str, Interval]]:
    """Node count and reduce-axis intervals of a body, in one walk."""
    count = 0
    reduces: Dict[str, Interval] = {}
    for sub in walk(body):
        count += 1
        if isinstance(sub, Reduce):
            for ax in sub.axes:
                reduces[ax.name] = _interval(ax)
    return count, reduces


@dataclass(frozen=True)
class _Inlined:
    """A rewritten TE body waiting to be substituted into its consumer."""

    axes: tuple
    body: Expr
    # Intervals of the reduce axes inside ``body``; empty for an
    # elementwise body.
    reduces: Dict[str, Interval]
    # (op_name, op_type) a memory-op consumer adopts with a reduction.
    identity: Tuple[str, str]


def vertical_transform(
    program: TEProgram,
    groups: Optional[Dict[TENode, int]] = None,
    max_body_nodes: int = DEFAULT_MAX_BODY_NODES,
) -> Tuple[TEProgram, VerticalReport]:
    """Fuse one-relies-on-one chains across the whole program.

    ``groups`` (TE -> subprogram id) restricts fusion to within a subprogram,
    matching Algorithm 1 which transforms per-partition.
    """
    report = VerticalReport()
    consumer_count: Dict[int, int] = {}
    consumer_of: Dict[int, TENode] = {}
    for node in program:
        for tensor in node.inputs:
            consumer_count[id(tensor)] = consumer_count.get(id(tensor), 0) + 1
            consumer_of[id(tensor)] = node

    # old tensor -> rebuilt tensor (kept nodes)
    kept: Dict[int, Tensor] = {}
    # old tensor -> rewritten body available for substitution
    inline_def: Dict[int, _Inlined] = {}

    new_nodes: List[TENode] = []
    for node in program:
        old = node.tensor
        assert old.op is not None
        original_body = old.op.body
        adopted: Optional[Tuple[str, str]] = None
        # Variable intervals of the rewritten body: the TE's own axes, the
        # reduce axes of its body and those each inlined body brings in
        # (reduce-axis names are unique per TE, and substitution keeps
        # them), so the rewritten body is never walked for them.
        ranges = {ax.name: _interval(ax) for ax in old.op.axes}
        ranges.update(_summarise(original_body)[1])

        def redirect(read: TensorRead) -> Optional[Expr]:
            nonlocal adopted
            target = read.tensor
            definition = inline_def.get(id(target))
            if definition is not None:
                mapping = {
                    ax.name: idx
                    for ax, idx in zip(definition.axes, read.indices)
                }
                if definition.reduces:
                    adopted = definition.identity
                    ranges.update(definition.reduces)
                return substitute_vars(definition.body, mapping)
            replacement = kept.get(id(target))
            if replacement is not None and replacement is not target:
                return TensorRead(replacement, read.indices)
            return None

        body = replace_tensor_reads(original_body, redirect)
        # Each inlined body had this node as its one consumer: let it go.
        for tensor in node.inputs:
            inline_def.pop(id(tensor), None)
        body = simplify_expr(body, ranges)

        # Decide whether this (rewritten) TE should be inlined downstream.
        single_consumer = consumer_count.get(id(old), 0) == 1
        same_group = True
        if groups is not None and single_consumer:
            consumer = consumer_of[id(old)]
            same_group = groups.get(node) == groups.get(consumer)
        inlinable = (
            single_consumer and same_group and not program.is_output(old)
        )
        if inlinable:
            size, reduces = _summarise(body)
            inlinable = size <= max_body_nodes
        if inlinable:
            consumer = consumer_of[id(old)]
            assert consumer.tensor.op is not None
            if not reduces:
                # Elementwise producer: inlinable unless inlining would
                # recompute each element many times (arithmetic body read
                # repeatedly under a consumer's reduction axis). Pure index
                # remaps are always free to fold (transpose into GEMM reads).
                if _recompute_amplification(consumer.tensor, old) > 1.0:
                    inlinable = _is_index_remap_only(body)
            else:
                # Reduction: only into a pure memory-op consumer.
                inlinable = _is_pure_memory_body(consumer.tensor.op.body, old)

        if inlinable:
            inline_def[id(old)] = _Inlined(
                old.op.axes, body, reduces,
                adopted or (node.op_name, node.op_type),
            )
            report.inlined.append(
                (node.name, consumer_of[id(old)].name)
            )
            continue

        new_tensor = Tensor(
            old.shape, dtype=old.dtype, name=old.name,
            op=ComputeOp(old.op.axes, body),
        )
        kept[id(old)] = new_tensor
        op_name, op_type = adopted or (node.op_name, node.op_type)
        new_nodes.append(TENode(len(new_nodes), new_tensor, op_name, op_type))

    outputs = [kept[id(out)] for out in program.outputs]
    return rebuild(program, new_nodes, outputs), report
