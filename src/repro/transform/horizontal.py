"""Horizontal TE transformation (paper Sec. 6.1, Fig. 3).

Independent TEs that consume a common input tensor (the spatial-reuse sets
from Sec. 5.1) and share one computation structure merge into a single TE:
their outputs concatenate along one axis and an ``if_then_else`` predicate
selects the branch, so the shared input is loaded once inside one kernel and
SIMD parallelism increases. For reduction TEs the reduction is hoisted: all
branches must share the reduction signature, producing
``sum(select(i < n0, bodyA, bodyB))`` exactly as in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dependence import independent, reachability_masks
from repro.analysis.reuse import find_reuse
from repro.graph.te_program import TENode, TEProgram
from repro.te.expr import (
    Expr,
    IterVar,
    Range,
    Reduce,
    TensorRead,
    Var,
    if_then_else,
    maximum,
    minimum,
)
from repro.te.tensor import ComputeOp, Tensor, spatial_axis
from repro.te.traversal import replace_tensor_reads, substitute_vars
from repro.transform.common import rebuild

MAX_BRANCHES = 16


@dataclass
class HorizontalReport:
    """Merged groups: list of (merged name, member names)."""

    merged: List[Tuple[str, List[str]]] = field(default_factory=list)

    @property
    def num_merged_groups(self) -> int:
        return len(self.merged)


def _reduce_signature(tensor: Tensor) -> Optional[Tuple[str, Tuple[int, ...]]]:
    assert tensor.op is not None
    body = tensor.op.body
    if isinstance(body, Reduce):
        return (body.kind, tuple(ax.extent for ax in body.axes))
    return None


def _mergeable(a: Tensor, b: Tensor) -> Optional[int]:
    """Concat axis if ``a`` and ``b`` can merge, else ``None``."""
    if a.ndim != b.ndim or a.dtype != b.dtype:
        return None
    if _reduce_signature(a) != _reduce_signature(b):
        return None
    diff = [d for d in range(a.ndim) if a.shape[d] != b.shape[d]]
    if len(diff) > 1:
        return None
    return diff[0] if diff else a.ndim - 1


def _clamped(var_expr: Expr, offset: int, extent: int, full_extent: int) -> Expr:
    index: Expr = var_expr if offset == 0 else var_expr - offset
    if offset == 0 and extent == full_extent:
        return index
    return minimum(maximum(index, 0), extent - 1)


def _merged_shape(members: List[TENode], axis: int) -> Tuple[int, ...]:
    out_shape = list(members[0].tensor.shape)
    out_shape[axis] = sum(m.tensor.shape[axis] for m in members)
    return tuple(out_shape)


def _build_merged_op(
    members: List[TENode],
    bodies: List[Expr],
    axis: int,
    name: str,
) -> ComputeOp:
    """Build the concatenated ComputeOp from (possibly rewritten) member
    bodies."""
    first = members[0].tensor
    assert first.op is not None
    out_shape = _merged_shape(members, axis)
    new_axes = [
        spatial_axis(extent, f"h{d}_{name}") for d, extent in enumerate(out_shape)
    ]
    new_vars = [ax.var for ax in new_axes]

    signature = _reduce_signature(first)
    common_reduce: List[IterVar] = []
    if signature is not None:
        kind, extents = signature
        common_reduce = [
            IterVar(Var(f"hr{d}_{name}"), Range(0, extent), kind="reduce")
            for d, extent in enumerate(extents)
        ]

    branches: List[Tuple[int, int, Expr]] = []  # (offset, extent, inner body)
    offset = 0
    for member, body in zip(members, bodies):
        tensor = member.tensor
        assert tensor.op is not None
        mapping: Dict[str, Expr] = {}
        extent = tensor.shape[axis]
        for d, ax in enumerate(tensor.op.axes):
            if d == axis:
                mapping[ax.name] = _clamped(
                    new_vars[d], offset, extent, out_shape[d]
                )
            else:
                mapping[ax.name] = new_vars[d]
        if isinstance(body, Reduce):
            for common, own in zip(common_reduce, body.axes):
                mapping[own.name] = common.var
            inner = substitute_vars(body.body, mapping)
        else:
            inner = substitute_vars(body, mapping)
        branches.append((offset, extent, inner))
        offset += extent

    merged: Optional[Expr] = None
    for off, extent, inner in reversed(branches):
        if merged is None:
            merged = inner
        else:
            merged = if_then_else(new_vars[axis] < off + extent, inner, merged)
    assert merged is not None
    if signature is not None:
        merged = Reduce(signature[0], merged, tuple(common_reduce))
    return ComputeOp(tuple(new_axes), merged)


@dataclass
class _MergeGroup:
    members: List[TENode]
    axis: int
    name: str


def _apply_merges(
    program: TEProgram, merges: List[_MergeGroup], caller_tensors: Set[int]
) -> TEProgram:
    """Rebuild the program replacing every merge group by one TE each.

    Groups are disjoint and no member reads another selected group's member
    (the finder guarantees both). Each merged tensor object is created
    up-front (so reads can redirect to it immediately) but its body is built
    lazily at the group's last member, from the members' *rewritten* bodies —
    replacements of upstream nodes thus propagate into the merged TE.

    Only nodes reading a merged or replaced tensor are rewritten. A
    rewritten tensor of the caller's program (``caller_tensors`` holds their
    ids) is never edited: it is rebuilt and its readers are redirected to
    the copy. One an earlier sweep built takes the new op in place, so its
    readers stay untouched and each sweep costs what it changes.
    """
    merged_tensors: Dict[int, Tuple[Tensor, int, int]] = {}
    group_of_member: Dict[TENode, _MergeGroup] = {}
    merged_of_group: Dict[int, Tensor] = {}
    for merge in merges:
        merged = Tensor(
            _merged_shape(merge.members, merge.axis),
            dtype=merge.members[0].tensor.dtype,
            name=merge.name,
        )
        merged_of_group[id(merge)] = merged
        offset = 0
        for member in merge.members:
            merged_tensors[id(member.tensor)] = (merged, merge.axis, offset)
            offset += member.tensor.shape[merge.axis]
            group_of_member[member] = merge

    replaced: Dict[int, Tensor] = {}
    new_nodes: List[TENode] = []
    pending_bodies: Dict[int, List[Expr]] = {id(m): [] for m in merges}

    def redirect(read: TensorRead) -> Optional[Expr]:
        target = read.tensor
        entry = merged_tensors.get(id(target))
        if entry is not None:
            merged, axis, offset = entry
            indices = list(read.indices)
            if offset:
                indices[axis] = indices[axis] + offset
            return TensorRead(merged, tuple(indices))
        replacement = replaced.get(id(target))
        if replacement is not None:
            return TensorRead(replacement, read.indices)
        return None

    for node in program:
        old = node.tensor
        assert old.op is not None
        body = old.op.body
        # Only a node reading a merged or replaced tensor changes; an
        # untouched one keeps its tensor object (and its memoised reads).
        if any(
            id(t) in merged_tensors or id(t) in replaced for t in node.inputs
        ):
            body = replace_tensor_reads(body, redirect)
        merge = group_of_member.get(node)
        if merge is not None:
            bodies = pending_bodies[id(merge)]
            bodies.append(body)
            if node is merge.members[-1]:
                merged = merged_of_group[id(merge)]
                merged.op = _build_merged_op(
                    merge.members, bodies, merge.axis, merge.name
                )
                new_nodes.append(
                    TENode(len(new_nodes), merged, node.op_name, node.op_type)
                )
            continue
        if body is not old.op.body:
            op = ComputeOp(old.op.axes, body)
            if id(old) in caller_tensors:
                new_tensor = Tensor(
                    old.shape, dtype=old.dtype, name=old.name, op=op
                )
                replaced[id(old)] = new_tensor
                old = new_tensor
            else:
                old.op = op
        new_nodes.append(TENode(len(new_nodes), old, node.op_name, node.op_type))

    outputs = [replaced.get(id(out), out) for out in program.outputs]
    return rebuild(program, new_nodes, outputs)


def _find_groups(
    program: TEProgram,
    groups: Optional[Dict[str, int]],
    max_branches: int,
    serial_start: int,
) -> List[_MergeGroup]:
    """All mergeable spatial-reuse groups that can apply in one rebuild."""
    masks = reachability_masks(program)
    reuse = find_reuse(program, masks)
    used: set = set()
    selected: List[_MergeGroup] = []
    member_tensor_ids: set = set()
    serial = serial_start

    for opportunity in reuse.spatial:
        members: List[TENode] = []
        axis: Optional[int] = None
        for node in opportunity.consumers:
            if node in used or program.is_output(node.tensor):
                continue
            if groups is not None and members:
                if groups.get(node.name) != groups.get(members[0].name):
                    continue
            if not members:
                members.append(node)
                continue
            candidate_axis = _mergeable(members[0].tensor, node.tensor)
            if candidate_axis is None:
                continue
            if axis is not None and candidate_axis != axis:
                continue
            if not all(independent(masks, node, m) for m in members):
                continue
            members.append(node)
            axis = candidate_axis
            if len(members) >= max_branches:
                break
        if len(members) < 2 or axis is None:
            continue
        # Batch safety: no member may read a tensor produced by a member of
        # an already-selected group (its redirect target would not exist when
        # this group's merged body is built). Such groups wait for the next
        # sweep.
        reads_selected = any(
            id(t) in member_tensor_ids for m in members for t in m.inputs
        )
        if reads_selected:
            continue
        members.sort(key=lambda n: n.index)
        selected.append(
            _MergeGroup(members, axis, f"hz{serial}_{members[0].name}")
        )
        serial += 1
        for member in members:
            used.add(member)
            member_tensor_ids.add(id(member.tensor))
    return selected


def horizontal_transform(
    program: TEProgram,
    groups: Optional[Dict[str, int]] = None,
    max_branches: int = MAX_BRANCHES,
) -> Tuple[TEProgram, HorizontalReport]:
    """Merge independent spatial-reuse TEs until none remain.

    ``groups`` maps TE *names* to subprogram ids so merging stays within a
    partition (names survive program rebuilding, node objects do not).
    Each sweep batches all non-interacting groups into one program rebuild;
    groups that read another group's members wait for the next sweep.
    """
    report = HorizontalReport()
    serial = 0
    caller_tensors = {id(node.tensor) for node in program}
    while True:
        merges = _find_groups(program, groups, max_branches, serial)
        if not merges:
            return program, report
        serial += len(merges)
        for merge in merges:
            report.merged.append((merge.name, [m.name for m in merge.members]))
        program = _apply_merges(program, merges, caller_tensors)
