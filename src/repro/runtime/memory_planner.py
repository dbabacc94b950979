"""Global-memory planning for intermediate tensors.

The paper's global analysis captures tensor live ranges "across operator
boundaries" (Sec. 1); besides driving the on-chip reuse cache, live ranges
let the runtime share *global* buffers between non-overlapping
intermediates — the workspace a deployment actually allocates. This module
implements the classic greedy interval-packing planner over the liveness
analysis and reports the memory-footprint numbers deployment cares about.

Two planning flavours exist. The default models the paper's GPU workspace:
a consumer kernel may write its output over an operand that dies at the
same program point (in-place reuse). ``exclusive_writes=True`` forbids
exactly that — an executor that writes a step's result *while* its operand
views are still being read (the numpy :class:`~repro.runtime.executor.
ExecutionPlan` arena) needs operand and result bytes disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.liveness import LiveRange, live_ranges
from repro.graph.te_program import TEProgram
from repro.te.tensor import Tensor

# Buffers are aligned the way CUDA allocators align them.
ALIGNMENT = 256


def _align(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _conflicts(a: LiveRange, b: LiveRange, exclusive_writes: bool) -> bool:
    """Whether two tensors may not share bytes.

    With ``exclusive_writes`` a tensor consumed at step ``k`` still conflicts
    with a tensor defined at step ``k``: the write happens while the operand
    is read, so handing the dying operand's bytes to the result is unsafe.
    """
    if exclusive_writes:
        return not (a.last_use < b.def_index or b.last_use < a.def_index)
    return a.overlaps(b)


def conflicting_pairs(
    lives: Sequence[LiveRange], exclusive_writes: bool
) -> Iterator[Tuple[int, int]]:
    """Every pair of indices into ``lives`` whose live ranges conflict.

    One sweep by definition index: a range stays in the live set until a
    later definition passes its last use, and each range is tested only
    against that set, so the cost follows the number of intersecting
    pairs rather than the square of the range count. Both conflict rules
    need ``b.def_index <= a.last_use`` for ``a`` swept before ``b``, which
    is exactly what the live set keeps, so no conflicting pair is missed.
    Each pair is yielded once, earlier-swept index first.
    """
    order = sorted(range(len(lives)), key=lambda i: lives[i].def_index)
    live: List[int] = []
    for j in order:
        b = lives[j]
        live = [i for i in live if lives[i].last_use >= b.def_index]
        for i in live:
            if _conflicts(lives[i], b, exclusive_writes):
                yield i, j
        live.append(j)


def pack_intervals(
    items: List[Tuple[int, LiveRange]], exclusive_writes: bool
) -> Tuple[List[int], int]:
    """Greedy best-fit-decreasing packing of (nbytes, live-range) intervals.

    The core placement loop shared by :func:`plan_memory` and the runtime
    plan optimizer's arena repacker (which packs over *optimized step
    positions* rather than TE indices — the live-range index domain is the
    caller's). Sizes are aligned here; ties in the decreasing-size order
    keep input order (stable sort), so layouts are deterministic. Each
    item takes the lowest offset clear of the already-placed items it
    conflicts with. Returns per-item offsets in input order plus the
    packed workspace size.
    """
    order = sorted(range(len(items)), key=lambda i: -items[i][0])
    rank = [0] * len(items)
    for r, i in enumerate(order):
        rank[i] = r
    # Each item is placed against the conflicting items placed before it.
    placed_before: List[List[int]] = [[] for _ in items]
    for i, j in conflicting_pairs([live for _, live in items],
                                  exclusive_writes):
        if rank[i] < rank[j]:
            placed_before[j].append(i)
        else:
            placed_before[i].append(j)
    offsets = [0] * len(items)
    ends = [0] * len(items)
    workspace = 0
    for i in order:
        nbytes = _align(items[i][0])
        offset = 0
        for existing_offset, existing_end in sorted(
            (offsets[k], ends[k]) for k in placed_before[i]
        ):
            if offset + nbytes <= existing_offset:
                break
            offset = max(offset, existing_end)
        offsets[i] = offset
        ends[i] = offset + nbytes
        workspace = max(workspace, offset + nbytes)
    return offsets, workspace


@dataclass(frozen=True)
class BufferAssignment:
    """One tensor's placement inside the shared workspace."""

    tensor: Tensor
    offset: int
    nbytes: int
    live: LiveRange

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


@dataclass
class MemoryPlan:
    """A full workspace layout for a TE program's intermediates."""

    assignments: Dict[Tensor, BufferAssignment] = field(default_factory=dict)
    workspace_bytes: int = 0
    unshared_bytes: int = 0     # what naive one-buffer-per-tensor would cost
    exclusive_writes: bool = False
    # Block-level tiling (runtime.tiling): per-worker scratch buffer size
    # and, per tiled chain, the (tensor name, offset, nbytes) scratch blocks
    # carved from it. Scratch is outside the arena — the verifier's
    # check_arena validates these blocks never alias each other.
    scratch_bytes: int = 0
    scratch_chains: Dict[int, List[Tuple[str, int, int]]] = field(
        default_factory=dict
    )

    @property
    def sharing_ratio(self) -> float:
        """How much smaller the planned workspace is than naive allocation."""
        if self.workspace_bytes == 0:
            return 1.0
        return self.unshared_bytes / self.workspace_bytes

    def render(self, top: int = 12) -> str:
        lines = [
            f"workspace: {self.workspace_bytes / 1e6:.2f} MB "
            f"(naive {self.unshared_bytes / 1e6:.2f} MB, "
            f"{self.sharing_ratio:.2f}x sharing)",
            f"{'tensor':28s} {'offset':>10s} {'bytes':>10s} {'live':>12s}",
        ]
        ordered = sorted(self.assignments.values(), key=lambda a: -a.nbytes)
        for a in ordered[:top]:
            lines.append(
                f"{a.tensor.name[:28]:28s} {a.offset:10d} {a.nbytes:10d} "
                f"[{a.live.def_index:4d},{a.live.last_use:4d}]"
            )
        return "\n".join(lines)


def plan_memory(
    program: TEProgram,
    sizer: Optional[Callable[[Tensor], int]] = None,
    exclusive_writes: bool = False,
) -> MemoryPlan:
    """Pack intermediate tensors into a shared workspace.

    Greedy best-fit by decreasing size: each tensor takes the lowest offset
    at which it does not spatially collide with any already-placed tensor
    whose live range conflicts with its own. Inputs and model outputs are
    excluded (they live in caller-owned buffers).

    ``sizer`` overrides the per-tensor byte size (default: the tensor's
    declared ``size_bytes``); the execution engine sizes buffers for its
    float64 compute representation. ``exclusive_writes`` additionally keeps
    each step's operands disjoint from its result (see module docstring).
    """
    ranges = live_ranges(program)
    plan = MemoryPlan(exclusive_writes=exclusive_writes)
    size_of = sizer if sizer is not None else (lambda t: t.size_bytes)

    intermediates: List[Tuple[Tensor, LiveRange]] = []
    for node in program:
        tensor = node.tensor
        if program.is_output(tensor):
            continue
        intermediates.append((tensor, ranges[tensor]))

    plan.unshared_bytes = sum(_align(size_of(t)) for t, _ in intermediates)

    items = [(size_of(t), live) for t, live in intermediates]
    offsets, workspace = pack_intervals(items, exclusive_writes)
    for (tensor, live), offset in zip(intermediates, offsets):
        plan.assignments[tensor] = BufferAssignment(
            tensor, offset, _align(size_of(tensor)), live
        )
    plan.workspace_bytes = workspace
    return plan
