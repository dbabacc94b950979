"""Block-level tiling of map→reduce→map chains (PowerFusion-style).

Operator-level fusion (``plan_opt`` pass 2) only collapses single-consumer
``map`` chains; softmax, layernorm and attention-score chains — everywhere
in BERT/Swin/MMoE — are map→reduce→map and still materialise their
intermediates (the exp grid, the per-row sums) at full tensor size through
the arena on every request. This module tiles such chains along a leading
*non-reduced* row axis into cache-blocked sub-steps: each block computes
the whole chain — elementwise pre-map, reduction, post-map — inside a
per-worker scratch block sized by a footprint model against a configurable
cache budget, writing only the chain's final output rows to the arena.

Bit-identity is preserved by construction (the swin lesson): blocks
partition the row axis only, never a reduction axis, so every output row's
floating-point accumulation involves exactly the same elements in exactly
the same numpy reduction order as the untiled plan; slicing rows changes
*which* rows a step computes, not *how* any one row is computed.

Detection runs over the optimizer's :class:`~repro.runtime.plan_opt.
StepGroup` list (post-fusion, pre-levelisation). A chain is grown backward
from a terminal group; a producer group is internalised only when every
read of its output is *row-aligned* (first index is the reader's own row
variable, untouched elsewhere) and every consumer lives inside the chain.
Einsum- and const-kind steps never join a chain (layernorm's sum-of-squares
lowers matmul-shaped and stays an external aligned read).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.graph.te_program import TENode, TEProgram
from repro.runtime.plan_opt import StepGroup
from repro.te.expr import IterVar, Range, TensorRead, Var
from repro.te.tensor import ComputeOp, Tensor
from repro.te.traversal import collect_reads, free_vars, replace_tensor_reads

# Read classes relative to a member's leading row axis.
ALIGNED = "aligned"      # T[row, ...] with row absent from trailing indices
INVARIANT = "invariant"  # row variable absent from every index
POISON = "poison"        # row variable used any other way: not tileable

# Scratch blocks are carved from one flat per-worker buffer; 64-byte slots
# keep every block cache-line aligned (and trivially float64 aligned).
SCRATCH_ALIGN = 64

# Auto-chosen block counts are capped: past this, per-block python dispatch
# overhead outweighs any further footprint shrink. Explicit block sizes
# (tests) are exempt.
MAX_AUTO_BLOCKS = 32


def _align_scratch(nbytes: int) -> int:
    return -(-nbytes // SCRATCH_ALIGN) * SCRATCH_ALIGN


def _row_elements(shape: Sequence[int]) -> int:
    """Elements per row (product of trailing dims)."""
    return math.prod(shape[1:]) if len(shape) > 1 else 1


# ---- read classification ----------------------------------------------------


def _classify_read(read: TensorRead, row: str, rows: int) -> str:
    """Classify one read relative to the reader's row variable."""
    indices = read.indices
    if indices:
        first = indices[0]
        rest: Set[str] = set()
        for i in indices[1:]:
            rest |= free_vars(i)
        if isinstance(first, Var) and first.name == row:
            shape = tuple(getattr(read.tensor, "shape", ()))
            if row not in rest and shape and shape[0] == rows:
                return ALIGNED
            return POISON
    used: Set[str] = set()
    for i in indices:
        used |= free_vars(i)
    return POISON if row in used else INVARIANT


def member_read_classes(node: TENode, rows: int) -> Optional[Dict[int, str]]:
    """Per-tensor read classes for one member, or ``None`` if untileable.

    A member is untileable when any read is :data:`POISON` or when two
    reads of the same tensor disagree (the block rewrite substitutes per
    tensor, not per read site).
    """
    op = node.tensor.op
    if op is None or not op.axes:
        return None
    row = op.axes[0].name
    classes: Dict[int, str] = {}
    for read in collect_reads(op.body):
        cls = _classify_read(read, row, rows)
        if cls == POISON:
            return None
        prev = classes.setdefault(id(read.tensor), cls)
        if prev != cls:
            return None
    return classes


# ---- chain detection --------------------------------------------------------


@dataclass
class TiledChain:
    """One detected chain plus its chosen blocking.

    ``member_nodes`` is every original TE node the chain computes, in
    dependency order (group order, each group's terminal last); every one
    except ``terminal`` lives in per-worker scratch, never the arena.
    """

    index: int
    groups: List                      # StepGroups, chain order
    terminal: TENode
    rows: int
    block_rows: int
    block_ranges: List[Tuple[int, int]]
    member_nodes: List[TENode]
    internal_ids: Set[int]            # member tensors kept in scratch
    aligned_reads: List[Tensor]       # externals sliced per block
    invariant_reads: List[Tensor]     # externals passed through whole
    read_classes: Dict[int, Dict[int, str]]  # node index -> tensor id -> class
    scratch_offsets: Dict[int, Tuple[int, int]]  # tensor id -> (offset, nbytes)
    scratch_bytes: int
    per_row_bytes: int

    @property
    def name(self) -> str:
        return "+".join(g.name for g in self.groups)

    @property
    def num_blocks(self) -> int:
        return len(self.block_ranges)


class _GroupInfo:
    """Detection-time facts about one step group."""

    __slots__ = ("group", "eligible", "rows", "has_reduce", "node_classes",
                 "tensor_classes")

    def __init__(self, group, kinds) -> None:
        self.group = group
        self.rows = 0
        self.has_reduce = any(
            kinds[m.index] == "reduce" for m in group.members
        )
        self.node_classes: Dict[int, Dict[int, str]] = {}
        self.tensor_classes: Dict[int, str] = {}
        self.eligible = self._analyze(group, kinds)

    def _analyze(self, group, kinds) -> bool:
        shape = tuple(group.terminal.tensor.shape)
        if not shape or shape[0] < 2:
            return False
        self.rows = shape[0]
        for m in group.members:
            if kinds[m.index] not in ("map", "reduce"):
                return False
            if tuple(m.tensor.shape[:1]) != (self.rows,):
                return False
            classes = member_read_classes(m, self.rows)
            if classes is None:
                return False
            self.node_classes[m.index] = classes
            for tid, cls in classes.items():
                prev = self.tensor_classes.setdefault(tid, cls)
                if prev != cls:
                    # Mixed across members is representable at runtime but
                    # the internalisation rules below want one answer.
                    self.tensor_classes[tid] = POISON
        return True


def _block_ranges(rows: int, block_rows: int) -> List[Tuple[int, int]]:
    """Partition ``[0, rows)`` into consecutive blocks (last may be short).

    A module-level seam so mutation tests can seed a wrong boundary and
    assert :func:`validate_partition` (or the bit-identity oracle) catches
    it.
    """
    return [
        (lo, min(rows, lo + block_rows))
        for lo in range(0, rows, block_rows)
    ]


def validate_partition(rows: int, ranges: Sequence[Tuple[int, int]]) -> None:
    """Blocks must tile ``[0, rows)`` exactly: no gap, overlap or reorder.

    Anything else silently recomputes or skips rows, so this raises
    :class:`~repro.errors.PlanningError` rather than diagnose-and-continue.
    """
    expect = 0
    for lo, hi in ranges:
        if lo != expect or hi <= lo:
            raise PlanningError(
                f"tiled blocks do not partition [0, {rows}): "
                f"block [{lo}, {hi}) follows row {expect}"
            )
        expect = hi
    if expect != rows:
        raise PlanningError(
            f"tiled blocks cover [0, {expect}) but the chain has "
            f"{rows} rows"
        )


def detect_chains(
    program: TEProgram,
    groups: Sequence,
    kinds: Dict[int, str],
    lanes: int,
    budget: int,
    block_rows: Optional[int] = None,
) -> List[TiledChain]:
    """Find tileable chains and choose their blocking.

    With ``block_rows`` every eligible chain is tiled at that size (the
    test hook); otherwise a chain is tiled only when its working set
    exceeds ``budget`` bytes — the footprint model's profitability gate —
    with the block size chosen so one block's rows fit the budget.
    """
    infos = {g.position: _GroupInfo(g, kinds) for g in groups}
    by_pos = {g.position: g for g in groups}
    by_terminal = {id(g.terminal.tensor): g.position for g in groups}
    readers: Dict[int, List[int]] = {}
    for g in groups:
        for t in g.reads:
            readers.setdefault(id(t), []).append(g.position)

    claimed: Set[int] = set()
    chains: List[TiledChain] = []
    for seed in sorted(groups, key=lambda g: -g.position):
        if seed.position in claimed or not infos[seed.position].eligible:
            continue
        members = {seed.position}
        changed = True
        while changed:
            changed = False
            for pos in list(members):
                info = infos[pos]
                for tid, cls in info.tensor_classes.items():
                    if cls != ALIGNED:
                        continue
                    ppos = by_terminal.get(tid)
                    if ppos is None or ppos in members or ppos in claimed:
                        continue
                    pinfo = infos[ppos]
                    if not pinfo.eligible or pinfo.rows != info.rows:
                        continue
                    if program.is_output(by_pos[ppos].terminal.tensor):
                        continue
                    # Internalising removes the tensor from the arena, so
                    # *every* consumer must sit inside the chain and read
                    # it row-aligned (a single whole-tensor reader would
                    # need the arena copy the blocks no longer write).
                    rdrs = readers.get(tid, [])
                    if not rdrs or any(r not in members for r in rdrs):
                        continue
                    if any(
                        infos[r].tensor_classes.get(tid) != ALIGNED
                        for r in rdrs
                    ):
                        continue
                    members.add(ppos)
                    changed = True
        if len(members) < 2:
            continue
        chain_groups = [by_pos[p] for p in sorted(members)]
        if not any(infos[p].has_reduce for p in members):
            continue
        chain = _build_chain(
            program, chain_groups, infos, len(chains), lanes, budget,
            block_rows,
        )
        if chain is None:
            continue
        claimed.update(members)
        chains.append(chain)
    chains.sort(key=lambda c: c.groups[-1].position)
    for i, c in enumerate(chains):
        c.index = i
    return chains


def _build_chain(
    program: TEProgram,
    chain_groups: List,
    infos: Dict[int, "_GroupInfo"],
    index: int,
    lanes: int,
    budget: int,
    block_rows: Optional[int],
) -> Optional[TiledChain]:
    """Assemble one chain, deciding its block size (or rejecting it)."""
    terminal = chain_groups[-1].terminal
    rows = infos[chain_groups[-1].position].rows
    member_nodes: List[TENode] = [
        m for g in chain_groups for m in g.members
    ]
    internal_ids = {
        id(m.tensor) for m in member_nodes if m is not terminal
    }
    read_classes = {}
    for g in chain_groups:
        read_classes.update(infos[g.position].node_classes)

    # One external tensor may be row-aligned for one member and invariant
    # for another (e.g. a bias both broadcast and gathered); it then needs
    # both a sliced block clone and a whole-tensor passthrough.
    aligned_ids: Set[int] = set()
    invariant_ids: Set[int] = set()
    for classes in read_classes.values():
        for tid, cls in classes.items():
            if tid in internal_ids:
                continue
            (aligned_ids if cls == ALIGNED else invariant_ids).add(tid)
    aligned_reads: List[Tensor] = []
    invariant_reads: List[Tensor] = []
    seen: Set[int] = set()
    for g in chain_groups:
        for t in g.reads:
            tid = id(t)
            if tid in internal_ids or tid in seen:
                continue
            seen.add(tid)
            if tid in aligned_ids:
                aligned_reads.append(t)
            if tid in invariant_ids:
                invariant_reads.append(t)

    # Footprint model: bytes one row drags through cache across the whole
    # chain — every scratch intermediate, every sliced external and the
    # terminal's output row, times the plan's batch lanes.
    per_row = lanes * 8 * (
        sum(_row_elements(m.tensor.shape) for m in member_nodes)
        + sum(_row_elements(t.shape) for t in aligned_reads)
    )
    if block_rows is not None:
        blk = max(1, min(int(block_rows), rows))
    elif per_row * rows <= budget:
        return None  # fits in cache already: tiling is pure overhead
    else:
        blk = max(1, min(budget // per_row, rows))
        min_blk = -(-rows // MAX_AUTO_BLOCKS)
        blk = max(blk, min_blk)
    ranges = _block_ranges(rows, blk)
    if len(ranges) < 2:
        return None
    validate_partition(rows, ranges)

    offsets: Dict[int, Tuple[int, int]] = {}
    off = 0
    for m in member_nodes:
        if m is terminal:
            continue
        nbytes = lanes * blk * _row_elements(m.tensor.shape) * 8
        offsets[id(m.tensor)] = (off, nbytes)
        off += _align_scratch(nbytes)

    return TiledChain(
        index=index,
        groups=chain_groups,
        terminal=terminal,
        rows=rows,
        block_rows=blk,
        block_ranges=ranges,
        member_nodes=member_nodes,
        internal_ids=internal_ids,
        aligned_reads=aligned_reads,
        invariant_reads=invariant_reads,
        read_classes=read_classes,
        scratch_offsets=offsets,
        scratch_bytes=off,
        per_row_bytes=per_row,
    )


# ---- tiled step groups ------------------------------------------------------


class TiledStepGroup(StepGroup):
    """One cache-block of a tiled chain, as an optimizer step group.

    Downstream layers treat it like any :class:`StepGroup` — its members
    are every original node the chain computes (so characterisation and
    work estimates see the real computation) and its terminal/reads drive
    dependency edges: every block "writes" the chain terminal (disjoint
    row slices) and reads only the chain's external tensors.
    """

    def __init__(self, chain: TiledChain, block_index: int) -> None:
        reads: List[Tensor] = []
        seen: Set[int] = set()
        for t in list(chain.aligned_reads) + list(chain.invariant_reads):
            if id(t) not in seen:
                seen.add(id(t))
                reads.append(t)
        super().__init__(
            position=0,
            members=list(chain.member_nodes),
            terminal=chain.terminal,
            reads=reads,
        )
        self.chain = chain
        self.block_index = block_index

    @property
    def name(self) -> str:  # type: ignore[override]
        return (
            f"{self.chain.name}"
            f"[blk {self.block_index + 1}/{self.chain.num_blocks}]"
        )

    @property
    def row_range(self) -> Tuple[int, int]:
        return self.chain.block_ranges[self.block_index]

    def work_elements(self, lanes: int) -> int:
        """Elements this block actually moves (full-chain work, scaled)."""
        lo, hi = self.row_range
        total = sum(lanes * m.tensor.num_elements for m in self.members)
        return total * (hi - lo) // max(1, self.chain.rows)


def make_tiled_groups(chain: TiledChain) -> List["TiledStepGroup"]:
    """One :class:`TiledStepGroup` per block, in row order."""
    return [TiledStepGroup(chain, b) for b in range(chain.num_blocks)]


def apply_tiling(groups: List, chains: List[TiledChain]) -> List:
    """Replace each chain's groups with its per-block tiled groups."""
    dropped: Set[int] = set()
    replaced: Dict[int, TiledChain] = {}
    for c in chains:
        validate_partition(c.rows, c.block_ranges)
        for g in c.groups[:-1]:
            dropped.add(g.position)
        replaced[c.groups[-1].position] = c
    out: List = []
    for g in groups:
        if g.position in dropped:
            continue
        c = replaced.get(g.position)
        if c is None:
            out.append(g)
        else:
            out.extend(make_tiled_groups(c))
    for pos, g in enumerate(out):
        g.position = pos
    return out


# ---- runtime: scratch pool + block closures ---------------------------------


class ScratchPool:
    """Thread-safe free list of flat per-worker scratch buffers.

    Concurrent requests may replay one plan on several threads; each
    block run borrows one buffer (sized for the plan's largest chain) and
    returns it, so steady-state serving allocates nothing.
    """

    def __init__(self, nbytes: int, max_keep: int = 32) -> None:
        self.nbytes = nbytes
        self.allocated = 0
        self._free: List[np.ndarray] = []
        self._lock = threading.Lock()
        self._max_keep = max_keep

    def acquire(self) -> np.ndarray:
        with self._lock:
            if self._free:
                return self._free.pop()
            self.allocated += 1
        return np.empty(self.nbytes, dtype=np.uint8)

    def release(self, buf: np.ndarray) -> None:
        with self._lock:
            if len(self._free) < self._max_keep:
                self._free.append(buf)


class _BlockPlan:
    """Compiled steps + binding recipe for one block extent."""

    __slots__ = ("runs", "aliases", "passthrough", "scratch", "term_key",
                 "block_tensors")

    def __init__(self) -> None:
        self.runs = []         # compiled step closures, chain order
        self.aliases = []      # (block tensor key, source tensor key)
        self.passthrough = []  # keys copied whole from the outer table
        self.scratch = []      # (key, byte offset, nbytes, view shape)
        self.term_key = 0
        # Keep the rewritten tensors alive: closures key the values table
        # by id(), which must not be recycled underneath them.
        self.block_tensors = []


def _compile_block_plan(
    chain: TiledChain, extent: int, batch_size: Optional[int]
) -> _BlockPlan:
    """Rewrite and compile every chain member at one block extent.

    Each member gets a clone whose leading axis spans ``extent`` rows;
    reads of in-chain tensors and row-aligned externals are redirected to
    block clones (indices unchanged — the row variable now sweeps the
    block), invariant reads keep their original tensors. Compilation goes
    through the executor's own step compiler, so block steps run the same
    numpy kernels per row as the untiled plan.
    """
    from repro.runtime.executor import EXEC_ITEMSIZE, compile_plan_step

    bp = _BlockPlan()
    lanes_shape = () if batch_size is None else (int(batch_size),)
    clone: Dict[int, Tensor] = {}
    for t in chain.aligned_reads:
        bt = Tensor(
            (extent,) + tuple(t.shape[1:]), dtype=t.dtype, name=t.name
        )
        clone[id(t)] = bt
        bp.aliases.append((id(bt), id(t)))
        bp.block_tensors.append(bt)
    bp.passthrough = [id(t) for t in chain.invariant_reads]

    for node in chain.member_nodes:
        classes = chain.read_classes[node.index]
        op = node.tensor.op

        def sub(read, clone=clone, classes=classes):
            target = clone.get(id(read.tensor))
            if target is None or classes.get(id(read.tensor)) != ALIGNED:
                return None
            return TensorRead(target, read.indices)

        body = replace_tensor_reads(op.body, sub)
        row = op.axes[0]
        bt = Tensor(
            (extent,) + tuple(node.tensor.shape[1:]),
            dtype=node.tensor.dtype,
            name=node.tensor.name,
            op=ComputeOp(
                (IterVar(Var(row.name), Range(0, extent), "spatial"),)
                + tuple(op.axes[1:]),
                body,
            ),
        )
        clone[id(node.tensor)] = bt
        bp.block_tensors.append(bt)
        step = compile_plan_step(
            bt, index=len(bp.runs), key=id(bt), batch_size=batch_size
        )
        bp.runs.append(step.run)
        if node is chain.terminal:
            bp.term_key = id(bt)
        else:
            offset, _full = chain.scratch_offsets[id(node.tensor)]
            shape = lanes_shape + (extent,) + tuple(node.tensor.shape[1:])
            bp.scratch.append(
                (id(bt), offset, math.prod(shape) * EXEC_ITEMSIZE, shape)
            )
    return bp


class ChainRuntime:
    """Executable form of one chain: per-extent compiled block plans."""

    def __init__(
        self,
        chain: TiledChain,
        batch_size: Optional[int],
        pool: ScratchPool,
    ) -> None:
        from repro.runtime.executor import EXEC_DTYPE

        self.chain = chain
        self.pool = pool
        self._batched = batch_size is not None
        self._dtype = EXEC_DTYPE
        self._term_source = id(chain.terminal.tensor)
        self._plans = {
            extent: _compile_block_plan(chain, extent, batch_size)
            for extent in sorted({hi - lo for lo, hi in chain.block_ranges})
        }

    def block_run(self, block_index: int):
        """The run closure for one block: bind views, replay the chain."""
        lo, hi = self.chain.block_ranges[block_index]
        bp = self._plans[hi - lo]
        batched = self._batched
        pool = self.pool
        dtype = self._dtype
        term_source = self._term_source

        def run_block(v):
            buf = pool.acquire()
            try:
                local = {}
                for bk, sk in bp.aliases:
                    src = v[sk]
                    local[bk] = src[:, lo:hi] if batched else src[lo:hi]
                for k in bp.passthrough:
                    local[k] = v[k]
                for bk, offset, nbytes, shape in bp.scratch:
                    local[bk] = (
                        buf[offset:offset + nbytes].view(dtype).reshape(shape)
                    )
                out = v[term_source]
                local[bp.term_key] = out[:, lo:hi] if batched else out[lo:hi]
                for run in bp.runs:
                    run(local)
            finally:
                pool.release(buf)

        return run_block
