"""Plan-optimizer pass pipeline: rewrite a built execution plan's step list
and arena layout before its first replay.

The compiler-side global analysis (Sec. 5-6 of the paper) fuses TEs and
plans reuse *inside* kernels; this module is its runtime mirror over the
:class:`~repro.runtime.executor.ExecutionPlan` step DAG. Two passes plus
block tiling (:mod:`repro.runtime.tiling`), each required to keep replay
bit-identical to the unoptimized plan (the passes can be switched off for
tests and ablation):

1. **Vertical step fusion** (Sec. 6.2, Eq. 2) — chains of one-relies-on-one
   ``map`` steps whose producer has a single consumer are composed into one
   closure; the intermediate is never materialised and leaves the arena.
2. **In-place elision** (Sec. 6.5 buffer reuse) — a fused or lone
   elementwise step whose input buffer dies at that step writes into its
   input's bytes, shrinking ``workspace_bytes``. Safe because numpy
   computes a ``map`` step's root ufunc as if an operand overlapping its
   ``out=`` did not, a select or bare read is evaluated before it is
   copied, and a step cut into pieces evaluates every piece before its
   first write.

Steps keep program order: each optimized step sits at its terminal TE's
place (a tiled chain's blocks at the chain terminal's), and the arena is
packed once over those positions — twice when elision fires, to keep the
smaller of the elided and plain packings. Replay is the executor's flat
step loop (DESIGN.md, "One replay loop").

A step that reads only weights is an ordinary step: it runs on every
request over the weights that request is served with, so a weight fed anew
or changed in place is read as it is. No program this repo serves has such
a step (DESIGN.md, "Dropped by measurement").

Sum-of-products steps are not rewritten here: each runs the contraction
:func:`~repro.te.patterns.match_contraction` lowers its tensor to, with the
kernel (``np.matmul`` for dense GEMM pieces) chosen by shape inside the one
call the interpreter also makes.

The optimized layout is checked once, by the verifier's arena-hazard pass
(with an explicit allowlist for the deliberate in-place pairs), and the
plan raises :class:`~repro.errors.PlanningError` on any unsafe layout,
exactly like the unoptimized path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.liveness import LiveRange
from repro.errors import PlanningError
from repro.graph.te_program import TENode, TEProgram
from repro.runtime.memory_planner import (
    BufferAssignment,
    MemoryPlan,
    _align,
    pack_intervals,
)
from repro.te.expr import Reduce, Var
from repro.te.patterns import match_contraction
from repro.te.tensor import Tensor
from repro.te.traversal import collect_reads, tensor_inputs
from repro.verify.view import ProgramView


def _identity_reads_only(consumer: TENode, producer: Tensor) -> bool:
    """Whether every read of ``producer`` in ``consumer`` is the identity.

    Mirrors the executor's whole-array read (``T[i, j, ...]`` over the
    consumer's own axes sweeping the full tensor). Fusion is restricted
    to such reads: the fused interior value may be a lazy broadcast
    array, which an identity-reading ufunc consumes as it is, while any
    other strided view of it needs a C-ordered copy first.
    """
    op = consumer.tensor.op
    axis_names = [ax.name for ax in op.axes]
    extents = tuple(ax.extent for ax in op.axes)
    for read in collect_reads(op.body):
        if read.tensor is not producer:
            continue
        names = [i.name for i in read.indices if isinstance(i, Var)]
        if (len(names) != len(read.indices)
                or names != axis_names
                or tuple(producer.shape) != extents):
            return False
    return True


def step_kind(tensor: Tensor) -> str:
    """Static mirror of ``executor.compile_plan_step`` dispatch.

    ``einsum`` for the sums of products ``match_contraction`` lowers to
    strided views, ``const`` for fully data-independent bodies (no tensor
    reads anywhere), otherwise ``reduce``/``map`` by the presence of a
    top-level reduction.
    """
    if match_contraction(tensor) is not None:
        return "einsum"
    body = tensor.op.body
    if not tensor_inputs(tensor):
        return "const"
    return "reduce" if isinstance(body, Reduce) else "map"


@dataclass
class StepGroup:
    """One optimized step: a terminal node plus fused-in producers."""

    position: int               # index in optimized execution order
    members: List[TENode]       # original nodes, program order, terminal last
    terminal: TENode
    reads: List[Tensor]         # tensors read from outside the group

    @property
    def name(self) -> str:
        return "+".join(m.name for m in self.members)


class _StepNode:
    """Duck-typed view node over a :class:`StepGroup` for the verifier.

    The arena-hazard pass only touches ``index``/``tensor``/``name``/
    ``inputs``; a real :class:`~repro.graph.te_program.TENode` would
    recompute ``inputs`` from the TE body and miss the fusion rewiring.
    """

    __slots__ = ("index", "tensor", "name", "inputs")

    def __init__(self, index: int, tensor: Tensor, name: str,
                 inputs: List[Tensor]) -> None:
        self.index = index
        self.tensor = tensor
        self.name = name
        self.inputs = inputs

    def __repr__(self) -> str:
        return f"<StepNode#{self.index} {self.name}>"


@dataclass
class OptimizeStats:
    """What the pass pipeline did to one plan (``repro plan-stats``)."""

    steps_before: int = 0
    steps_after: int = 0
    fused_steps: int = 0             # producers folded into their consumer
    elided_buffers: int = 0
    elided_bytes: int = 0            # arena bytes merged away by elision
    # Steps replay in program order; kept at 0 because perfbench
    # serve-closed reads it.
    parallel_waves: int = 0
    workspace_after: int = 0
    # Block-level tiling (runtime.tiling): reduction chains split into
    # cache-blocked sub-steps with per-worker scratch.
    tiled_chains: int = 0
    tiled_steps: int = 0             # step groups folded into tiled chains
    tiled_blocks: int = 0            # block sub-steps those chains became
    tile_block_rows: List[int] = field(default_factory=list)
    scratch_bytes: int = 0           # per-worker scratch buffer size

    def summary(self) -> str:
        """One line for profile reports."""
        tiled = ""
        if self.tiled_chains:
            tiled = (
                f", {self.tiled_chains} chains tiled into "
                f"{self.tiled_blocks} blocks"
            )
        return (
            f"plan optimizer: {self.steps_before}->{self.steps_after} steps "
            f"({self.fused_steps} fused), "
            f"{self.elided_buffers} elided, "
            f"{self.workspace_after} arena bytes"
            f"{tiled}"
        )

    def render(self, workspace_before: int) -> str:
        """Multi-line report for the ``plan-stats`` CLI, against the
        unoptimized plan's arena of ``workspace_before`` bytes."""
        blocks = (
            "x".join(str(b) for b in self.tile_block_rows)
            if self.tile_block_rows else "-"
        )
        lines = [
            f"steps:            {self.steps_before} -> {self.steps_after}",
            f"  fused into consumers:              {self.fused_steps}",
            f"in-place elisions: {self.elided_buffers} buffers "
            f"({self.elided_bytes} bytes merged)",
            f"tiled chains:      {self.tiled_chains} "
            f"({self.tiled_steps} steps -> {self.tiled_blocks} blocks, "
            f"block rows {blocks}, "
            f"{self.scratch_bytes} scratch bytes/worker)",
            f"arena workspace:   {workspace_before} -> "
            f"{self.workspace_after} bytes "
            f"({workspace_before - self.workspace_after} saved)",
        ]
        return "\n".join(lines)


@dataclass
class PlanOptimization:
    """The static result of the pass pipeline over one program.

    Everything here is computed without materialising any evaluation grid,
    so it also serves ``repro lint`` at paper scale; the runtime closures
    are built from it by :func:`optimize_plan`.
    """

    program: TEProgram
    groups: List[StepGroup]          # optimized steps, execution order
    elided: Dict[int, Tensor]        # group position -> operand reused
    memory_plan: MemoryPlan
    inplace_pairs: Set[Tuple[int, int]]  # (writer tensor id, operand id)
    step_view: ProgramView
    stats: OptimizeStats = field(default_factory=OptimizeStats)
    tiled_chains: List = field(default_factory=list)  # tiling.TiledChain


# ---- static pass pipeline ---------------------------------------------------


def arena_sizer(batch_size: Optional[int] = None) -> Callable[[Tensor], int]:
    """The executor's arena sizing: float64 elements, ``batch_size`` lanes."""
    from repro.runtime.executor import EXEC_ITEMSIZE

    lanes = 1 if batch_size is None else batch_size
    return lambda t: lanes * t.num_elements * EXEC_ITEMSIZE


def plan_optimization(
    program: TEProgram,
    sizer: Optional[Callable[[Tensor], int]] = None,
    batch_size: Optional[int] = None,
    fuse: bool = True,
    elide: bool = True,
    tile: bool = True,
    tile_budget: Optional[int] = None,
    tile_block_rows: Optional[int] = None,
) -> PlanOptimization:
    """Run the static passes over one TE program.

    ``sizer`` must match the executor that will consume the layout (the
    default is the executor's float64 sizing with ``batch_size`` lanes).
    The per-pass flags exist for targeted tests and ablation; production
    callers leave them on. ``tile`` enables block-level tiling of
    map→reduce→map chains (on by default, fires only when the footprint
    model judges a chain profitable against ``tile_budget`` — default
    :data:`repro.analysis.characterize.CACHE_BUDGET_BYTES`);
    ``tile_block_rows`` forces a block size on every eligible chain.
    """
    if sizer is None:
        sizer = arena_sizer(batch_size)

    nodes = program.nodes
    kinds = {n.index: step_kind(n.tensor) for n in nodes}
    stats = OptimizeStats(steps_before=len(nodes))

    # ---- pass 1: vertical step fusion -----------------------------------
    inline_into: Dict[int, int] = {}  # node index -> consumer node index
    if fuse:
        for node in nodes:
            if kinds[node.index] != "map":
                continue
            if program.is_output(node.tensor):
                continue
            consumers = program.consumers(node.tensor)
            if len(consumers) != 1:
                continue
            consumer = consumers[0]
            if kinds[consumer.index] != "map":
                continue
            if not _identity_reads_only(consumer, node.tensor):
                continue
            inline_into[node.index] = consumer.index
    stats.fused_steps = len(inline_into)

    node_by_index = {n.index: n for n in nodes}
    root_memo: Dict[int, int] = {}

    def find_terminal(index: int) -> int:
        seen = []
        while index in inline_into and index not in root_memo:
            seen.append(index)
            index = inline_into[index]
        root = root_memo.get(index, index)
        for s in seen:
            root_memo[s] = root
        return root

    members_of: Dict[int, List[TENode]] = {}
    for node in nodes:
        members_of.setdefault(find_terminal(node.index), []).append(node)

    groups: List[StepGroup] = []
    for terminal_index in sorted(members_of):
        members = members_of[terminal_index]  # program order by insertion
        member_ids = {id(m.tensor) for m in members}
        reads: List[Tensor] = []
        seen_reads: Set[int] = set()
        for member in members:
            for t in member.inputs:
                if id(t) in member_ids or id(t) in seen_reads:
                    continue
                seen_reads.add(id(t))
                reads.append(t)
        groups.append(StepGroup(
            position=len(groups),
            members=members,
            terminal=node_by_index[terminal_index],
            reads=reads,
        ))

    # ---- tiling pass: cache-block map→reduce→map chains -----------------
    # Runs after group formation: a chain's internal groups disappear
    # (their tensors live in per-worker scratch) and its terminal group
    # becomes one TiledStepGroup per block, all writing disjoint row slices
    # of the chain terminal's arena buffer.
    tiled_chains: List = []
    if tile and len(groups) > 1:
        from repro.analysis.characterize import CACHE_BUDGET_BYTES
        from repro.runtime.tiling import apply_tiling, detect_chains

        budget = tile_budget if tile_budget is not None else CACHE_BUDGET_BYTES
        lanes = 1 if batch_size is None else batch_size
        tiled_chains = detect_chains(
            program, groups, kinds, lanes, budget, tile_block_rows,
        )
        if tiled_chains:
            groups = apply_tiling(groups, tiled_chains)
    stats.steps_after = len(groups)
    stats.tiled_chains = len(tiled_chains)
    stats.tiled_steps = sum(len(c.groups) for c in tiled_chains)
    stats.tiled_blocks = sum(c.num_blocks for c in tiled_chains)
    stats.tile_block_rows = [c.block_rows for c in tiled_chains]
    stats.scratch_bytes = max(
        (c.scratch_bytes for c in tiled_chains), default=0
    )

    # ---- pass 2: in-place elision ---------------------------------------
    elided: Dict[int, Tensor] = {}
    if elide:
        for g in groups:
            if getattr(g, "chain", None) is not None:
                continue  # tiled blocks write row slices, never whole bytes
            if kinds[g.terminal.index] != "map":
                continue
            out = g.terminal.tensor
            if program.is_output(out):
                continue
            out_bytes = _align(sizer(out))
            member_nodes = set(g.members)
            for t in g.reads:
                if program.producer(t) is None:
                    continue
                if program.is_output(t):
                    continue
                if any(c not in member_nodes
                       for c in program.consumers(t)):
                    continue  # still read by another step
                if _align(sizer(t)) != out_bytes:
                    continue
                elided[g.position] = t
                break

    # ---- repack the arena over optimized positions ----------------------
    # A tiled chain's blocks share one terminal tensor: pack it once, with
    # its definition at the *first* block (the earliest write) and liveness
    # through the last reader as usual.
    packable: List[StepGroup] = []
    packed_ids: Set[int] = set()
    for g in groups:
        t = g.terminal.tensor
        if program.is_output(t) or id(t) in packed_ids:
            continue
        packed_ids.add(id(t))
        packable.append(g)
    def_pos: Dict[int, int] = {}
    for g in groups:
        def_pos.setdefault(id(g.terminal.tensor), g.position)
    last_pos: Dict[int, int] = {}
    for g in groups:
        for t in g.reads:
            key = id(t)
            last_pos[key] = max(last_pos.get(key, g.position), g.position)
    lives: Dict[int, LiveRange] = {}
    for g in packable:
        t = g.terminal.tensor
        d = def_pos[id(t)]
        lives[id(t)] = LiveRange(t, d, max(last_pos.get(id(t), d), d))

    def pack(merge: Dict[int, Tensor]) -> Tuple[Dict[int, int], int]:
        """Pack, with elision pairs sharing one offset; offsets by id."""
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for pos, operand in merge.items():
            a = find(id(groups[pos].terminal.tensor))
            b = find(id(operand))
            if a != b:
                parent[a] = b
        clusters: Dict[int, List[Tensor]] = {}
        for g in packable:
            t = g.terminal.tensor
            clusters.setdefault(find(id(t)), []).append(t)
        keys = list(clusters)
        items: List[Tuple[int, LiveRange]] = []
        for key in keys:
            tensors = clusters[key]
            nbytes = max(_align(sizer(t)) for t in tensors)
            lo = min(lives[id(t)].def_index for t in tensors)
            hi = max(lives[id(t)].last_use for t in tensors)
            items.append((nbytes, LiveRange(tensors[0], lo, hi)))
        offsets, workspace = pack_intervals(items, exclusive_writes=True)
        by_id: Dict[int, int] = {}
        for key, offset in zip(keys, offsets):
            for t in clusters[key]:
                by_id[id(t)] = offset
        return by_id, workspace

    offsets_plain, workspace_plain = pack({})
    if elided:
        offsets_merged, workspace_merged = pack(elided)
        if workspace_merged < workspace_plain:
            offsets, workspace = offsets_merged, workspace_merged
        else:
            # Elision that fails to shrink the arena is dropped, making
            # "workspace strictly decreases when any elision fires" an
            # invariant rather than a hope.
            elided = {}
            offsets, workspace = offsets_plain, workspace_plain
    else:
        offsets, workspace = offsets_plain, workspace_plain
    if elided:
        assert workspace < workspace_plain, (
            "elision fired without strictly shrinking the workspace"
        )

    memory_plan = MemoryPlan(exclusive_writes=False)
    for g in packable:
        t = g.terminal.tensor
        memory_plan.assignments[t] = BufferAssignment(
            t, offsets[id(t)], _align(sizer(t)), lives[id(t)]
        )
    memory_plan.workspace_bytes = workspace
    memory_plan.unshared_bytes = sum(
        _align(sizer(g.terminal.tensor)) for g in packable
    )
    # Scratch-block layout for the verifier (check_arena validates the
    # per-chain blocks never alias) and the plan-stats report.
    memory_plan.scratch_bytes = stats.scratch_bytes
    memory_plan.scratch_chains = {
        c.index: [
            (m.name,) + c.scratch_offsets[id(m.tensor)]
            for m in c.member_nodes
            if id(m.tensor) in c.scratch_offsets
        ]
        for c in tiled_chains
    }
    stats.elided_buffers = len(elided)
    stats.elided_bytes = sum(_align(sizer(t)) for t in elided.values())
    stats.workspace_after = workspace

    # ---- verifier view ---------------------------------------------------
    view_nodes = [
        _StepNode(g.position, g.terminal.tensor, g.name, list(g.reads))
        for g in groups
    ]
    step_view = ProgramView(
        name=f"{program.name}+opt",
        inputs=list(program.inputs),
        nodes=view_nodes,
        outputs=list(program.outputs),
    )
    inplace_pairs = {
        (id(groups[pos].terminal.tensor), id(t))
        for pos, t in elided.items()
    }

    return PlanOptimization(
        program=program,
        groups=groups,
        elided=elided,
        memory_plan=memory_plan,
        inplace_pairs=inplace_pairs,
        step_view=step_view,
        stats=stats,
        tiled_chains=tiled_chains,
    )


# ---- runtime application ----------------------------------------------------


def _make_fused_run(
    interiors: Tuple[Tuple[int, Callable, Tuple[int, ...]], ...],
    terminal_run: Callable,
    views,
) -> Callable:
    """Compose interior value closures with the terminal's arena write.

    Interior values are the producer's compiled value — never copied into
    the arena — broadcast to full shape when they are not already. The
    terminal is a ``map`` (elementwise ufuncs and selects over views),
    which reads broadcast views bit-identically to contiguous arrays. An
    interior the terminal reads through a strided view (a piece's box)
    gets that view built from its value (``views``, the plan's
    :class:`~repro.runtime.executor.ReadViews`).
    """
    viewed = tuple(
        key for key, _, _ in interiors
        if any(view_key in views.read for view_key, _ in
               views.makers.get(key, ()))
    )

    def run_fused(v, interiors=interiors, terminal_run=terminal_run):
        for key, fn, shape in interiors:
            value = fn(v)
            v[key] = (
                value if value.shape == shape
                else np.broadcast_to(value, shape)
            )
        if viewed:
            views.build(v, viewed, read_only=True)
        terminal_run(v)

    return run_fused


def optimize_plan(plan, opt: Optional[PlanOptimization] = None):
    """Apply the pass pipeline to a built :class:`ExecutionPlan` in place.

    Rewrites ``plan.steps``, sets ``plan.memory_plan`` to the optimized
    layout and checks that layout once through the verifier's arena-hazard
    pass (in-place pairs allowlisted). Raises
    :class:`~repro.errors.PlanningError` on an unsafe optimized layout.
    ``opt`` defaults to the static planner's result for the plan; a caller
    that isolates passes (tests, ablation) passes one from
    :func:`plan_optimization` with the plan's batch size.
    """
    from repro.runtime.executor import PlanStep

    if opt is None:
        opt = plan_optimization(
            plan.program, sizer=plan._sizer, batch_size=plan.batch_size
        )

    base_steps = plan.steps  # indexed by original node index

    # Tiled chains compile once per chain (shared across its blocks): the
    # block plans rewrite every member at block extent and borrow scratch
    # from one pool sized for the plan's largest chain.
    scratch_pool = None
    chain_runtimes: Dict[int, object] = {}
    if opt.tiled_chains:
        from repro.runtime.tiling import ChainRuntime, ScratchPool

        scratch_pool = ScratchPool(
            max(c.scratch_bytes for c in opt.tiled_chains)
        )
        for c in opt.tiled_chains:
            chain_runtimes[c.index] = ChainRuntime(
                c, plan.batch_size, scratch_pool
            )
    plan._scratch_pool = scratch_pool

    new_steps: List[PlanStep] = []
    for g in opt.groups:
        chain = getattr(g, "chain", None)
        if chain is not None:
            runtime = chain_runtimes[chain.index]
            new_steps.append(PlanStep(
                g.position, g.name, "tiled", id(g.terminal.tensor),
                runtime.block_run(g.block_index),
            ))
            continue
        terminal_step = base_steps[g.terminal.index]
        if len(g.members) == 1:
            step = PlanStep(
                g.position, terminal_step.name, terminal_step.kind,
                terminal_step.key, terminal_step.run,
                value_fn=terminal_step.value_fn,
            )
        else:
            interiors = tuple(
                (
                    base_steps[m.index].key,
                    base_steps[m.index].value_fn,
                    plan._batched_shape(tuple(m.tensor.shape)),
                )
                for m in g.members[:-1]
            )
            if any(fn is None for _, fn, _ in interiors):
                raise PlanningError(
                    f"fused group {g.name} has a member without a value "
                    "closure (only map steps are fuseable)"
                )
            step = PlanStep(
                g.position, g.name, "fused", terminal_step.key,
                _make_fused_run(
                    interiors, terminal_step.run,
                    plan.read_views,
                ),
            )
        new_steps.append(step)

    plan._check_layout(opt.step_view, opt.memory_plan, opt.inplace_pairs)
    plan.steps = new_steps
    plan.memory_plan = opt.memory_plan
    plan.optimization = opt
    return opt

