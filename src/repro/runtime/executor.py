"""Plan-based numpy execution: compile a TE program once, replay per request.

The interpretive :class:`~repro.te.evaluator.Evaluator` re-walks every
expression tree on every call — rebuilding iteration-variable grids,
re-evaluating index arithmetic, re-matching matmul patterns and allocating
every intermediate from scratch. None of that depends on the request: tensor
shapes, index maps, broadcast grids and operator dispatch are all fixed at
compile time. :class:`ExecutionPlan` therefore lowers the program *once*
into a topologically-ordered list of specialized step closures:

* matmul-shaped contractions become a pinned ``np.einsum`` call with the
  contraction string resolved at plan time;
* elementwise/reduction TEs have their bodies compiled bottom-up — binop,
  comparison and intrinsic dispatch resolved to concrete numpy callables,
  tensor reads resolved to identity views or precomputed integer gather
  maps, and every data-independent subexpression (index math, constant
  grids) folded into a plan-time constant array;
* each step writes its result directly into a preallocated **arena** view
  laid out by the global :class:`~repro.runtime.memory_planner.MemoryPlan`
  (``exclusive_writes`` packing, float64 sizing), so non-overlapping
  intermediates share bytes and repeated calls allocate nothing but the
  model outputs.

Executing a request is then one flat loop over the steps, for every plan,
optimized or not, batched or not. Results are bit-identical to the
:class:`Evaluator` (which remains the differential-testing oracle): both
paths run the same numpy kernels on the same float64 operands.

:class:`BatchedExecutionPlan` extends the same lowering with a leading
batch axis so B concurrent requests replay the step list *once*: einsum
contractions gain an ellipsis batch dimension (contraction path precomputed
for the batched shapes), elementwise/gather closures broadcast their
plan-time index grids over the batch, and the arena is sized for B lanes
per intermediate. Lane ``i`` of a batched replay is bit-identical to an
unbatched replay of request ``i`` — numpy's einsum and ufunc loops are
batch-independent per output element — which the differential tests pin
down across every paper model.
"""

from __future__ import annotations

import numpy as np

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError, PlanningError
from repro.graph.te_program import TEProgram
from repro.runtime.memory_planner import MemoryPlan, plan_memory
from repro.te.evaluator import _BINOP_FN, _CALL_FN, _CMP_FN, MAX_GRID_ELEMENTS
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
from repro.te.patterns import contraction_path, match_matmul
from repro.te.tensor import Tensor

# The executor computes in float64 (like the Evaluator); arena buffers are
# sized for that representation, not the tensor's declared storage dtype.
EXEC_DTYPE = np.float64
EXEC_ITEMSIZE = np.dtype(EXEC_DTYPE).itemsize

# A values table maps id(tensor) -> ndarray (feed, arena view or output).
Values = Dict[int, np.ndarray]

# A compiled subexpression: either a plan-time constant array or a closure.
_Compiled = Tuple[Optional[np.ndarray], Optional[Callable[[Values], np.ndarray]]]


class PlanStep:
    """One executable step: computes a tensor into ``values[key]``.

    ``value_fn`` (map/const steps only) produces the step's value *without*
    writing the arena — the raw compiled closure behind ``run``'s final
    ``copyto``. The plan optimizer composes these to fuse step chains.
    """

    __slots__ = ("index", "name", "kind", "key", "run", "value_fn")

    def __init__(
        self,
        index: int,
        name: str,
        kind: str,
        key: int,
        run: Callable[[Values], None],
        value_fn: Optional[Callable[[Values], np.ndarray]] = None,
    ) -> None:
        self.index = index
        self.name = name
        self.kind = kind
        self.key = key
        self.run = run
        self.value_fn = value_fn

    def __repr__(self) -> str:
        return f"<PlanStep#{self.index} {self.name} [{self.kind}]>"


class Arena:
    """One preallocated workspace: a flat byte buffer plus per-tensor views.

    Built once from the memory plan; every intermediate's view aliases its
    planned ``[offset, offset+nbytes)`` slice, so tensors with disjoint live
    ranges transparently share bytes across steps and across requests.

    With ``batch_size`` set the arena carries that many lanes per
    intermediate — every view gains a leading batch axis and the memory
    plan's offsets must have been computed with the matching batch-aware
    sizer (``BatchedExecutionPlan`` does both).
    """

    __slots__ = ("buffer", "views", "nbytes", "batch_size")

    def __init__(
        self, plan: MemoryPlan, batch_size: Optional[int] = None
    ) -> None:
        self.nbytes = plan.workspace_bytes
        self.batch_size = batch_size
        lanes = 1 if batch_size is None else batch_size
        self.buffer = np.empty(plan.workspace_bytes, dtype=np.uint8)
        self.views: Values = {}
        for tensor, assignment in plan.assignments.items():
            shape = tensor.shape
            if batch_size is not None:
                shape = (batch_size,) + tuple(shape)
            end = (
                assignment.offset
                + lanes * tensor.num_elements * EXEC_ITEMSIZE
            )
            self.views[id(tensor)] = (
                self.buffer[assignment.offset:end]
                .view(EXEC_DTYPE)
                .reshape(shape)
            )


def _grid_env(axes: Sequence[IterVar]) -> Dict[str, np.ndarray]:
    """Plan-time constant index grids: one broadcastable arange per axis."""
    env: Dict[str, np.ndarray] = {}
    ndim = len(axes)
    for dim, ax in enumerate(axes):
        index = np.arange(ax.dom.lo, ax.dom.hi, dtype=np.int64)
        shape = [1] * ndim
        shape[dim] = ax.extent
        env[ax.name] = index.reshape(shape)
    return env


def _compile_expr(
    expr: Expr,
    env: Mapping[str, np.ndarray],
    axes: Sequence[IterVar],
    batched: bool = False,
) -> _Compiled:
    """Compile one expression bottom-up.

    Returns ``(const, None)`` when the subtree reads no tensor data — the
    value is computed right here, at plan time — or ``(None, fn)`` where
    ``fn(values)`` produces the (broadcastable) grid at request time.

    With ``batched`` every tensor value in ``values`` carries a leading
    batch axis; plan-time constants stay unbatched (they broadcast against
    the batch like any leading axis) and only tensor reads change shape.
    """
    if isinstance(expr, Const):
        return np.asarray(expr.value, dtype=EXEC_DTYPE), None
    if isinstance(expr, Var):
        try:
            return env[expr.name], None
        except KeyError:
            raise ExecutionError(f"unbound variable {expr.name}") from None
    if isinstance(expr, (BinOp, Cmp)):
        table = _BINOP_FN if isinstance(expr, BinOp) else _CMP_FN
        fn = table[expr.op]
        lc, lf = _compile_expr(expr.lhs, env, axes, batched)
        rc, rf = _compile_expr(expr.rhs, env, axes, batched)
        if lf is None and rf is None:
            return fn(lc, rc), None
        if lf is None:
            return None, lambda v, fn=fn, lc=lc, rf=rf: fn(lc, rf(v))
        if rf is None:
            return None, lambda v, fn=fn, lf=lf, rc=rc: fn(lf(v), rc)
        return None, lambda v, fn=fn, lf=lf, rf=rf: fn(lf(v), rf(v))
    if isinstance(expr, Call):
        fn = _CALL_FN[expr.func]
        parts = [_compile_expr(a, env, axes, batched) for a in expr.args]
        if all(f is None for _, f in parts):
            return fn(*[c for c, _ in parts]), None
        if len(parts) == 1:
            (_, af), = parts
            return None, lambda v, fn=fn, af=af: fn(af(v))
        thunks = tuple(
            (lambda v, c=c: c) if f is None else f for c, f in parts
        )
        return None, lambda v, fn=fn, thunks=thunks: fn(*[t(v) for t in thunks])
    if isinstance(expr, IfThenElse):
        parts = [
            _compile_expr(e, env, axes, batched)
            for e in (expr.cond, expr.then_value, expr.else_value)
        ]
        if all(f is None for _, f in parts):
            cond, then_v, else_v = (c for c, _ in parts)
            return np.where(cond, then_v, else_v), None
        thunks = tuple(
            (lambda v, c=c: c) if f is None else f for c, f in parts
        )
        return None, lambda v, thunks=thunks: np.where(
            thunks[0](v), thunks[1](v), thunks[2](v)
        )
    if isinstance(expr, TensorRead):
        return _compile_read(expr, env, axes, batched)
    if isinstance(expr, Reduce):
        # Nested reductions are normalised away during lowering; only a
        # top-level Reduce exists and the step builder peels it off.
        raise ExecutionError("nested Reduce is not supported by the executor")
    raise ExecutionError(f"cannot compile node {type(expr).__name__}")


def _compile_read(
    read: TensorRead,
    env: Mapping[str, np.ndarray],
    axes: Sequence[IterVar],
    batched: bool = False,
) -> _Compiled:
    """Resolve a tensor read to a view or a precomputed gather map.

    Index expressions depend only on iteration variables and constants, so
    the integer index grids are fully materialised at plan time. The common
    identity pattern ``T[i, j, ...]`` (every node axis, in order, sweeping
    the full tensor) short-circuits to the bare array — no copy at all.

    In batched mode the stored value has shape ``(B,) + tensor.shape``; the
    precomputed index grids address the trailing (request) dimensions while
    a leading slice carries every batch lane through the same gather. The
    gathered block is reshaped so its request dims stay trailing-aligned
    with the unbatched broadcast semantics.
    """
    key = id(read.tensor)
    base_shape = tuple(getattr(read.tensor, "shape", ()))

    index_names = [i.name for i in read.indices if isinstance(i, Var)]
    axis_names = [ax.name for ax in axes]
    extents = tuple(ax.extent for ax in axes)
    if (
        len(index_names) == len(read.indices)
        and index_names == axis_names
        and base_shape == extents
    ):
        return None, lambda v, key=key: v[key]

    parts = [_compile_expr(i, env, axes, batched) for i in read.indices]
    if any(f is not None for _, f in parts):
        if batched:
            # A data-dependent index would differ per batch lane, breaking
            # the shared precomputed gather. It does not occur in this IR;
            # batched planning refuses it so the server can fall back to
            # the unbatched path instead of silently mis-gathering.
            raise PlanningError(
                f"read of {read.tensor.name} uses data-dependent indexing, "
                "which batched execution plans do not support"
            )
        # Data-dependent indexing does not occur in this IR, but compile it
        # anyway so the executor degrades gracefully rather than crashing.
        thunks = tuple(
            (lambda v, c=c: c) if f is None else f for c, f in parts
        )

        def gather_dynamic(v: Values, key=key, thunks=thunks) -> np.ndarray:
            indices = [np.asarray(t(v), dtype=np.int64) for t in thunks]
            if len(indices) > 1:
                indices = list(np.broadcast_arrays(*indices))
            return v[key][tuple(indices)]

        return None, gather_dynamic

    indices = [np.asarray(c, dtype=np.int64) for c, _ in parts]
    if len(indices) > 1:
        indices = list(np.broadcast_arrays(*indices))
    idx = tuple(indices)
    if not batched:
        return None, lambda v, key=key, idx=idx: v[key][idx]

    # Unbatched gathers produce the broadcast shape of the index grids and
    # rely on trailing alignment against the axis grids; the batched result
    # must keep those dims trailing, padding with ones in between when the
    # grids collapse below the full axis rank (e.g. all-constant indices).
    grid_shape = np.broadcast_shapes(*[i.shape for i in indices])
    pad = (1,) * (len(axes) - len(grid_shape))

    def gather_batched(v: Values, key=key, idx=idx, pad=pad) -> np.ndarray:
        out = v[key][(slice(None),) + idx]
        if pad:
            out = out.reshape(out.shape[:1] + pad + out.shape[1:])
        return out

    return None, gather_batched


def _batched(shape: Tuple[int, ...], batch_size: Optional[int]) -> Tuple[int, ...]:
    if batch_size is None:
        return tuple(shape)
    return (batch_size,) + tuple(shape)


def compile_plan_step(
    tensor: Tensor,
    index: int,
    key: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> PlanStep:
    """Lower one computed tensor to an executable :class:`PlanStep`.

    The core of :meth:`ExecutionPlan._build_step`, callable outside a plan:
    the tiling pass (:mod:`repro.runtime.tiling`) compiles cache-block
    clones of chain members through this same path, so a block step runs
    exactly the numpy kernels per output row the untiled step would.
    ``key`` defaults to ``id(tensor)``.
    """
    if key is None:
        key = id(tensor)
    op = tensor.op
    assert op is not None
    batched = batch_size is not None

    pattern = match_matmul(tensor)
    if pattern is not None:
        lk, rk = id(pattern.lhs), id(pattern.rhs)
        formula = pattern.einsum_formula
        lhs_shape = tuple(pattern.lhs.shape)
        rhs_shape = tuple(pattern.rhs.shape)
        if batched:
            formula = (
                f"...{pattern.lhs_spec},...{pattern.rhs_spec}"
                f"->...{pattern.out_spec}"
            )
            lhs_shape = _batched(lhs_shape, batch_size)
            rhs_shape = _batched(rhs_shape, batch_size)
        path = contraction_path(formula, lhs_shape, rhs_shape)

        def run_einsum(
            v: Values, formula=formula, lk=lk, rk=rk, key=key, path=path
        ):
            np.einsum(formula, v[lk], v[rk], out=v[key], optimize=path)

        return PlanStep(index, tensor.name, "einsum", key, run_einsum)

    spatial = list(op.axes)
    body = op.body
    reduce_axes: List[IterVar] = []
    reduce_kind: Optional[str] = None
    if isinstance(body, Reduce):
        reduce_axes = list(body.axes)
        reduce_kind = body.kind
        body = body.body

    all_axes = spatial + reduce_axes
    total = 1 if batch_size is None else batch_size
    for ax in all_axes:
        total *= ax.extent
    if total > MAX_GRID_ELEMENTS:
        raise ExecutionError(
            f"evaluation grid for {tensor.name} has {total} points "
            f"(> {MAX_GRID_ELEMENTS}); use smaller shapes for functional "
            "execution — benchmarks use the analytic model"
        )

    env = _grid_env(all_axes)
    const, fn = _compile_expr(body, env, all_axes, batched)

    if reduce_kind is None:
        if fn is None:
            # Fully data-independent body: the result never changes.
            # (The arena view broadcasts the fold over any batch axis.)
            folded = np.broadcast_to(const, tensor.shape)

            def run_const(v: Values, key=key, folded=folded):
                np.copyto(v[key], folded)

            return PlanStep(
                index, tensor.name, "const", key, run_const,
                value_fn=lambda v, folded=folded: folded,
            )

        def run_map(v: Values, key=key, fn=fn):
            np.copyto(v[key], fn(v))

        return PlanStep(
            index, tensor.name, "map", key, run_map, value_fn=fn
        )

    full_shape = _batched(
        tuple(ax.extent for ax in all_axes), batch_size
    )
    offset = 0 if batch_size is None else 1
    reduce_dims = tuple(
        offset + d for d in range(len(spatial), len(all_axes))
    )
    red_fn = {"sum": np.sum, "max": np.max, "min": np.min}[reduce_kind]

    if fn is None:
        folded = red_fn(
            np.broadcast_to(const, full_shape), axis=reduce_dims
        ).astype(EXEC_DTYPE)

        def run_const_red(v: Values, key=key, folded=folded):
            np.copyto(v[key], folded)

        return PlanStep(
            index, tensor.name, "const", key, run_const_red,
            value_fn=lambda v, folded=folded: folded,
        )

    def run_reduce(
        v: Values,
        key=key,
        fn=fn,
        full=full_shape,
        dims=reduce_dims,
        red=red_fn,
    ):
        grid = np.broadcast_to(fn(v), full)
        red(grid, axis=dims, out=v[key])

    return PlanStep(index, tensor.name, "reduce", key, run_reduce)


class ExecutionPlan:
    """A TE program lowered to a flat, replayable step list + arena layout."""

    # Total plans built in this process (lets tests assert plan reuse).
    # Batched plans count here too — the counter lives on this class.
    plans_built = 0

    # One request per replay; BatchedExecutionPlan overrides per instance.
    batch_size: Optional[int] = None

    # Nothing is hoisted; kept empty because perfbench serve-closed reads it.
    hoist_boundary: Tuple[Tensor, ...] = ()
    # Nothing is hoisted; kept at 0 because perfbench serve-closed reads it.
    hoist_evaluations = 0

    def __init__(
        self,
        program: TEProgram,
        memory_plan: Optional[MemoryPlan] = None,
        optimize: bool = False,
        tile: bool = True,
        tile_budget: Optional[int] = None,
        tile_block_rows: Optional[int] = None,
        certify: bool = False,
    ) -> None:
        # Block-level tiling of reduction chains (runtime.tiling), applied
        # by the optimizer pass pipeline: default on, profitable chains
        # only. tile_budget overrides the footprint model's cache budget;
        # tile_block_rows forces a block size (tests).
        self.tile = tile
        self.tile_budget = tile_budget
        self.tile_block_rows = tile_block_rows
        self._scratch_pool = None
        self.program = program
        if memory_plan is None:
            memory_plan = plan_memory(
                program, sizer=self._sizer, exclusive_writes=True
            )
        self.memory_plan = memory_plan
        self._inputs_by_id: Dict[int, Tensor] = {
            id(t): t for t in program.inputs
        }
        self._used_input_ids: set = set()
        self.steps: List[PlanStep] = [
            self._build_step(i, node) for i, node in enumerate(program.nodes)
        ]
        self._output_allocs: List[Tuple[int, Tuple[int, ...]]] = [
            (id(t), self._batched_shape(t.shape)) for t in program.outputs
        ]
        self._output_keys: List[int] = [id(t) for t in program.outputs]
        self._validate_layout()
        # Plan-optimizer state; optimize_plan() rewrites steps/memory_plan
        # and sets this (see repro.runtime.plan_opt).
        self.optimization = None
        if optimize:
            from repro.runtime.plan_opt import optimize_plan

            optimize_plan(self)
        # Translation validation of the built plan (verify.equiv): certify
        # the optimizer's transforms and the batched lowering against this
        # plan's program; any refuted certificate is a planning error. The
        # report is kept on the plan for inspection (repro certify).
        self.certification = None
        if certify:
            from repro.verify.equiv import certify_plan

            report = certify_plan(self)
            self.certification = report
            refuted = report.refuted
            if refuted:
                raise PlanningError(
                    "plan certification refuted: "
                    + "; ".join(c.render() for c in refuted)
                )
        ExecutionPlan.plans_built += 1

    # ---- construction ----------------------------------------------------

    def _sizer(self, tensor: Tensor) -> int:
        """Arena bytes for one intermediate (every batch lane included)."""
        lanes = 1 if self.batch_size is None else self.batch_size
        return lanes * tensor.num_elements * EXEC_ITEMSIZE

    def _batched_shape(self, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.batch_size is None:
            return tuple(shape)
        return (self.batch_size,) + tuple(shape)

    def _build_step(self, index: int, node) -> PlanStep:
        tensor: Tensor = node.tensor
        assert tensor.op is not None
        self._note_reads(tensor.op.body)
        return compile_plan_step(
            tensor, index, key=id(tensor), batch_size=self.batch_size
        )

    def _note_reads(self, expr: Expr) -> None:
        """Record which placeholders the program actually reads."""
        if isinstance(expr, TensorRead):
            if id(expr.tensor) in self._inputs_by_id:
                self._used_input_ids.add(id(expr.tensor))
            for i in expr.indices:
                self._note_reads(i)
        elif isinstance(expr, (BinOp, Cmp)):
            self._note_reads(expr.lhs)
            self._note_reads(expr.rhs)
        elif isinstance(expr, Call):
            for a in expr.args:
                self._note_reads(a)
        elif isinstance(expr, IfThenElse):
            self._note_reads(expr.cond)
            self._note_reads(expr.then_value)
            self._note_reads(expr.else_value)
        elif isinstance(expr, Reduce):
            self._note_reads(expr.body)

    def _validate_layout(self) -> None:
        """Fail loudly at plan time on any unsafe arena layout.

        Delegates to the verifier's arena-hazard pass (``repro.verify``),
        which statically detects missing assignments, step-level WAR
        hazards (steps write results through ``out=`` while operand views
        are being read), pairwise WAW/aliasing and stale liveness, and
        raises :class:`~repro.errors.PlanningError` from its errors.
        """
        from repro.verify import Severity, verify_plan

        self.memory_plan.validate()
        report = verify_plan(
            self.program,
            self.memory_plan,
            sizer=self._sizer,
            require_exclusive_writes=True,
        )
        if report.has_errors:
            raise PlanningError(
                "unsafe arena layout:\n"
                + report.render(min_severity=Severity.ERROR)
            )

    # ---- execution -------------------------------------------------------

    @property
    def workspace_bytes(self) -> int:
        return self.memory_plan.workspace_bytes

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def new_arena(self) -> Arena:
        """Allocate one workspace for this plan (reused across requests)."""
        return Arena(self.memory_plan, batch_size=self.batch_size)

    def _bind_one(self, tensor: Tensor, value: np.ndarray) -> np.ndarray:
        """Convert one feed to the execution dtype, validating its shape.

        C-contiguous canonical layout: einsum's accumulation order (and so
        its low-order bits) depends on operand strides once contraction
        paths are in play, and arenas/evaluator feeds are contiguous too.
        """
        arr = np.ascontiguousarray(value, dtype=EXEC_DTYPE)
        if arr.shape != tensor.shape:
            raise ExecutionError(
                f"feed for {tensor.name} has shape {arr.shape}, "
                f"expected {tensor.shape}"
            )
        return arr

    def bind_feeds(self, feeds: Mapping[Tensor, np.ndarray]) -> Values:
        """Validate and convert feeds to the execution representation."""
        bound: Values = {
            id(tensor): self._bind_one(tensor, value)
            for tensor, value in feeds.items()
        }
        for used in self._used_input_ids:
            if used not in bound:
                name = self._inputs_by_id[used].name
                raise ExecutionError(
                    f"no feed provided for placeholder {name}"
                )
        return bound

    def _prepare_values(self, bound: Values, arena: Arena) -> Values:
        """Per-request values table: arena views, feeds, outputs."""
        values = dict(arena.views)
        values.update(bound)
        for key, shape in self._output_allocs:
            values[key] = np.empty(shape, dtype=EXEC_DTYPE)
        return values

    def execute(
        self,
        bound: Values,
        arena: Arena,
        step_seconds: Optional[List[float]] = None,
    ) -> List[np.ndarray]:
        """Replay the step list once, in order, on the calling thread.

        ``bound`` comes from :meth:`bind_feeds`; ``arena`` from
        :meth:`new_arena`. With ``step_seconds`` (a list of one float per
        step) each step's wall time is accumulated into it.
        """
        values = self._prepare_values(bound, arena)
        if step_seconds is None:
            for step in self.steps:
                step.run(values)
        else:
            from time import perf_counter

            for i, step in enumerate(self.steps):
                start = perf_counter()
                step.run(values)
                step_seconds[i] += perf_counter() - start
        return [values[key] for key in self._output_keys]

    def run(self, feeds: Mapping[Tensor, np.ndarray]) -> List[np.ndarray]:
        """One-shot convenience: bind, allocate a throwaway arena, execute.

        Serving paths should use :class:`~repro.runtime.session.
        InferenceSession`, which reuses arenas across requests.
        """
        return self.execute(self.bind_feeds(feeds), self.new_arena())

    def __repr__(self) -> str:
        tag = " optimized" if self.optimization is not None else ""
        return (
            f"<ExecutionPlan {self.program.name}{tag}: "
            f"{len(self.steps)} steps, {self.workspace_bytes} arena bytes>"
        )


class BatchedExecutionPlan(ExecutionPlan):
    """An execution plan compiled once for a fixed leading batch axis.

    Every step processes ``batch_size`` independent requests in one numpy
    call: einsum contractions run the ellipsis-batched formula with a path
    precomputed for the batched operand shapes, elementwise and gather
    steps broadcast their plan-time index grids over the batch, and the
    arena packs ``batch_size`` lanes per intermediate (the memory plan is
    computed with the batch-aware sizer, so disjoint live ranges still
    share bytes).

    Lane ``i`` is bit-identical to an unbatched replay of request ``i``,
    which makes padding safe: a partially-filled batch replays duplicate
    feeds in the spare lanes and the caller discards their outputs.
    """

    def __init__(
        self,
        program: TEProgram,
        batch_size: int,
        memory_plan: Optional[MemoryPlan] = None,
        optimize: bool = False,
        tile: bool = True,
        tile_budget: Optional[int] = None,
        tile_block_rows: Optional[int] = None,
        certify: bool = False,
    ) -> None:
        if batch_size < 1:
            raise PlanningError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        # Set before super().__init__: the sizer and step builders read it.
        self.batch_size = int(batch_size)
        super().__init__(
            program, memory_plan, optimize=optimize,
            tile=tile, tile_budget=tile_budget,
            tile_block_rows=tile_block_rows, certify=certify,
        )

    def bind_batch(
        self, feeds_list: Sequence[Mapping[Tensor, np.ndarray]]
    ) -> Values:
        """Validate per-request feeds and stack them along the batch axis.

        Every request must feed the same placeholders (each at the
        unbatched per-request shape); the bound arrays have shape
        ``(batch_size,) + tensor.shape``. A placeholder fed the *same
        array object* by every request (the common case for weights) is
        validated once and broadcast as a zero-stride batch view instead
        of copied per lane — bit-identical, since every lane reads the
        same bytes either way.
        """
        if len(feeds_list) != self.batch_size:
            raise ExecutionError(
                f"batch of {len(feeds_list)} requests does not fill this "
                f"plan's batch_size={self.batch_size}; pad or re-bucket"
            )
        first = feeds_list[0]
        if any(len(feeds) != len(first) for feeds in feeds_list[1:]):
            raise ExecutionError(
                "requests in one batch must feed the same placeholders"
            )
        bound: Values = {}
        batch_shape = (self.batch_size,)
        for tensor, value in first.items():
            lanes = [value]
            for feeds in feeds_list[1:]:
                try:
                    lanes.append(feeds[tensor])
                except KeyError:
                    raise ExecutionError(
                        "requests in one batch must feed the same "
                        f"placeholders ({tensor.name} missing from one)"
                    ) from None
            if all(lane is value for lane in lanes[1:]):
                arr = self._bind_one(tensor, value)
                stacked = np.broadcast_to(arr, batch_shape + arr.shape)
            else:
                stacked = np.stack(
                    [self._bind_one(tensor, lane) for lane in lanes]
                )
            bound[id(tensor)] = stacked
        for used in self._used_input_ids:
            if used not in bound:
                name = self._inputs_by_id[used].name
                raise ExecutionError(
                    f"no feed provided for placeholder {name}"
                )
        return bound

    def run_batch(
        self, feeds_list: Sequence[Mapping[Tensor, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """One-shot convenience: stack, execute once, split per request.

        Serving paths should go through :class:`~repro.runtime.session.
        InferenceSession` / :class:`~repro.runtime.batching.BatchingServer`,
        which pool arenas and handle bucketing/padding.
        """
        outputs = self.execute(self.bind_batch(feeds_list), self.new_arena())
        return [
            [np.array(out[lane]) for out in outputs]
            for lane in range(self.batch_size)
        ]

    def run(self, feeds: Mapping[Tensor, np.ndarray]) -> List[np.ndarray]:
        raise ExecutionError(
            "a BatchedExecutionPlan replays whole batches; use run_batch() "
            "(or an unbatched ExecutionPlan for single requests)"
        )

    def __repr__(self) -> str:
        tag = " optimized" if self.optimization is not None else ""
        return (
            f"<BatchedExecutionPlan {self.program.name}{tag} "
            f"x{self.batch_size}: {len(self.steps)} steps, "
            f"{self.workspace_bytes} arena bytes>"
        )
