"""Plan-based numpy execution: compile a TE program once, replay per request.

The interpretive :class:`~repro.te.evaluator.Evaluator` re-walks every
expression tree on every call — rebuilding iteration-variable grids,
re-evaluating index arithmetic, gathering every non-identity read through
integer index grids and allocating every intermediate from scratch. None of
that depends on the request: tensor shapes, index maps and operator
dispatch are all fixed at compile time. :class:`ExecutionPlan` therefore
lowers the program *once* into a topologically-ordered list of specialized
step closures:

* every sum over a product of tensor reads, GEMMs included, runs the
  contraction :func:`~repro.te.patterns.match_contraction` lowers it to:
  one ``np.matmul``, batched-matmul or ``np.einsum`` call per output piece
  over zero-copy views, the kernel chosen by shape and the view geometry
  fixed at plan time (the ``Evaluator`` runs the same object);
* every other step (maps and reductions) runs the pieces
  :func:`~repro.te.patterns.lower_views` cuts it into: each piece's body is
  compiled bottom-up — binop, comparison and intrinsic dispatch resolved
  to numpy callables, every data-independent subexpression folded into a
  plan-time constant — and each read is a strided view of its operand (an
  offset plus one stride per letter) covering transposes, broadcasts,
  slices, reshapes, windows and shifted windows. Only a read no view can
  express keeps a plan-time index grid and a gather;
* each step writes its result directly into a preallocated **arena** view
  laid out by the global :class:`~repro.runtime.memory_planner.MemoryPlan`
  (``exclusive_writes`` packing, float64 sizing), so non-overlapping
  intermediates share bytes and repeated calls allocate nothing but the
  model outputs. A build packs only the layout it serves — the program's
  for the reference plan, the plan optimizer's for an optimized one — and
  checks it once with the verifier's arena-hazard pass. The read views of
  arena tensors are built once per :class:`Arena` (:class:`ReadViews`);
  those of a feed are kept with it for as long as the caller passes the
  same array object, bound without conversion (:meth:`ExecutionPlan.
  bind_feeds`).

Executing a request is then one flat loop over the steps, for every plan,
optimized or not, batched or not. Results are bit-identical to the
:class:`Evaluator` (which remains the differential-testing oracle, gathers
and all): both paths run the same numpy kernels on the same float64
values. Three rules keep them so. Map roots write in place: a one-piece
map step whose root is a ufunc or intrinsic call runs it with ``out=`` set
to its arena view (the intrinsics pass ``out=`` to their last ufunc, and
the ``Evaluator`` calls the same functions); elementwise values do not
depend on layout, and numpy computes an operand overlapping ``out=`` as
if it did not. One reduction rule: every ``sum``, ``max`` and ``min``
piece copies each view to C order over the box's axes and runs the
ufunc's ``reduce`` over the trailing TE axes, the grid and call of the
``Evaluator``, because numpy's reduction order follows the memory layout
of what it reduces; the order decides a sum's rounding and which of
-0.0 and +0.0, or which NaN, a max or min returns. And cut steps evaluate
before they write: a step cut into pieces evaluates every piece before
its first write, since in-place elision may give its output the bytes of
an operand it reads (a one-piece select, bare read or constant is also
evaluated, then copied).

:class:`BatchedExecutionPlan` extends the same lowering with a leading
batch axis so B concurrent requests replay the step list *once*: a matmul
piece runs one ``np.matmul`` over the stacked lanes (it loops over leading
axes outside each BLAS call), every other contraction piece runs its
unbatched call once per lane, map and reduction pieces view every lane at
once (a lane letter in front of each view; a zero-stride weight lane is
viewed through the unbatched array), and the arena is sized for B lanes
per intermediate. Lane ``i`` of a batched replay is bit-identical to an
unbatched replay of request ``i`` — every lane makes the unbatched BLAS
call, and numpy's ufunc loops are batch-independent per output element —
which the differential tests pin down across every served model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import ExecutionError, PlanningError
from repro.graph.te_program import TEProgram
from repro.runtime.memory_planner import MemoryPlan, plan_memory
from repro.te.evaluator import (
    _BINOP_FN,
    _CALL_FN,
    _CMP_FN,
    MAX_GRID_ELEMENTS,
    REDUCE_FN,
)
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
from repro.te.patterns import lower_views, match_contraction
from repro.te.tensor import Tensor, row_major_strides
from repro.te.traversal import free_vars, tensor_inputs

if TYPE_CHECKING:  # import would cycle through repro.verify at runtime
    from repro.verify.view import ProgramLike

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
    writing the arena, from the same compiled body ``run`` computes into
    it. The plan optimizer composes these to fuse step chains.
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


@dataclass
class ReadStats:
    """How a program's steps read their operands (``repro plan-stats``)."""

    views: int = 0        # reads served by a strided view
    gathers: int = 0      # reads left as index-grid gathers
    grid_bytes: int = 0   # index-grid bytes those gathers hold
    cut_steps: int = 0    # steps cut into two or more pieces
    pieces: int = 0       # pieces of those steps

    def render(self) -> str:
        return (
            f"reads: {self.views} views, {self.gathers} gathers left "
            f"({self.grid_bytes} index-grid bytes), {self.cut_steps} steps "
            f"cut into {self.pieces} pieces"
        )


def read_stats(program: TEProgram) -> ReadStats:
    """Count, without building a plan, how the steps of ``program`` read:
    the map and reduction steps :func:`compile_plan_step` lowers to view
    pieces (contractions and constant steps read through none). A
    gather's grid bytes are those of its integer index grids, one per
    index, each spanning the letters of the axes that index names."""
    stats = ReadStats()
    for node in program.nodes:
        tensor = node.tensor
        if match_contraction(tensor) is not None or not tensor_inputs(tensor):
            continue
        pieces = lower_views(tensor).pieces
        if len(pieces) > 1:
            stats.cut_steps += 1
            stats.pieces += len(pieces)
        for piece in pieces:
            extent: Dict[str, int] = {}
            for letter in piece.letters:
                extent[letter.axis] = extent.get(letter.axis, 1) * letter.extent
            for read, view in piece.reads:
                if view is not None:
                    stats.views += 1
                    continue
                stats.gathers += 1
                for index in read.indices:
                    stats.grid_bytes += EXEC_ITEMSIZE * math.prod(
                        extent.get(name, 1) for name in free_vars(index)
                    )
    return stats


def _view_maker(
    dims: Tuple[int, ...],
    offset: int,
    strides: Tuple[int, ...],
    lanes: Optional[int],
) -> Callable[[np.ndarray], np.ndarray]:
    """Array -> its strided view (``offset`` and ``strides`` in bytes into
    the C-ordered buffer of one request's tensor).

    With ``lanes`` the array leads with a lane axis and so does the view;
    a zero-stride (weight) lane is viewed through the unbatched array. An
    array whose buffer is not C-ordered (a fused interior's broadcast
    value) is copied first.
    """
    if lanes is None:

        def make(arr: np.ndarray) -> np.ndarray:
            if not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            return np.ndarray(dims, EXEC_DTYPE, arr, offset, strides)

        return make
    shape = (lanes,) + dims

    def make_lanes(arr: np.ndarray) -> np.ndarray:
        lane = arr.strides[0]
        if lane == 0:
            arr = arr[0]
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
            lane = arr.strides[0] if lane else 0
        return np.ndarray(shape, EXEC_DTYPE, arr, offset, (lane,) + strides)

    return make_lanes


class ReadViews:
    """The strided views one plan's steps read, as entries of the values
    table under keys of their own (negative, so never a tensor's id).

    A view is built whenever the array it views is: once per
    :class:`Arena` for arena tensors, when a feed is bound (and kept with
    the feed, see :meth:`ExecutionPlan.bind_feeds`), and per request for
    outputs and fused interiors.
    """

    __slots__ = ("lanes", "_keys", "makers", "read")

    def __init__(self, lanes: Optional[int]) -> None:
        self.lanes = lanes
        self._keys: Dict[tuple, int] = {}
        # tensor key -> [(view key, maker)]
        self.makers: Dict[int, List[Tuple[int, Callable]]] = {}
        # Keys of views some step reads (the rest are only written).
        self.read: set = set()

    def key(self, tensor_key: int, spec: tuple, read: bool = True) -> int:
        """The values-table key of view ``spec`` = (dims, offset,
        strides) of the tensor stored under ``tensor_key``; ``read=False``
        registers a view only its own step writes through."""
        full = (tensor_key,) + spec
        view_key = self._keys.get(full)
        if view_key is None:
            view_key = -1 - len(self._keys)
            self._keys[full] = view_key
            self.makers.setdefault(tensor_key, []).append(
                (view_key, _view_maker(*spec, self.lanes))
            )
        if read:
            self.read.add(view_key)
        return view_key

    def build(self, values: Values, tensor_keys, read_only: bool = False) -> None:
        """Add the views of every tensor in ``tensor_keys`` to ``values``
        (with ``read_only``, just those some step reads)."""
        for tensor_key in tensor_keys:
            makers = self.makers.get(tensor_key)
            if not makers:
                continue
            arr = values.get(tensor_key)
            if arr is None:
                continue
            for view_key, make in makers:
                if not read_only or view_key in self.read:
                    values[view_key] = make(arr)


class Arena:
    """One preallocated workspace: a flat byte buffer plus per-tensor views.

    Built once from the memory plan; every intermediate's view aliases its
    planned ``[offset, offset+nbytes)`` slice, so tensors with disjoint live
    ranges transparently share bytes across steps and across requests.
    The strided read views of those tensors (``views``) are built here
    too, since the buffers persist.

    With ``batch_size`` set the arena carries that many lanes per
    intermediate — every view gains a leading batch axis and the memory
    plan's offsets must have been computed with the matching batch-aware
    sizer (``BatchedExecutionPlan`` does both).
    """

    __slots__ = ("buffer", "views", "nbytes", "batch_size")

    def __init__(
        self,
        plan: MemoryPlan,
        batch_size: Optional[int] = None,
        views: Optional[ReadViews] = None,
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
        if views is not None:
            views.build(self.views, [id(t) for t in plan.assignments])


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


# A tensor read resolved ahead of compilation: id(read node) -> closure.
_Readers = Mapping[int, Callable[[Values], np.ndarray]]


def _compile_expr(
    expr: Expr,
    env: Mapping[str, np.ndarray],
    ndim: int,
    batched: bool = False,
    readers: _Readers = {},
) -> _Compiled:
    """Compile one expression bottom-up over an ``ndim``-axis grid.

    Returns ``(const, None)`` when the subtree reads no tensor data — the
    value is computed right here, at plan time — or ``(None, fn)`` where
    ``fn(values)`` produces the (broadcastable) grid at request time.
    A read found in ``readers`` runs that closure (a strided view); any
    other read is gathered.

    With ``batched`` every tensor value in ``values`` carries a leading
    batch axis; plan-time constants stay unbatched (they broadcast against
    the batch like any leading axis) and only tensor reads change shape.
    """

    def sub(e: Expr) -> _Compiled:
        return _compile_expr(e, env, ndim, batched, readers)

    if isinstance(expr, Const):
        return np.asarray(expr.value, dtype=EXEC_DTYPE), None
    if isinstance(expr, Var):
        try:
            return env[expr.name], None
        except KeyError:
            raise ExecutionError(f"unbound variable {expr.name}") from None
    if isinstance(expr, (BinOp, Cmp, Call)):
        fn, operands = _operator(expr)
        parts = [sub(e) for e in operands]
        if all(f is None for _, f in parts):
            return fn(*[c for c, _ in parts]), None
        return None, _apply(fn, parts)
    if isinstance(expr, IfThenElse):
        parts = [sub(e) for e in (expr.cond, expr.then_value, expr.else_value)]
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
        reader = readers.get(id(expr))
        if reader is not None:
            return None, reader
        return _compile_read(expr, env, ndim, batched, readers)
    if isinstance(expr, Reduce):
        # Nested reductions are normalised away during lowering; only a
        # top-level Reduce exists and the step builder peels it off.
        raise ExecutionError("nested Reduce is not supported by the executor")
    raise ExecutionError(f"cannot compile node {type(expr).__name__}")


def _operator(expr: Expr) -> Tuple[Callable, Sequence[Expr]]:
    """The numpy callable of a BinOp, Cmp or Call node and its operands.
    Every one takes ``out=`` (intrinsics pass it to their last ufunc)."""
    if isinstance(expr, BinOp):
        return _BINOP_FN[expr.op], (expr.lhs, expr.rhs)
    if isinstance(expr, Cmp):
        return _CMP_FN[expr.op], (expr.lhs, expr.rhs)
    return _CALL_FN[expr.func], expr.args


def _apply(
    fn: Callable,
    parts: Sequence[_Compiled],
    out: Optional[Callable[[Values], np.ndarray]] = None,
) -> Callable:
    """The closure applying ``fn`` to one or two compiled operands, not
    all constant. With ``out`` (values table -> array) it computes into
    that array; without, into a new one it returns."""
    if len(parts) == 1:
        (_, af), = parts
        if out is None:
            return lambda v, fn=fn, af=af: fn(af(v))
        return lambda v, fn=fn, af=af, out=out: fn(af(v), out=out(v))
    (lc, lf), (rc, rf) = parts
    if out is None:
        if lf is None:
            return lambda v, fn=fn, lc=lc, rf=rf: fn(lc, rf(v))
        if rf is None:
            return lambda v, fn=fn, lf=lf, rc=rc: fn(lf(v), rc)
        return lambda v, fn=fn, lf=lf, rf=rf: fn(lf(v), rf(v))
    if lf is None:
        return lambda v, fn=fn, lc=lc, rf=rf, out=out: (
            fn(lc, rf(v), out=out(v))
        )
    if rf is None:
        return lambda v, fn=fn, lf=lf, rc=rc, out=out: (
            fn(lf(v), rc, out=out(v))
        )
    return lambda v, fn=fn, lf=lf, rf=rf, out=out: (
        fn(lf(v), rf(v), out=out(v))
    )


def _compile_root(
    expr: Expr,
    env: Mapping[str, np.ndarray],
    ndim: int,
    batched: bool,
    readers: _Readers,
    out: Callable[[Values], np.ndarray],
) -> Tuple[Optional[np.ndarray], Optional[Callable], Optional[Callable]]:
    """Compile a map body once: ``(const, fn)`` as :func:`_compile_expr`
    returns them, plus the closure that runs the root operation with
    ``out=`` set to ``out(values)``, so the step writes its value once.
    That closure is ``None`` unless the root is a ufunc or intrinsic call
    reading data (a select, a bare read or a constant is computed first
    and then copied)."""
    if isinstance(expr, (BinOp, Cmp, Call)):
        fn, operands = _operator(expr)
        parts = [
            _compile_expr(e, env, ndim, batched, readers) for e in operands
        ]
        if all(f is None for _, f in parts):
            return fn(*[c for c, _ in parts]), None, None
        return None, _apply(fn, parts), _apply(fn, parts, out)
    const, fn = _compile_expr(expr, env, ndim, batched, readers)
    return const, fn, None


def _compile_read(
    read: TensorRead,
    env: Mapping[str, np.ndarray],
    ndim: int,
    batched: bool = False,
    readers: _Readers = {},
) -> _Compiled:
    """Gather a read that no strided view expresses.

    Such reads are rare: an index map that stays non-affine after
    mixed-radix splitting, a read that leaves its tensor under a select
    the piece does not decide (the select discards those elements), or a
    data-dependent index. Index expressions depend only on iteration
    variables and constants, so the integer index grids are materialised
    at plan time and the read is one fancy-index gather per request.

    In batched mode the stored value has shape ``(B,) + tensor.shape``; the
    precomputed index grids address the trailing (request) dimensions while
    a leading slice carries every batch lane through the same gather. The
    gathered block is reshaped so its request dims stay trailing-aligned
    with the unbatched broadcast semantics.
    """
    key = id(read.tensor)
    parts = [
        _compile_expr(i, env, ndim, batched, readers) for i in read.indices
    ]
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
    pad = (1,) * (ndim - len(grid_shape))

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


def _dense(dims: Sequence[int], strides: Sequence[int]) -> bool:
    """Whether element ``strides`` lay ``dims`` out in C order."""
    kept = [(d, s) for d, s in zip(dims, strides) if d > 1]
    return [s for _, s in kept] == row_major_strides([d for d, _ in kept])


class _Piece(NamedTuple):
    """One compiled piece of a map or reduction step."""

    value: Callable[[Values], np.ndarray]   # the piece's value
    write: Callable[[Values, np.ndarray], None]  # writes a value to the box
    lazy: bool                # the value is a raw view of an operand
    # Computes the value straight into the box (a map whose root is a
    # ufunc or intrinsic call), else None.
    into: Optional[Callable[[Values], None]]


class _PieceCompiler:
    """Compiles the pieces of one step's :class:`ViewLowering`.

    A map piece computes over its letters with raw views. A reduction
    piece computes over its box's axes instead, the grid the ``Evaluator``
    reduces: each view is copied to C order and reshaped to the axes, and
    the ufunc's ``reduce`` runs over the trailing TE axes, because numpy's
    reduction order follows the memory layout of what it reduces (it
    decides a sum's rounding, and which zero or NaN a max or min keeps).
    """

    def __init__(
        self, tensor: Tensor, lowering, key: int, batch_size: Optional[int],
        views: Optional[ReadViews],
    ) -> None:
        self.tensor = tensor
        self.lowering = lowering
        self.key = key
        self.lanes = batch_size
        self.lead = () if batch_size is None else (batch_size,)
        self.views = views
        body = tensor.op.body
        # The reduction's kind (None for a map); a reduction piece
        # computes over axes, a map piece over letters.
        self.kind = body.kind if isinstance(body, Reduce) else None
        self.reduce_axes = body.axes if isinstance(body, Reduce) else ()
        self.spatial = {ax.name for ax in tensor.op.axes}

    # ---- array access ------------------------------------------------------

    def _get(
        self, tensor_key: int, dims, offset: int, strides, shape,
        read: bool = True,
    ):
        """``(closure, whole)``: the closure takes the values table to the
        view (element offset and strides) of the array stored under
        ``tensor_key``, of request shape ``shape``; ``whole`` says the view
        is that array itself (all of it, in C order)."""
        dims = tuple(dims)
        if offset == 0 and dims == tuple(shape) and _dense(dims, strides):
            return itemgetter(tensor_key), True
        spec = (
            dims, offset * EXEC_ITEMSIZE,
            tuple(s * EXEC_ITEMSIZE for s in strides),
        )
        if self.views is not None:
            view_key = self.views.key(tensor_key, spec, read)
            return itemgetter(view_key), False
        make = _view_maker(*spec, self.lanes)
        return (lambda v, k=tensor_key, make=make: make(v[k])), False

    def _reader(self, piece, view, by_axis: bool):
        letters = piece.letters
        stride = dict(zip(view.letters, view.strides))
        source = self.lowering.tensors[view.slot]
        if by_axis:
            used = {l.axis for l in letters if l.letter in stride}
            dims = [l.extent if l.axis in used else 1 for l in letters]
        else:
            dims = [l.extent if l.letter in stride else 1 for l in letters]
        get, _ = self._get(
            id(source), dims, view.offset,
            [stride.get(l.letter, 0) for l in letters], source.shape,
        )
        if not by_axis:
            return get
        shape = self.lead + tuple(_axis_dims(letters, dims))
        if shape == self.lead + tuple(dims):
            return lambda v, get=get: np.ascontiguousarray(get(v))
        return lambda v, get=get, shape=shape: (
            np.ascontiguousarray(get(v)).reshape(shape)
        )

    def _env(self, piece, by_axis: bool) -> Dict[str, np.ndarray]:
        """Each axis's values over the piece's grid (letters or axes)."""
        starts = {
            ax.name: lo for ax, (lo, _) in zip(self.tensor.op.axes, piece.box)
        }
        starts.update({ax.name: ax.dom.lo for ax in self.reduce_axes})
        groups: Dict[str, List[int]] = {}
        for k, letter in enumerate(piece.letters):
            groups.setdefault(letter.axis, []).append(k)
        ndim = len(groups) if by_axis else len(piece.letters)
        env: Dict[str, np.ndarray] = {}
        for d, (axis, positions) in enumerate(groups.items()):
            sizes = [piece.letters[k].extent for k in positions]
            shape = [1] * ndim
            if by_axis:
                shape[d] = math.prod(sizes)
            else:
                for k, size in zip(positions, sizes):
                    shape[k] = size
            lo = starts[axis]
            env[axis] = np.arange(
                lo, lo + math.prod(sizes), dtype=np.int64
            ).reshape(shape)
        return env

    def out(self, piece, by_axis: bool = False):
        """``(closure, whole)`` of where the piece writes: its box over
        the spatial letters, or over the spatial axes for a reduction."""
        if by_axis:
            dims = [hi - lo for lo, hi in piece.box]
            strides = row_major_strides(self.tensor.shape)
        else:
            stride = dict(zip(piece.out.letters, piece.out.strides))
            spatial = [l for l in piece.letters if l.axis in self.spatial]
            dims = [l.extent for l in spatial]
            strides = [stride.get(l.letter, 0) for l in spatial]
        return self._get(
            self.key, dims, piece.out.offset, strides, self.tensor.shape,
            read=False,
        )

    # ---- pieces ------------------------------------------------------------

    def compile(self, piece) -> _Piece:
        by_axis = self.kind is not None
        readers = {}
        for read, view in piece.reads:
            if view is not None:
                readers[id(read)] = self._reader(piece, view, by_axis)
        env = self._env(piece, by_axis)
        out, _ = self.out(piece, by_axis)
        batched = self.lanes is not None
        if not by_axis:
            const, fn, into = _compile_root(
                piece.body, env, len(piece.letters), batched, readers, out
            )
            if fn is None:
                fn = lambda v, const=const: const  # noqa: E731
            lazy = (isinstance(piece.body, TensorRead)
                    and id(piece.body) in readers)

            def write_map(v, value, out=out):
                np.copyto(out(v), value)

            return _Piece(fn, write_map, lazy, into)

        grid = [hi - lo for lo, hi in piece.box] + [
            ax.extent for ax in self.reduce_axes
        ]
        const, fn = _compile_expr(piece.body, env, len(grid), batched, readers)
        if fn is None:
            fn = lambda v, const=const: const  # noqa: E731
        full = self.lead + tuple(grid)
        dims = tuple(range(len(self.lead) + len(piece.box), len(full)))
        red = REDUCE_FN[self.kind].reduce

        def write_reduce(v, value, out=out, full=full, dims=dims, red=red):
            if value.shape != full:
                value = np.broadcast_to(value, full)
            red(value, axis=dims, out=out(v))

        return _Piece(fn, write_reduce, False, None)


def _axis_dims(letters, letter_dims) -> List[int]:
    """Per axis (letters come axis by axis), its letters' dims' product."""
    dims: List[int] = []
    axis = None
    for letter, dim in zip(letters, letter_dims):
        if letter.axis != axis:
            axis = letter.axis
            dims.append(1)
        dims[-1] *= dim
    return dims


def _run_piece(part: _Piece) -> Callable[[Values], None]:
    """The run closure of a step that is one piece: its root computed
    into the arena view where it can be, else its value written there."""
    if part.into is not None:
        return part.into

    def run_piece(v: Values, value=part.value, write=part.write):
        write(v, value(v))

    return run_piece


def _run_pieces(parts: Sequence[_Piece]) -> Callable[[Values], None]:
    """The run closure of a step cut into pieces.

    Every piece is evaluated before the first write: under in-place
    elision the output's bytes are an operand's, and a piece must not read
    what another already wrote. Ufunc results are fresh arrays, but a
    piece that is a bare view read stays a view of its operand, so all
    such pieces but the first written are copied first (``np.copyto``
    itself copes with a source that overlaps its destination).
    """
    lazy = [k for k, part in enumerate(parts) if part.lazy]
    order = lazy[:1] + [k for k in range(len(parts)) if k not in lazy[:1]]
    values = tuple(
        (lambda v, fn=parts[k].value: np.array(fn(v)))
        if k in lazy[1:] else parts[k].value
        for k in order
    )
    writes = tuple(parts[k].write for k in order)

    def run_pieces(v: Values, values=values, writes=writes):
        results = [value(v) for value in values]
        for write, result in zip(writes, results):
            write(v, result)

    return run_pieces


def compile_plan_step(
    tensor: Tensor,
    index: int,
    key: Optional[int] = None,
    batch_size: Optional[int] = None,
    views: Optional[ReadViews] = None,
) -> PlanStep:
    """Lower one computed tensor to an executable :class:`PlanStep`.

    What :class:`ExecutionPlan` builds each step with, callable outside a
    plan: the tiling pass (:mod:`repro.runtime.tiling`) compiles cache-block
    clones of chain members through this same path, so a block step runs
    exactly the numpy kernels per output row the untiled step would.
    ``key`` defaults to ``id(tensor)``. With ``views`` the step reads its
    strided views from the values table (the plan builds them); without,
    it builds each view from its array when it runs.
    """
    if key is None:
        key = id(tensor)
    op = tensor.op
    assert op is not None

    contraction = match_contraction(tensor)
    if contraction is not None:
        keys = tuple(id(t) for t in contraction.tensors)
        fetch = (
            itemgetter(*keys) if len(keys) > 1
            else lambda v, k=keys[0]: (v[k],)
        )
        run = (
            contraction.run if batch_size is None
            else contraction.batched(batch_size)
        )

        def run_contraction(v: Values, fetch=fetch, key=key, run=run):
            run(fetch(v), v[key])

        return PlanStep(index, tensor.name, "einsum", key, run_contraction)

    spatial = list(op.axes)
    body = op.body
    reduce_axes: List[IterVar] = []
    if isinstance(body, Reduce):
        reduce_axes = list(body.axes)
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

    if not tensor_inputs(tensor):
        # Fully data-independent body: the result never changes.
        # (The arena view broadcasts the fold over any batch axis.)
        const, _ = _compile_expr(body, _grid_env(all_axes), len(all_axes))
        if reduce_axes:
            folded = REDUCE_FN[op.body.kind].reduce(
                np.broadcast_to(const, tuple(ax.extent for ax in all_axes)),
                axis=tuple(range(len(spatial), len(all_axes))),
            ).astype(EXEC_DTYPE)
        else:
            folded = np.broadcast_to(const, tensor.shape)

        def run_const(v: Values, key=key, folded=folded):
            np.copyto(v[key], folded)

        return PlanStep(
            index, tensor.name, "const", key, run_const,
            value_fn=lambda v, folded=folded: folded,
        )

    lowering = lower_views(tensor)
    compiler = _PieceCompiler(tensor, lowering, key, batch_size, views)
    parts = [compiler.compile(piece) for piece in lowering.pieces]
    run = _run_piece(parts[0]) if len(parts) == 1 else _run_pieces(parts)
    if compiler.kind is not None:
        return PlanStep(index, tensor.name, "reduce", key, run)

    if len(parts) == 1 and compiler.out(lowering.pieces[0])[1]:
        value_fn = parts[0].value
    else:
        # The value alone (for fusion): the pieces written to a new array.
        fresh = _PieceCompiler(tensor, lowering, key, batch_size, None)
        outs = tuple(fresh.out(p)[0] for p in lowering.pieces)
        values = tuple(part.value for part in parts)

        def value_fn(v: Values, shape=_batched(tensor.shape, batch_size),
                     key=key, outs=outs, values=values):
            results = [value(v) for value in values]
            local = {key: np.empty(shape, dtype=EXEC_DTYPE)}
            for out, result in zip(outs, results):
                np.copyto(out(local), result)
            return local[key]

    return PlanStep(index, tensor.name, "map", key, run, value_fn=value_fn)


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
    ) -> None:
        # Tiled chains' scratch buffers; set by optimize_plan.
        self._scratch_pool = None
        self.program = program
        self._inputs_by_id: Dict[int, Tensor] = {
            id(t): t for t in program.inputs
        }
        # The placeholders the program reads; a request must feed each.
        self._used_input_ids = {
            id(t) for node in program.nodes
            for t in tensor_inputs(node.tensor)
        } & self._inputs_by_id.keys()
        # The strided views the steps read, built with their arrays.
        self.read_views = ReadViews(self.batch_size)
        self.steps: List[PlanStep] = [
            compile_plan_step(
                node.tensor, i, key=id(node.tensor),
                batch_size=self.batch_size, views=self.read_views,
            )
            for i, node in enumerate(program.nodes)
        ]
        self._output_allocs: List[Tuple[int, Tuple[int, ...]]] = [
            (id(t), self._batched_shape(t.shape)) for t in program.outputs
        ]
        self._output_keys: List[int] = [id(t) for t in program.outputs]
        # Outputs, whose views are built per request.
        self._output_view_keys = [
            key for key in self._output_keys if key in self.read_views.makers
        ]
        # Feeds bound without conversion, kept with their views while the
        # caller passes the same array: tensor key -> (array, entries).
        self._kept_feeds: Dict[int, Tuple[np.ndarray, Values]] = {}
        # Plan-optimizer state; optimize_plan() rewrites steps, sets the
        # arena layout and sets this (see repro.runtime.plan_opt).
        self.optimization = None
        if optimize:
            from repro.runtime.plan_opt import optimize_plan

            optimize_plan(self)
        else:
            if memory_plan is None:
                memory_plan = plan_memory(
                    program, sizer=self._sizer, exclusive_writes=True
                )
            self._check_layout(program, memory_plan)
            self.memory_plan = memory_plan
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

    def _check_layout(
        self,
        program: ProgramLike,
        memory_plan: MemoryPlan,
        inplace: Optional[Set[Tuple[int, int]]] = None,
    ) -> None:
        """Fail loudly at plan time on an unsafe arena layout.

        Runs the verifier's arena-hazard pass (``repro.verify``) once over
        the layout this plan serves: missing assignments, step-level WAR
        hazards (steps write results through ``out=`` while operand views
        are being read), pairwise WAW/aliasing and stale liveness, with
        ``inplace`` allowlisting the optimizer's deliberate in-place
        pairs. Raises :class:`~repro.errors.PlanningError` from its errors.
        """
        from repro.verify import Severity, verify_plan

        report = verify_plan(
            program,
            memory_plan,
            sizer=self._sizer,
            require_exclusive_writes=True,
            inplace=inplace,
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
        return Arena(
            self.memory_plan, batch_size=self.batch_size,
            views=self.read_views,
        )

    def _bind_one(self, tensor: Tensor, value: np.ndarray) -> np.ndarray:
        """Convert one feed to the execution dtype, validating its shape.

        C-contiguous canonical layout: contraction views are built over
        C-ordered buffers, numpy picks its BLAS or einsum loop (and so the
        low-order bits) by operand strides, and arenas and evaluator feeds
        are contiguous too.
        """
        arr = np.ascontiguousarray(value, dtype=EXEC_DTYPE)
        if arr.shape != tensor.shape:
            raise ExecutionError(
                f"feed for {tensor.name} has shape {arr.shape}, "
                f"expected {tensor.shape}"
            )
        return arr

    def _bind_kept(self, tensor: Tensor, value: np.ndarray) -> Values:
        """One feed's values-table entries: the bound array (broadcast
        over the lanes of a batched plan) and the strided views the steps
        read of it.

        A program input bound without conversion (a contiguous float64
        array: a weight fed on every request) keeps its entries for as
        long as the caller passes that same array object. A hit still
        checks shape and dtype, which can be reassigned in place; the
        kept views read the array's bytes as they are on each request.
        A converted feed is bound afresh every time: its copy would not
        see the caller's later writes.
        """
        key = id(tensor)
        kept = self._kept_feeds.get(key)
        if (kept is not None and kept[0] is value
                and value.shape == tensor.shape
                and value.dtype == EXEC_DTYPE):
            return kept[1]
        arr = self._bind_one(tensor, value)
        entries: Values = {key: (
            arr if self.batch_size is None
            else np.broadcast_to(arr, (self.batch_size,) + arr.shape)
        )}
        self.read_views.build(entries, (key,))
        if arr is value and key in self._inputs_by_id:
            self._kept_feeds[key] = (value, entries)
        return entries

    def _check_fed(self, bound: Values) -> None:
        """Raise unless ``bound`` feeds every placeholder a step reads."""
        if self._used_input_ids <= bound.keys():
            return
        name = next(
            t.name for t in self.program.inputs
            if id(t) in self._used_input_ids and id(t) not in bound
        )
        raise ExecutionError(f"no feed provided for placeholder {name}")

    def bind_feeds(self, feeds: Mapping[Tensor, np.ndarray]) -> Values:
        """Validate and convert feeds to the execution representation,
        with the strided views the steps read of them (kept per array:
        see :meth:`_bind_kept`)."""
        bound: Values = {}
        for tensor, value in feeds.items():
            bound.update(self._bind_kept(tensor, value))
        self._check_fed(bound)
        return bound

    def _prepare_values(self, bound: Values, arena: Arena) -> Values:
        """Per-request values table: arena views, feeds, outputs."""
        values = dict(arena.views)
        values.update(bound)
        for key, shape in self._output_allocs:
            values[key] = np.empty(shape, dtype=EXEC_DTYPE)
        if self._output_view_keys:
            self.read_views.build(values, self._output_view_keys)
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

    Every step processes ``batch_size`` independent requests: matmul
    contraction pieces in one stacked ``np.matmul`` call, other pieces
    once per lane, elementwise and gather steps broadcasting their
    plan-time index grids over the batch, and the arena packs
    ``batch_size`` lanes per intermediate (the memory plan is computed
    with the batch-aware sizer, so disjoint live ranges still share
    bytes).

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
    ) -> None:
        if batch_size < 1:
            raise PlanningError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        # Set before super().__init__: the sizer and step builders read it.
        self.batch_size = int(batch_size)
        super().__init__(program, memory_plan, optimize=optimize)

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
        same bytes either way — and kept like an unbatched feed.
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
                bound.update(self._bind_kept(tensor, value))
                continue
            bound[id(tensor)] = np.stack(
                [self._bind_one(tensor, lane) for lane in lanes]
            )
            self.read_views.build(bound, (id(tensor),))
        self._check_fed(bound)
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
