"""Structural pattern recognisers over tensor expressions.

Used by the evaluator and the execution plan (to run every sum-of-products
reduction as contractions over strided views), by the execution plan (to
run every other map and reduction as pieces over strided views), by the
scheduler (tensor-core eligibility) and by TE characterisation.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TEError
from repro.te.affine import linearize
from repro.te.expr import BinOp, Call, Cmp, Const, Expr, IfThenElse, Reduce, TensorRead, Var
from repro.te.tensor import ComputeOp, Tensor, row_major_strides
from repro.te.traversal import contains_reduce, substitute_vars, walk


def is_elementwise(tensor: Tensor) -> bool:
    """True for TEs whose body contains no reduction (one-relies-on-one)."""
    if tensor.op is None:
        return False
    return not contains_reduce(tensor.op.body)


def is_reduction(tensor: Tensor) -> bool:
    """True for TEs with a top-level reduction (one-relies-on-many)."""
    return tensor.op is not None and isinstance(tensor.op.body, Reduce)


def reduction_kind(tensor: Tensor) -> Optional[str]:
    """``sum``/``max``/``min`` for reduction TEs, else ``None``."""
    if tensor.op is not None and isinstance(tensor.op.body, Reduce):
        return tensor.op.body.kind
    return None


@dataclass(frozen=True)
class MatmulPattern:
    """A recognised contraction ``out[spatial] = sum over reduce of lhs*rhs``.

    ``lhs_spec``/``rhs_spec``/``out_spec`` are einsum-style index strings over
    a shared alphabet, e.g. ``("ik", "kj", "ij")`` for a plain GEMM.
    """

    lhs: Tensor
    rhs: Tensor
    lhs_spec: str
    rhs_spec: str
    out_spec: str


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _pure_var_indices(read: TensorRead) -> Optional[List[str]]:
    """Index variable names if every index is a bare Var, else None."""
    names: List[str] = []
    for index in read.indices:
        if not isinstance(index, Var):
            return None
        names.append(index.name)
    return names


def match_matmul(tensor: Tensor) -> Optional[MatmulPattern]:
    """Recognise GEMM / batched-matmul / GEMV-shaped contractions.

    Matches ``sum(lhs[vars...] * rhs[vars...])`` where every index is a bare
    iteration variable; convolutions (whose indices are affine like
    ``h + rh``) do not match. The scheduler's tensor-core test is its only
    caller: execution runs every sum of products through
    :func:`match_contraction`.
    """
    if tensor.op is None or not isinstance(tensor.op.body, Reduce):
        return None
    red = tensor.op.body
    if red.kind != "sum" or not isinstance(red.body, BinOp) or red.body.op != "mul":
        return None
    lhs, rhs = red.body.lhs, red.body.rhs
    if not isinstance(lhs, TensorRead) or not isinstance(rhs, TensorRead):
        return None
    lhs_names = _pure_var_indices(lhs)
    rhs_names = _pure_var_indices(rhs)
    if lhs_names is None or rhs_names is None:
        return None

    spatial_names = [ax.name for ax in tensor.op.axes]
    reduce_names = [ax.name for ax in red.axes]
    legal = set(spatial_names) | set(reduce_names)
    if not set(lhs_names) <= legal or not set(rhs_names) <= legal:
        return None
    # Every index must sweep its full tensor dimension, otherwise the read
    # covers only a region and einsum dispatch would be wrong (can happen
    # after horizontal merging redirects reads into a concatenated tensor).
    extents = {ax.name: ax.extent for ax in tensor.op.axes}
    extents.update({ax.name: ax.extent for ax in red.axes})
    for read, names in ((lhs, lhs_names), (rhs, rhs_names)):
        shape = getattr(read.tensor, "shape", ())
        if len(names) != len(shape):
            return None
        for name, dim in zip(names, shape):
            if extents[name] != dim:
                return None
    # Every spatial axis must appear somewhere, else this is a broadcast
    # contraction the simple einsum dispatch below would mishandle.
    if not set(spatial_names) <= (set(lhs_names) | set(rhs_names)):
        return None

    letters: Dict[str, str] = {}
    for name in spatial_names + reduce_names:
        if name not in letters:
            if len(letters) >= len(_LETTERS):
                return None
            letters[name] = _LETTERS[len(letters)]
    try:
        lhs_spec = "".join(letters[n] for n in lhs_names)
        rhs_spec = "".join(letters[n] for n in rhs_names)
    except KeyError:
        return None
    out_spec = "".join(letters[n] for n in spatial_names)
    return MatmulPattern(lhs.tensor, rhs.tensor, lhs_spec, rhs_spec, out_spec)  # type: ignore[arg-type]


# ---- contractions over strided views ----------------------------------------

# A piece's kernel follows from its shapes alone, so every caller issues the
# same numpy call. A two-operand piece whose views are dense matrices in
# matmul order calls ``np.matmul`` straight into its output at any size
# (1.1 us against einsum's 3.8 us at 1x8x32 on a 2-core x86 host). Any other
# piece runs one C-level ``np.einsum`` loop below this many multiply-adds,
# where it beats the batched-matmul lowering's transposes and copies; above
# it BLAS wins (3x at 16K multiply-adds, 10x at 600K).
BMM_MIN_MACS = 1 << 12

# Contractions read and write float64 buffers (the execution dtype).
_ITEMSIZE = np.dtype(np.float64).itemsize

# Delinearisation rounds before a floordiv/mod index map is given up on.
_MAX_SPLIT_ROUNDS = 16

_FLIPPED = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}
# A select ``v op c`` on an output axis cuts that axis at ``c + shift``.
_CUT_SHIFT = {"lt": 0, "ge": 0, "le": 1, "gt": 1}


@dataclass(frozen=True)
class ContractionLetter:
    """One (virtual) iteration axis of a piece.

    TE axis ``axis`` takes the value ``lo + sum(multiplier * letter)`` over
    its letters — a mixed-radix split, which is what turns floordiv/mod
    index maps affine. ``lo`` is the piece's box start on an output axis
    and the axis's own start on a reduce axis (never cut into pieces).
    """

    letter: str
    axis: str
    multiplier: int
    extent: int


@dataclass(frozen=True)
class ContractionView:
    """A zero-copy strided view: element ``offset`` plus one element
    stride per letter into the C-ordered buffer of operand ``slot`` (the
    output's buffer when used as :attr:`ContractionPiece.out`). Letters
    are listed in memory order, largest stride first."""

    slot: int
    offset: int
    letters: str
    strides: Tuple[int, ...]


@dataclass(frozen=True)
class ContractionPiece:
    """One output box — ``(lo, hi)`` per spatial axis — computed as one
    einsum-style contraction of strided operand views."""

    box: Tuple[Tuple[int, int], ...]
    letters: Tuple[ContractionLetter, ...]
    operands: Tuple[ContractionView, ...]
    out: ContractionView

    @property
    def formula(self) -> str:
        ins = ",".join(view.letters for view in self.operands)
        return f"{ins}->{self.out.letters}"

    @property
    def kernel(self) -> str:
        """``"matmul"`` (``np.matmul`` into the output), ``"bmm"``
        (batched matmul through transposed copies) or ``"einsum"`` (one C
        loop). It follows from the views alone, so every kernel computes
        what the strided views say: ``matmul`` reads each view as one
        dense block, which only a dense view in matmul order is."""
        extent = {l.letter: l.extent for l in self.letters}
        if _matmul_order(self.operands, self.out, extent) is not None:
            return "matmul"
        if len(self.operands) == 2:
            a, b = (view.letters for view in self.operands)
            batch, rows, cols, inner = _groups(a, b, self.out.letters)
            grouped = set(a + b) <= set(batch + rows + cols + inner)
            if (inner and grouped
                    and math.prod(extent.values()) >= BMM_MIN_MACS):
                return "bmm"
        return "einsum"


@dataclass(frozen=True)
class Contraction:
    """A ``sum`` over a product of tensor reads, lowered to pieces.

    :meth:`run` takes one C-contiguous float64 array per entry of
    ``tensors`` plus the output array of ``shape``, and writes every
    piece's box.
    """

    tensors: Tuple[Tensor, ...]
    pieces: Tuple[ContractionPiece, ...]
    shape: Tuple[int, ...]
    _calls: Tuple[Callable, ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_calls", tuple(self._call(p) for p in self.pieces)
        )

    def _call(self, piece: ContractionPiece, lanes: Optional[int] = None):
        shapes = [t.shape for t in self.tensors]
        return _piece_call(piece, shapes, self.shape, lanes)

    def run(self, arrays: Sequence[np.ndarray], out: np.ndarray) -> None:
        for call in self._calls:
            call(arrays, out)

    def batched(self, lanes: int) -> Callable:
        """:meth:`run` for arrays and an output that lead with an axis of
        ``lanes`` requests (a weight lane may have stride 0).

        A matmul piece runs once over the stacked lanes: ``np.matmul``
        loops over leading axes outside each BLAS call, so every lane
        makes the call an unbatched run makes. Any other piece runs its
        unbatched call once per lane.
        """
        stacked = [
            self._call(p, lanes) for p in self.pieces if p.kernel == "matmul"
        ]
        looped = [
            call for p, call in zip(self.pieces, self._calls)
            if p.kernel != "matmul"
        ]
        if len(stacked) == 1 and not looped:
            return stacked[0]

        def run_batched(arrays, out):
            for call in stacked:
                call(arrays, out)
            if looped:
                for lane in range(lanes):
                    lane_arrays = [a[lane] for a in arrays]
                    for call in looped:
                        call(lane_arrays, out[lane])

        return run_batched


def _same(arr: np.ndarray) -> np.ndarray:
    return arr


def _view(
    arr: np.ndarray, offset: int, shape: Tuple[int, ...],
    strides: Tuple[int, ...],
) -> np.ndarray:
    return np.ndarray(
        shape, np.float64, buffer=arr, offset=offset, strides=strides
    )


def _dense(view: ContractionView, extent: Dict[str, int]) -> bool:
    """Whether ``view`` addresses one C-ordered block in letter order."""
    dims = [extent[c] for c in view.letters]
    return list(view.strides) == row_major_strides(dims)


def _groups(a: str, b: str, out: str) -> Tuple[str, str, str, str]:
    """Letters of a two-operand piece as ``(batch, rows, cols, inner)``:
    in both operands and the output, in ``a`` and the output, in ``b``
    and the output, in both operands only."""
    return (
        "".join(c for c in out if c in a and c in b),
        "".join(c for c in out if c in a and c not in b),
        "".join(c for c in out if c in b and c not in a),
        "".join(c for c in a if c in b and c not in out),
    )


def _matmul_order(
    operands: Sequence[ContractionView], out: ContractionView,
    extent: Dict[str, int],
) -> Optional[Tuple[ContractionView, ContractionView]]:
    """The two operands in ``np.matmul`` call order when they and the
    output are dense matrices ``(batch, rows, inner)``, ``(batch, inner,
    cols)`` and ``(batch, rows, cols)``, else ``None``."""
    if len(operands) != 2 or not all(
        _dense(view, extent) for view in (*operands, out)
    ):
        return None
    for a, b in (operands, operands[::-1]):
        batch, rows, cols, inner = _groups(a.letters, b.letters, out.letters)
        if (inner and a.letters == batch + rows + inner
                and b.letters == batch + inner + cols
                and out.letters == batch + rows + cols):
            return a, b
    return None


def _strided(
    view: ContractionView, shape: Sequence[int], extent: Dict[str, int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Array -> ``view`` of it. A view of the whole array is the array
    itself or a reshape of it: building an ``np.ndarray`` over a buffer
    costs about as much as a small piece's kernel call."""
    dims = tuple(extent[c] for c in view.letters)
    if (view.offset == 0 and math.prod(dims) == math.prod(shape)
            and _dense(view, extent)):
        return _same if dims == tuple(shape) else (
            lambda arr: arr.reshape(dims)
        )
    offset = view.offset * _ITEMSIZE
    strides = tuple(s * _ITEMSIZE for s in view.strides)
    return lambda arr: _view(arr, offset, dims, strides)


def _matrix(
    view: ContractionView, shape: Sequence[int], lead: Tuple[int, ...],
    mat: Tuple[int, ...],
) -> Callable[[np.ndarray], np.ndarray]:
    """Array -> its dense block ``view`` as a ``mat``-shaped array, without
    a copy; ``lead`` is the lanes axis a batched array carries in front."""
    size = math.prod(mat)
    target = lead + mat
    if view.offset == 0 and size == math.prod(shape):
        return _same if mat == tuple(shape) else (
            lambda arr: arr.reshape(target)
        )
    flat, lo, hi = lead + (-1,), view.offset, view.offset + size
    return lambda arr: arr.reshape(flat)[..., lo:hi].reshape(target)


def _piece_call(
    piece: ContractionPiece,
    shapes: Sequence[Tuple[int, ...]],
    out_shape: Tuple[int, ...],
    lanes: Optional[int] = None,
) -> Callable:
    """The numpy call for one piece, its geometry resolved up front.

    ``shapes`` holds each operand slot's array shape. With ``lanes`` (a
    matmul piece only) every array and the output lead with that many
    requests, and one ``np.matmul`` call covers them all.
    """
    extent = {l.letter: l.extent for l in piece.letters}

    def size(letters: str) -> int:
        return math.prod(extent[c] for c in letters)

    kernel = piece.kernel
    if kernel == "matmul":
        a, b = _matmul_order(piece.operands, piece.out, extent)
        batch, rows, cols, inner = _groups(
            a.letters, b.letters, piece.out.letters
        )
        lead = () if lanes is None else (lanes,)
        core = (size(batch),) if batch else ()
        take_a = _matrix(a, shapes[a.slot], lead,
                         core + (size(rows), size(inner)))
        take_b = _matrix(b, shapes[b.slot], lead,
                         core + (size(inner), size(cols)))
        take_o = _matrix(piece.out, out_shape, lead,
                         core + (size(rows), size(cols)))
        sa, sb = a.slot, b.slot
        if take_a is take_b is take_o is _same:

            def call_matmul(arrays, out):
                np.matmul(arrays[sa], arrays[sb], out=out)

        else:

            def call_matmul(arrays, out):
                np.matmul(
                    take_a(arrays[sa]), take_b(arrays[sb]), out=take_o(out)
                )

        return call_matmul

    takes = tuple(
        (view.slot, _strided(view, shapes[view.slot], extent))
        for view in piece.operands
    )
    take_o = _strided(piece.out, out_shape, extent)
    if kernel == "einsum":
        formula = piece.formula

        def call_einsum(arrays, out):
            np.einsum(
                formula, *[take(arrays[s]) for s, take in takes],
                out=take_o(out),
            )

        return call_einsum

    a_l, b_l = (view.letters for view in piece.operands)
    o_l = piece.out.letters
    batch, keep_a, keep_b, con = _groups(a_l, b_l, o_l)
    perm_a = tuple(a_l.index(c) for c in batch + keep_a + con)
    perm_b = tuple(b_l.index(c) for c in batch + con + keep_b)
    perm_o = tuple(o_l.index(c) for c in batch + keep_a + keep_b)
    mat_a = (size(batch), size(keep_a), size(con))
    mat_b = (size(batch), size(con), size(keep_b))
    result = tuple(extent[c] for c in batch + keep_a + keep_b)
    (sa, take_a), (sb, take_b) = takes

    def call_bmm(arrays, out):
        product = np.matmul(
            take_a(arrays[sa]).transpose(perm_a).reshape(mat_a),
            take_b(arrays[sb]).transpose(perm_b).reshape(mat_b),
        )
        np.copyto(take_o(out).transpose(perm_o), product.reshape(result))

    return call_bmm


def _factors(expr: Expr) -> Optional[List[TensorRead]]:
    """The reads of a pure product of tensor reads, else ``None``."""
    if isinstance(expr, TensorRead):
        return [expr]
    if isinstance(expr, BinOp) and expr.op == "mul":
        lhs = _factors(expr.lhs)
        rhs = _factors(expr.rhs)
        if lhs is not None and rhs is not None:
            return lhs + rhs
    return None


def _selects_products(expr: Expr) -> bool:
    """Whether every select branch is a product of two or more reads."""
    if isinstance(expr, IfThenElse):
        return (_selects_products(expr.then_value)
                and _selects_products(expr.else_value))
    factors = _factors(expr)
    return factors is not None and len(factors) >= 2


def _unclamped(expr: Expr) -> Tuple[Optional[Var], int]:
    """The axis variable under a chain of min/max clamps by constants and
    constant shifts (nested horizontal merges test ``min(v, c1) < c2`` and
    ``max(v - c1, 0) < c2``), with the net shift; ``(None, 0)`` if there
    is none.

    A cut that changes nothing is harmless: every piece decides its
    selects by simplification, clamps included; a contraction is declined
    if some piece cannot, and a view piece keeps the select.
    """
    shift = 0
    while isinstance(expr, BinOp) and isinstance(expr.rhs, Const):
        if expr.op in ("add", "sub") and type(expr.rhs.value) is int:
            shift += expr.rhs.value if expr.op == "add" else -expr.rhs.value
        elif expr.op not in ("min", "max"):
            break
        expr = expr.lhs
    return (expr, shift) if isinstance(expr, Var) else (None, 0)


def _cut_points(cond: Expr) -> Optional[List[Tuple[str, int]]]:
    """``(axis, cut)`` pairs of a select condition that compares (clamped)
    axes with constants — one comparison, or a conjunction written as
    their product (a pad guard ``(k ge 3) mul (k lt 19)``) — else ``None``.
    """
    if isinstance(cond, BinOp) and cond.op == "mul":
        lhs, rhs = _cut_points(cond.lhs), _cut_points(cond.rhs)
        return None if lhs is None or rhs is None else lhs + rhs
    if not isinstance(cond, Cmp) or cond.op not in _CUT_SHIFT:
        return None
    if isinstance(cond.rhs, Const):
        (var, shift), const, op = _unclamped(cond.lhs), cond.rhs.value, cond.op
    elif isinstance(cond.lhs, Const):
        (var, shift), const = _unclamped(cond.rhs), cond.lhs.value
        op = _FLIPPED[cond.op]
    else:
        return None
    if var is None or type(const) is not int:
        return None
    return [(var.name, const - shift + _CUT_SHIFT[op])]


def _piece_boxes(
    expr: Expr, axes: Sequence, strict: bool = True
) -> Optional[List[Tuple[Tuple[int, int], ...]]]:
    """Cut the output domain at every select threshold on an output axis.

    Returns the boxes (one ``(lo, hi)`` per axis) of the cut grid. A select
    whose condition is not a comparison (or conjunction of comparisons) of
    an output axis with a constant makes it return ``None`` when
    ``strict``, and is left uncut otherwise.
    """
    cuts = {ax.name: {ax.dom.lo, ax.dom.hi} for ax in axes}
    for node in walk(expr):
        if not isinstance(node, IfThenElse):
            continue
        points = _cut_points(node.cond)
        if points is None or any(name not in cuts for name, _ in points):
            if strict:
                return None
            continue
        for name, point in points:
            cuts[name].add(point)
    intervals = []
    for ax in axes:
        points = sorted(
            c for c in cuts[ax.name] if ax.dom.lo <= c <= ax.dom.hi
        )
        intervals.append(list(zip(points, points[1:])))
    return list(itertools.product(*intervals))


def _radix_splits(exprs: Sequence[Expr], ranges) -> Dict[str, int]:
    """Mixed-radix splits that let floordiv/mod fold away.

    For ``(c*v + ...) floordiv d`` (or ``mod d``) with ``c`` dividing ``d``,
    splitting ``v`` at stride ``d / c`` puts ``v``'s low part in the
    remainder and its high part in the quotient. Innermost maps go first;
    what they fold into exposes the outer ones in the next round.
    """
    names = list(ranges)
    splits: Dict[str, int] = {}
    for node in itertools.chain.from_iterable(walk(e) for e in exprs):
        if not (isinstance(node, BinOp) and node.op in ("floordiv", "mod")):
            continue
        divisor = node.rhs.value if isinstance(node.rhs, Const) else None
        if type(divisor) is not int or divisor <= 1:
            continue
        try:
            coeffs, _ = linearize(node.lhs, names)
        except TEError:
            continue
        for name, coeff in coeffs.items():
            coeff = abs(coeff)
            if coeff == 0 or coeff % divisor == 0 or divisor % coeff:
                continue
            stride = divisor // coeff
            extent = ranges[name].hi + 1
            if stride < extent and extent % stride == 0:
                splits[name] = min(stride, splits.get(name, stride))
    return splits


class _Letters:
    """The letters of one piece: every axis over its span, then split
    into mixed-radix parts wherever a floordiv/mod index map asks."""

    def __init__(self, spans) -> None:
        from repro.transform.simplify import Interval

        self._interval = Interval
        self.parts: Dict[str, Tuple[str, int, int]] = {}
        self.ranges: Dict[str, object] = {}
        self._fresh = itertools.count()
        self.mapping: Dict[str, Expr] = {}
        self.rank = {ax.name: k for k, (ax, _) in enumerate(spans)}
        for ax, (lo, hi) in spans:
            var = self._new_var(ax.name, 1, hi - lo)
            self.mapping[ax.name] = (
                var if lo == 0 else BinOp("add", var, Const(lo, "int32"))
            )

    def _new_var(self, axis: str, multiplier: int, extent: int) -> Var:
        name = f"{axis}${next(self._fresh)}"
        self.parts[name] = (axis, multiplier, extent)
        self.ranges[name] = self._interval(0, extent - 1)
        return Var(name)

    def simplify(self, exprs: Sequence[Expr], sub) -> List[Expr]:
        from repro.transform.simplify import Simplifier

        simplifier = Simplifier(self.ranges)
        return [simplifier.simplify(substitute_vars(e, sub)) for e in exprs]

    def split(self, exprs: List[Expr]) -> List[Expr]:
        """Delinearise ``exprs`` (already over the letters) round by round."""
        for _ in range(_MAX_SPLIT_ROUNDS):
            splits = _radix_splits(exprs, self.ranges)
            if not splits:
                break
            sub: Dict[str, Expr] = {}
            for name, stride in splits.items():
                axis, multiplier, extent = self.parts.pop(name)
                del self.ranges[name]
                high = self._new_var(axis, multiplier * stride, extent // stride)
                low = self._new_var(axis, multiplier, stride)
                sub[name] = BinOp(
                    "add", BinOp("mul", high, Const(stride, "int32")), low
                )
            exprs = self.simplify(exprs, sub)
        return exprs

    def name(self) -> Optional[Dict[str, str]]:
        """Letter per part, axis by axis and largest multiplier first
        (C order over each axis), or ``None`` past 52 parts."""
        rank = self.rank
        names = sorted(
            self.parts, key=lambda n: (rank[self.parts[n][0]], -self.parts[n][1])
        )
        if len(names) > len(string.ascii_letters):
            return None
        return {n: string.ascii_letters[k] for k, n in enumerate(names)}

    def letters(self, letter_of: Dict[str, str]) -> Tuple[ContractionLetter, ...]:
        return tuple(
            ContractionLetter(letter_of[n], *self.parts[n]) for n in letter_of
        )

    def view(
        self, tensor: Tensor, indices: Sequence[Expr], slot: int,
        letter_of: Dict[str, str],
    ) -> Optional[ContractionView]:
        """The read ``tensor[indices]`` (over the letters) as a strided
        view of slot ``slot``, or ``None`` if some index is not affine in
        the letters or leaves the tensor."""
        names = list(letter_of)
        offset = 0
        strides = dict.fromkeys(names, 0)
        shape = tensor.shape
        steps = row_major_strides(shape)
        for index, dim, step in zip(indices, shape, steps):
            try:
                coeffs, const = linearize(index, names)
            except TEError:
                return None
            lo = hi = const
            for name, coeff in coeffs.items():
                reach = coeff * (self.parts[name][2] - 1)
                lo += min(0, reach)
                hi += max(0, reach)
                strides[name] += coeff * step
            if lo < 0 or hi >= dim:
                return None
            offset += const * step
        kept = sorted(
            (n for n in names if strides[n] and self.parts[n][2] > 1),
            key=lambda n: -abs(strides[n]),
        )
        return ContractionView(
            slot, offset, "".join(letter_of[n] for n in kept),
            tuple(strides[n] for n in kept),
        )

    def out_view(
        self, axes: Sequence, box, out_shape: Sequence[int],
        letter_of: Dict[str, str],
    ) -> ContractionView:
        """The box's row-major addresses in the output, over its letters."""
        out_strides = dict(
            zip((ax.name for ax in axes), row_major_strides(out_shape))
        )
        out_offset = sum(
            (lo - ax.dom.lo) * out_strides[ax.name]
            for ax, (lo, _) in zip(axes, box)
        )
        out_names = [
            n for n in letter_of
            if self.parts[n][0] in out_strides and self.parts[n][2] > 1
        ]
        return ContractionView(
            -1, out_offset, "".join(letter_of[n] for n in out_names),
            tuple(
                self.parts[n][1] * out_strides[self.parts[n][0]]
                for n in out_names
            ),
        )


def _slot(tensor: Tensor, slots: Dict[int, int], tensors: List[Tensor]) -> int:
    slot = slots.setdefault(id(tensor), len(tensors))
    if slot == len(tensors):
        tensors.append(tensor)
    return slot


def _lower_piece(
    red: Reduce,
    axes: Sequence,
    out_shape: Sequence[int],
    box: Tuple[Tuple[int, int], ...],
    slots: Dict[int, int],
    tensors: List[Tensor],
) -> Optional[ContractionPiece]:
    """Lower one output box: fold its selects and clamps, delinearise its
    floordiv/mod maps, and turn every read into a strided view."""
    spans = list(zip(axes, box)) + [
        (ax, (ax.dom.lo, ax.dom.hi)) for ax in red.axes
    ]
    space = _Letters(spans)
    (body,) = space.split(space.simplify([red.body], space.mapping))
    factors = _factors(body)
    if factors is None or len(factors) < 2:
        return None
    letter_of = space.name()
    if letter_of is None:
        return None

    operands: List[ContractionView] = []
    for read in factors:
        view = space.view(
            read.tensor, read.indices, _slot(read.tensor, slots, tensors),
            letter_of,
        )
        if view is None:
            return None
        operands.append(view)

    read_letters = set("".join(view.letters for view in operands))
    if any(
        space.parts[n][2] > 1 and letter_of[n] not in read_letters
        for n in letter_of
    ):
        return None  # a broadcast or uncounted axis: not a contraction

    out = space.out_view(axes, box, out_shape, letter_of)
    return ContractionPiece(box, space.letters(letter_of), tuple(operands), out)


def match_contraction(tensor: Tensor) -> Optional[Contraction]:
    """Lower a ``sum`` over a product of tensor reads to contractions on
    zero-copy strided views, or return ``None``.

    Covers plain and batched GEMMs (one piece, whole-array views) and what
    Souffle's transforms leave behind when a GEMM stops being one:
    floordiv/mod index maps of composed reshapes (delinearised by
    mixed-radix axis splits and re-simplified), affine window and offset
    reads
    (``x[c, 2k+rh, 2l+rw]``, ``t[i, k, r+8]``) and predicated horizontal
    merges — ``if_then_else`` over constant thresholds of output axes,
    cut into pieces whose selects and clamps fold away, each writing its
    own output box. Declines max/min reductions, non-product bodies,
    out-of-bounds windows and any axis no operand reads.

    A sum reduction is recognised once: the result is kept on the tensor
    (keyed by its op, which a horizontal merge assigns after creation), so
    plan builds at every batch size, the ``Evaluator`` and the certifier
    share one :class:`Contraction` and the memo dies with the tensor.
    """
    op = tensor.op
    if op is None or not isinstance(op.body, Reduce) or op.body.kind != "sum":
        return None
    memo = getattr(tensor, "_contraction", None)
    if memo is None or memo[0] is not op:
        memo = (op, _lower_contraction(op, tensor.shape))
        tensor._contraction = memo
    return memo[1]


def _lower_contraction(
    op: ComputeOp, shape: Tuple[int, ...]
) -> Optional[Contraction]:
    """The uncached recognition behind :func:`match_contraction`."""
    red = op.body
    if not _selects_products(red.body):
        return None
    boxes = _piece_boxes(red.body, op.axes)
    if boxes is None:
        return None
    slots: Dict[int, int] = {}
    tensors: List[Tensor] = []
    pieces = []
    for box in boxes:
        piece = _lower_piece(red, op.axes, shape, box, slots, tensors)
        if piece is None:
            return None
        pieces.append(piece)
    return Contraction(tuple(tensors), tuple(pieces), tuple(shape))


# ---- every other TE: pieces over strided views --------------------------------

# A TE cut into more boxes than this runs as one piece over its whole output
# instead: past it, per-piece dispatch costs more than the selects it saves.
MAX_VIEW_PIECES = 64


@dataclass(frozen=True)
class ViewPiece:
    """One output box of a non-contraction TE.

    ``body`` is the TE's body (reduction peeled off) on the box: every
    select whose condition the box decides is replaced by its branch, and
    nothing else changes — value arithmetic is never simplified, so
    ``x + 0.0`` still turns ``-0.0`` into ``0.0``. ``reads`` pairs each
    read node of ``body`` with its strided view over ``letters``, or with
    ``None`` when no view can express it (the executor gathers those).
    ``out`` addresses the box in the output.
    """

    box: Tuple[Tuple[int, int], ...]
    letters: Tuple[ContractionLetter, ...]
    body: Expr
    reads: Tuple[Tuple[TensorRead, Optional[ContractionView]], ...]
    out: ContractionView


@dataclass(frozen=True)
class ViewLowering:
    """A map or reduction TE as pieces whose reads are strided views of
    the C-ordered buffers of ``tensors`` (a view's ``slot`` indexes it)."""

    tensors: Tuple[Tensor, ...]
    pieces: Tuple[ViewPiece, ...]
    shape: Tuple[int, ...]


def _reads_data(expr: Expr) -> bool:
    return any(isinstance(node, TensorRead) for node in walk(expr))


# Index arithmetic the interval simplifier folds; an index without any is
# already linear in the letters once they are substituted.
_FOLDED_INDEX_OPS = ("floordiv", "mod", "min", "max", "div")


def _index_kind(expr: Expr) -> Optional[bool]:
    """``None`` if the index reads data, else whether it needs folding."""
    fold = False
    for node in walk(expr):
        if isinstance(node, TensorRead):
            return None
        if isinstance(node, (IfThenElse, Cmp)) or (
            isinstance(node, BinOp) and node.op in _FOLDED_INDEX_OPS
        ):
            fold = True
    return fold


def _fold_selects(expr: Expr, ranges) -> Expr:
    """Replace every select whose data-independent condition the ranges
    decide by its branch; leave everything else as it is."""
    from repro.transform.simplify import Simplifier

    simplifier = Simplifier(ranges)
    memo: Dict[int, Expr] = {}

    def decide(cond: Expr) -> Optional[bool]:
        if _reads_data(cond):
            return None
        folded = simplifier.simplify(cond)
        return bool(folded.value) if isinstance(folded, Const) else None

    def fold(node: Expr) -> Expr:
        done = memo.get(id(node))
        if done is not None:
            return done
        result = node
        if isinstance(node, IfThenElse):
            verdict = decide(node.cond)
            if verdict is not None:
                result = fold(node.then_value if verdict else node.else_value)
            else:
                then_value, else_value = (
                    fold(node.then_value), fold(node.else_value)
                )
                if (then_value is not node.then_value
                        or else_value is not node.else_value):
                    result = IfThenElse(node.cond, then_value, else_value)
        elif isinstance(node, (BinOp, Cmp)):
            lhs, rhs = fold(node.lhs), fold(node.rhs)
            if lhs is not node.lhs or rhs is not node.rhs:
                result = type(node)(node.op, lhs, rhs)
        elif isinstance(node, Call):
            args = tuple(fold(a) for a in node.args)
            if any(a is not b for a, b in zip(args, node.args)):
                result = Call(node.func, args)
        memo[id(node)] = result
        return result

    return fold(expr)


def _body_reads(body: Expr) -> List[TensorRead]:
    """The distinct read nodes of ``body``, in pre-order."""
    seen: Dict[int, TensorRead] = {}
    for node in walk(body):
        if isinstance(node, TensorRead):
            seen.setdefault(id(node), node)
    return list(seen.values())


def _lower_view_piece(
    body: Expr,
    axes: Sequence,
    reduce_axes: Sequence,
    out_shape: Sequence[int],
    box: Tuple[Tuple[int, int], ...],
    slots: Dict[int, int],
    tensors: List[Tensor],
    split: bool = True,
    selects: bool = True,
) -> Optional[ViewPiece]:
    """Lower one output box: fold the selects it decides, delinearise the
    floordiv/mod maps of its reads and turn each affine read into a
    strided view. ``selects=False`` says the body has none."""
    from repro.transform.simplify import Interval, Simplifier

    spans = list(zip(axes, box)) + [
        (ax, (ax.dom.lo, ax.dom.hi)) for ax in reduce_axes
    ]
    if selects:
        body = _fold_selects(body, {
            ax.name: Interval(lo, hi - 1) for ax, (lo, hi) in spans
        })
    reads = _body_reads(body)
    space = _Letters(spans)
    simplifier = Simplifier(space.ranges)
    # A read whose index reads data is gathered: its map is not affine.
    affine: List[Tuple[TensorRead, int]] = []
    flat: List[Expr] = []
    folded = False
    for read in reads:
        kinds = [_index_kind(i) for i in read.indices]
        if None in kinds:
            continue
        affine.append((read, len(flat)))
        for index, fold in zip(read.indices, kinds):
            index = substitute_vars(index, space.mapping)
            if fold:
                index = simplifier.simplify(index)
                folded = True
            flat.append(index)
    if split and folded:
        flat = space.split(flat)
    letter_of = space.name()
    if letter_of is None:
        return None
    views: Dict[int, Optional[ContractionView]] = {}
    for read, start in affine:
        views[id(read)] = space.view(
            read.tensor, flat[start:start + len(read.indices)],
            _slot(read.tensor, slots, tensors), letter_of,
        )
    return ViewPiece(
        box,
        space.letters(letter_of),
        body,
        tuple((read, views.get(id(read))) for read in reads),
        space.out_view(axes, box, out_shape, letter_of),
    )


def lower_views(tensor: Tensor) -> Optional[ViewLowering]:
    """Lower a map or reduction TE to pieces over strided views.

    The output is cut at every select threshold on an output axis
    (conjunctions included), as :func:`match_contraction` cuts it; each
    piece folds the selects its box decides, splits floordiv/mod index
    maps into mixed-radix letters and reads every affine in-bounds index
    map as a view: an element offset plus one stride per letter. What no
    view expresses — a data-dependent index, or a read that leaves its
    tensor under a select the box does not decide — stays a read node the
    executor gathers. Returns ``None`` for placeholders.

    Memoised on the tensor like :func:`match_contraction`, so plans at
    every batch size, tiled blocks and the certifier share one lowering.
    """
    op = tensor.op
    if op is None:
        return None
    memo = getattr(tensor, "_views", None)
    if memo is None or memo[0] is not op:
        memo = (op, _lower_views(op, tuple(tensor.shape)))
        tensor._views = memo
    return memo[1]


def _lower_views(op: ComputeOp, shape: Tuple[int, ...]) -> ViewLowering:
    """The uncached lowering behind :func:`lower_views`."""
    body, reduce_axes = op.body, ()
    if isinstance(body, Reduce):
        body, reduce_axes = body.body, body.axes
    whole = tuple((ax.dom.lo, ax.dom.hi) for ax in op.axes)
    selects = any(isinstance(node, IfThenElse) for node in walk(body))
    boxes = _piece_boxes(body, op.axes, strict=False) if selects else [whole]
    if len(boxes) > MAX_VIEW_PIECES:
        boxes = [whole]
    slots: Dict[int, int] = {}
    tensors: List[Tensor] = []
    pieces = [
        _lower_view_piece(
            body, op.axes, reduce_axes, shape, box, slots, tensors,
            selects=selects,
        )
        for box in boxes
    ]
    if any(piece is None for piece in pieces):
        # Past 52 letters: one piece, one letter per axis.
        slots, tensors = {}, []
        pieces = [_lower_view_piece(
            body, op.axes, reduce_axes, shape, whole, slots, tensors,
            split=False, selects=selects,
        )]
    return ViewLowering(tuple(tensors), tuple(pieces), shape)


def count_arith_ops(
    expr: Expr, unit_intrinsics: bool = False, include_index_math: bool = True
) -> int:
    """Arithmetic-instruction count of one evaluation of ``expr``.

    Reductions multiply their body cost by the reduction domain size (the
    body runs once per reduction point) plus one combine op per point.

    ``unit_intrinsics`` counts every intrinsic call as a single instruction —
    the right granularity for the paper's compute/memory *classification*
    (Sec. 5.3 counts instructions per element; a ``tanh`` is one MUFU op),
    whereas the performance model wants the full FLOP-equivalent cost.
    ``include_index_math=False`` excludes address computation inside tensor
    read indices (classification counts data arithmetic, not addressing —
    a reshape moves bytes, it does not compute).
    """
    from repro.te.expr import intrinsic_flop_cost

    if isinstance(expr, (Const, Var)):
        return 0
    if isinstance(expr, TensorRead):
        if not include_index_math:
            return 0
        return sum(
            count_arith_ops(i, unit_intrinsics, include_index_math)
            for i in expr.indices
        )
    if isinstance(expr, (BinOp, Cmp)):
        return (
            1
            + count_arith_ops(expr.lhs, unit_intrinsics, include_index_math)
            + count_arith_ops(expr.rhs, unit_intrinsics, include_index_math)
        )
    if isinstance(expr, Call):
        cost = 1 if unit_intrinsics else intrinsic_flop_cost(expr.func)
        return cost + sum(
            count_arith_ops(a, unit_intrinsics, include_index_math)
            for a in expr.args
        )
    if isinstance(expr, IfThenElse):
        # Selection executes one branch per element; the predicate itself is
        # block-uniform after codegen (horizontal merges guard branches with
        # `if (blockIdx < ...)`), so it hoists out of the per-element cost.
        return 1 + max(
            count_arith_ops(expr.then_value, unit_intrinsics, include_index_math),
            count_arith_ops(expr.else_value, unit_intrinsics, include_index_math),
        )
    if isinstance(expr, Reduce):
        domain = 1
        for ax in expr.axes:
            domain *= ax.extent
        return domain * (
            1 + count_arith_ops(expr.body, unit_intrinsics, include_index_math)
        )
    return 0


def count_memory_reads(expr: Expr) -> int:
    """Number of tensor-element reads per evaluation of ``expr``."""
    if isinstance(expr, TensorRead):
        return 1
    if isinstance(expr, Reduce):
        domain = 1
        for ax in expr.axes:
            domain *= ax.extent
        return domain * count_memory_reads(expr.body)
    if isinstance(expr, (BinOp, Cmp)):
        return count_memory_reads(expr.lhs) + count_memory_reads(expr.rhs)
    if isinstance(expr, Call):
        return sum(count_memory_reads(a) for a in expr.args)
    if isinstance(expr, IfThenElse):
        return (
            count_memory_reads(expr.cond)
            + count_memory_reads(expr.then_value)
            + count_memory_reads(expr.else_value)
        )
    return 0
