"""Translation validation: symbolic equivalence certificates per transform.

The repo's transforms were historically checked *dynamically* — replay six
models, diff bytes (``transform.semantics``, the plan optimizer's per-pass
differential gates). This module makes "semantic-preserving" a static,
per-compile guarantee instead of a test-suite property: every transform
application is re-expressed as a proof obligation over canonicalized tensor
expressions and discharged symbolically, with a bounded concrete refutation
search producing a minimized, replayable counterexample feed whenever
equality cannot be established.

One certifier per transform family:

* ``certify_te_transform``      — TE-level horizontal / vertical rewrites
  (``transform/``): before/after tensors are matched by name, each matched
  pair's body is closed over the already-proved frontier (unmatched
  intermediates inlined exactly the way the transforms inline them),
  simplified with the same interval engine the vertical transform uses,
  canonicalized (positional alpha-renaming, commutative-chain sorting,
  affine index normal forms via :func:`repro.te.affine.linearize`) and
  compared structurally.
* ``certify_plan_optimization`` — plan-level fusion / elision / block
  tiling (``runtime/plan_opt.py`` + ``runtime/tiling.py``) and the
  contraction lowering every sum of products runs (``te/patterns.py``):
  obligations are re-derived independently of the planner (sequential
  group composition over the group's read frontier, consumer liveness of
  elided operands, exact row-partition cover and per-read alignment
  classes, each contraction piece's views re-derived from the TE's own
  index maps).
* ``certify_batched_lowering``  — batched lowering (``runtime/executor``):
  lane-invariance of every precomputed gather grid (no data-dependent
  indexing).
* ``certify_batched_binding``   — the batch binding layer: every lane of
  every bound placeholder must hold that request's feed (the zero-stride
  broadcast fast path included), probed with deterministic per-lane feeds.

Everything on the *prove* path is static — no evaluation grid is ever
materialised, so certification works at paper scale where the functional
executor cannot run. Concrete evaluation happens only in the refutation
search, and then pointwise: single output coordinates evaluated over
lazily generated per-(tensor, index) feed values.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import TEError, VerificationError
from repro.te.affine import linearize
from repro.te.evaluator import _CALL_FN
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
from repro.te.patterns import match_contraction
from repro.te.tensor import Tensor, placeholder, row_major_strides
from repro.te.traversal import (
    collect_reads,
    count_nodes,
    free_vars,
    rename_reduce_axes,
    replace_tensor_reads,
    substitute_vars,
    walk,
)
from repro.transform.simplify import Interval, simplify_expr
from repro.verify.diagnostics import (
    Diagnostic,
    Location,
    PASS_EQUIVALENCE,
    Severity,
)
from repro.verify.view import ProgramLike, ProgramView, as_view

# Certificate statuses.
PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"

# Budget caps: closures past this size fall back to refutation/unknown
# instead of stalling the compile; reduction domains past this many points
# are too big to fold pointwise.
MAX_CLOSURE_NODES = 50_000
MAX_REDUCE_POINTS = 1 << 14
MAX_FEED_ENTRIES = 512
MAX_PROBE_ELEMENTS = 1 << 20

_REL_TOL = 1e-6
_ABS_TOL = 1e-8


# ---- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """A concrete refutation: one output coordinate where before != after.

    ``feeds`` holds exactly the (tensor name, element index, value) entries
    the two evaluations actually read, so the divergence replays from the
    certificate alone (see :func:`replay_certificate`); the coordinate is
    greedily minimized toward the origin.
    """

    output: str
    coordinates: Tuple[int, ...]
    before_value: float
    after_value: float
    feeds: Tuple[Tuple[str, Tuple[int, ...], float], ...]
    truncated: bool = False

    def feed_map(self) -> Dict[Tuple[str, Tuple[int, ...]], float]:
        return {(name, idx): value for name, idx, value in self.feeds}

    def as_dict(self) -> Dict[str, object]:
        return {
            "output": self.output,
            "coordinates": list(self.coordinates),
            "before_value": self.before_value,
            "after_value": self.after_value,
            "feeds": [
                [name, list(idx), value] for name, idx, value in self.feeds
            ],
            "truncated": self.truncated,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Counterexample":
        return cls(
            output=str(payload["output"]),
            coordinates=tuple(int(c) for c in payload["coordinates"]),
            before_value=float(payload["before_value"]),
            after_value=float(payload["after_value"]),
            feeds=tuple(
                (str(name), tuple(int(i) for i in idx), float(value))
                for name, idx, value in payload["feeds"]
            ),
            truncated=bool(payload.get("truncated", False)),
        )

    def render(self) -> str:
        feeds = ", ".join(
            f"{name}{list(idx)}={value:g}" for name, idx, value in self.feeds[:4]
        )
        more = (
            f", ... {len(self.feeds) - 4} more feed entries"
            if len(self.feeds) > 4
            else ""
        )
        return (
            f"{self.output}{list(self.coordinates)}: "
            f"before={self.before_value:g} after={self.after_value:g} "
            f"(feeds: {feeds}{more})"
        )


@dataclass(frozen=True)
class EquivalenceCertificate:
    """The verdict for one transform application.

    ``obligations`` counts the proof obligations discharged (matched tensor
    pairs, fused groups, elided operands, ...) — a proved certificate with
    zero obligations records that the transform had nothing to do, which is
    still a statement worth caching.
    """

    transform: str
    subject: str
    status: str
    obligations: int = 0
    detail: str = ""
    counterexample: Optional[Counterexample] = None

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    def as_dict(self) -> Dict[str, object]:
        return {
            "transform": self.transform,
            "subject": self.subject,
            "status": self.status,
            "obligations": self.obligations,
            "detail": self.detail,
            "counterexample": (
                self.counterexample.as_dict() if self.counterexample else None
            ),
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, object]
    ) -> "EquivalenceCertificate":
        cx = payload.get("counterexample")
        return cls(
            transform=str(payload["transform"]),
            subject=str(payload["subject"]),
            status=str(payload["status"]),
            obligations=int(payload.get("obligations", 0)),
            detail=str(payload.get("detail", "")),
            counterexample=Counterexample.from_dict(cx) if cx else None,
        )

    def render(self) -> str:
        line = (
            f"{self.status.upper():8s}[{self.transform}] {self.subject}: "
            f"{self.obligations} obligation(s)"
        )
        if self.detail:
            line += f" — {self.detail}"
        if self.counterexample is not None:
            line += f"\n    counterexample: {self.counterexample.render()}"
        return line

    def to_diagnostic(self) -> Diagnostic:
        """Bridge into the verifier's diagnostic machinery."""
        severity = {
            PROVED: Severity.INFO,
            UNKNOWN: Severity.WARNING,
            REFUTED: Severity.ERROR,
        }[self.status]
        message = (
            f"{self.transform}: {self.status} "
            f"({self.obligations} obligation(s))"
        )
        if self.detail:
            message += f" — {self.detail}"
        if self.counterexample is not None:
            message += f"; counterexample {self.counterexample.render()}"
        return Diagnostic(
            severity,
            PASS_EQUIVALENCE,
            Location("program", self.subject, self.transform),
            message,
        )


@dataclass
class CertificationReport:
    """All certificates emitted for one model / plan."""

    subject: str = "<program>"
    certificates: List[EquivalenceCertificate] = field(default_factory=list)

    def add(self, certificate: EquivalenceCertificate) -> None:
        self.certificates.append(certificate)

    def extend(
        self, certificates: Sequence[EquivalenceCertificate]
    ) -> None:
        self.certificates.extend(certificates)

    def _with_status(self, status: str) -> List[EquivalenceCertificate]:
        return [c for c in self.certificates if c.status == status]

    @property
    def proved(self) -> List[EquivalenceCertificate]:
        return self._with_status(PROVED)

    @property
    def refuted(self) -> List[EquivalenceCertificate]:
        return self._with_status(REFUTED)

    @property
    def unknown(self) -> List[EquivalenceCertificate]:
        return self._with_status(UNKNOWN)

    @property
    def all_proved(self) -> bool:
        return bool(self.certificates) and not self.refuted and not self.unknown

    def sorted(self) -> List[EquivalenceCertificate]:
        order = {REFUTED: 0, UNKNOWN: 1, PROVED: 2}
        return sorted(
            self.certificates,
            key=lambda c: (order[c.status], c.transform, c.subject, c.detail),
        )

    def render(self) -> str:
        lines = [c.render() for c in self.sorted()]
        lines.append(
            f"{self.subject}: {len(self.proved)} proved, "
            f"{len(self.refuted)} refuted, {len(self.unknown)} unknown"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "proved": len(self.proved),
            "refuted": len(self.refuted),
            "unknown": len(self.unknown),
            "certificates": [c.as_dict() for c in self.sorted()],
        }

    def diagnostics(self) -> List[Diagnostic]:
        return [c.to_diagnostic() for c in self.sorted()]

    def exit_code(self, strict: bool = False) -> int:
        """``repro certify`` contract: refutations -> 1, unknowns -> 1
        only under ``--strict``."""
        if self.refuted:
            return 1
        if strict and self.unknown:
            return 1
        return 0

    def __iter__(self):
        return iter(self.certificates)

    def __len__(self) -> int:
        return len(self.certificates)


class ClosureBudgetExceeded(Exception):
    """Symbolic closure grew past :data:`MAX_CLOSURE_NODES`."""


class RefutationBudgetExceeded(Exception):
    """A reduction domain is too large for pointwise evaluation."""


# ---- symbolic closures ------------------------------------------------------


@dataclass
class Closure:
    """A tensor's value as an expression over a frontier of named reads.

    ``axes`` are the output's spatial axes; every other variable in
    ``expr`` is bound by a Reduce. ``ranges`` maps every variable to its
    interval, feeding both the simplifier and the canonicalizer.
    """

    axes: Tuple[IterVar, ...]
    expr: Expr
    ranges: Dict[str, Interval]


def _ranges_for(axes: Sequence[IterVar], expr: Expr) -> Dict[str, Interval]:
    """Interval environment for a closure (mirrors the vertical pass)."""
    ranges = {
        ax.name: Interval(ax.dom.lo, ax.dom.hi - 1) for ax in axes
    }
    for sub in walk(expr):
        if isinstance(sub, Reduce):
            for ax in sub.axes:
                ranges[ax.name] = Interval(ax.dom.lo, ax.dom.hi - 1)
    return ranges


_FOLD_OPS = ("max", "min", "floordiv", "mod")


def _foldable(expr: Expr) -> bool:
    """Whether the interval simplifier can do anything to ``expr``.

    The fold targets clamp scaffolding (min/max), decidable branches
    (Cmp / IfThenElse) and interval-constant floordiv/mod; expressions
    without any of those pass through ``simplify_expr`` unchanged, so
    skipping the (expensive) pass on them is behaviour-preserving.
    """
    for sub in walk(expr):
        if isinstance(sub, (IfThenElse, Cmp)):
            return True
        if isinstance(sub, BinOp) and sub.op in _FOLD_OPS:
            return True
    return False


def _linear_form(expr: Expr) -> Optional[Tuple[Dict[str, int], int]]:
    """Single-pass integer linear form ``coeffs * vars + const``.

    Equivalent to ``linearize`` over the expression's free variables
    (exact cancellation included) without the separate ``free_vars``
    walk — this sits on the hottest closure-folding path.
    """
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return {}, value
        if isinstance(value, float) and value.is_integer():
            return {}, int(value)
        return None
    if isinstance(expr, Var):
        return {expr.name: 1}, 0
    if isinstance(expr, BinOp):
        if expr.op in ("add", "sub"):
            left = _linear_form(expr.lhs)
            if left is None:
                return None
            right = _linear_form(expr.rhs)
            if right is None:
                return None
            sign = 1 if expr.op == "add" else -1
            coeffs, const = dict(left[0]), left[1] + sign * right[1]
            for name, coeff in right[0].items():
                coeffs[name] = coeffs.get(name, 0) + sign * coeff
            return coeffs, const
        if expr.op == "mul":
            left = _linear_form(expr.lhs)
            if left is None:
                return None
            right = _linear_form(expr.rhs)
            if right is None:
                return None
            if left[0] and right[0]:
                return None  # var * var
            if not left[0]:
                scale, (coeffs, const) = left[1], right
            else:
                scale, (coeffs, const) = right[1], left
            return {n: scale * c for n, c in coeffs.items()}, scale * const
    return None


def _affine_bounds(
    expr: Expr, ranges: Mapping[str, Interval]
) -> Optional[Tuple[int, int]]:
    """Exact [lo, hi] bounds of an affine expression, else ``None``."""
    form = _linear_form(expr)
    if form is None:
        return None
    coeffs, const = form
    lo = hi = const
    for name, coeff in coeffs.items():
        if coeff == 0:
            continue
        interval = ranges.get(name)
        if interval is None:
            return None
        a, b = coeff * interval.lo, coeff * interval.hi
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def _decide_cmp(
    cmp: Cmp, ranges: Mapping[str, Interval]
) -> Optional[bool]:
    """Decide an affine comparison by exact interval bounds."""
    bounds = _affine_bounds(BinOp("sub", cmp.lhs, cmp.rhs), ranges)
    if bounds is None:
        return None
    lo, hi = bounds
    if cmp.op == "lt":
        return True if hi < 0 else (False if lo >= 0 else None)
    if cmp.op == "le":
        return True if hi <= 0 else (False if lo > 0 else None)
    if cmp.op == "gt":
        return True if lo > 0 else (False if hi <= 0 else None)
    if cmp.op == "ge":
        return True if lo >= 0 else (False if hi < 0 else None)
    if cmp.op == "eq":
        if lo == 0 and hi == 0:
            return True
        return False if (hi < 0 or lo > 0) else None
    if cmp.op == "ne":
        if hi < 0 or lo > 0:
            return True
        return False if (lo == 0 and hi == 0) else None
    return None


def _prune_selects(expr: Expr, ranges: Mapping[str, Interval]) -> Expr:
    """Fold decidable selects and clamps with exact affine bounds.

    A fast, targeted subset of ``simplify_expr``: IfThenElse branches
    whose condition is an interval-decidable affine comparison are
    replaced by the surviving branch, and min/max clamps whose operand
    order is interval-decidable collapse to one operand. This is the
    fold that matters for transform closures (horizontal's concat-select
    and clamp scaffolding is all affine), at a fraction of the full
    interval-inference cost — the full simplifier only runs afterwards
    if non-affine foldables (floordiv/mod) remain.

    Subtrees containing no foldable node are returned untouched (one
    memoised postorder scan up front), so the rebuild + bounds cost is
    paid only along fold-bearing paths.
    """
    return _Pruner({}).prune(expr, ranges)


class _Pruner:
    """:func:`_prune_selects` of ``substitute_vars(expr, mapping)``.

    Substitution happens as the prune goes, so a branch the prune drops is
    never copied: an inline site that keeps one branch of a producer's
    concat-select chain pays for that branch alone. ``has_folds`` is
    memoised per (substituted) subtree for the pruner's lifetime.
    """

    def __init__(self, mapping: Mapping[str, Expr]) -> None:
        self.mapping = mapping
        # Substituted indices are consumer expressions: nothing in them is
        # substituted again, so they get a pruner (and a memo) of their own.
        self._index = _Pruner({}) if mapping else self
        self._folds: Dict[int, bool] = {}

    def has_folds(self, expr: Expr) -> bool:
        cached = self._folds.get(id(expr))
        if cached is not None:
            return cached
        if isinstance(expr, (IfThenElse, Cmp)):
            result = True
        elif isinstance(expr, BinOp):
            result = (
                expr.op in _FOLD_OPS
                or self.has_folds(expr.lhs)
                or self.has_folds(expr.rhs)
            )
        elif isinstance(expr, Call):
            result = any(self.has_folds(a) for a in expr.args)
        elif isinstance(expr, TensorRead):
            result = any(self.has_folds(i) for i in expr.indices)
        elif isinstance(expr, Reduce):
            result = self.has_folds(expr.body)
        elif isinstance(expr, Var) and expr.name in self.mapping:
            result = self._index.has_folds(self.mapping[expr.name])
        else:
            result = False
        self._folds[id(expr)] = result
        return result

    def prune(self, expr: Expr, ranges: Mapping[str, Interval]) -> Expr:
        if not self.has_folds(expr):
            return substitute_vars(expr, self.mapping) if self.mapping else expr
        if isinstance(expr, Var):
            return self._index.prune(self.mapping[expr.name], ranges)
        if isinstance(expr, IfThenElse):
            cond = self.prune(expr.cond, ranges)
            verdict = (
                _decide_cmp(cond, ranges) if isinstance(cond, Cmp) else None
            )
            if verdict is True:
                return self.prune(expr.then_value, ranges)
            if verdict is False:
                return self.prune(expr.else_value, ranges)
            return IfThenElse(
                cond,
                self.prune(expr.then_value, ranges),
                self.prune(expr.else_value, ranges),
            )
        if isinstance(expr, Reduce):
            inner = dict(ranges)
            for ax in expr.axes:
                inner[ax.name] = Interval(ax.dom.lo, ax.dom.hi - 1)
            return Reduce(expr.kind, self.prune(expr.body, inner), expr.axes)
        if isinstance(expr, BinOp):
            lhs = self.prune(expr.lhs, ranges)
            rhs = self.prune(expr.rhs, ranges)
            if expr.op in ("min", "max"):
                bounds = _affine_bounds(BinOp("sub", lhs, rhs), ranges)
                if bounds is not None:
                    lo, hi = bounds
                    if hi <= 0:
                        return lhs if expr.op == "min" else rhs
                    if lo >= 0:
                        return rhs if expr.op == "min" else lhs
            return BinOp(expr.op, lhs, rhs)
        if isinstance(expr, Cmp):
            return Cmp(
                expr.op,
                self.prune(expr.lhs, ranges),
                self.prune(expr.rhs, ranges),
            )
        if isinstance(expr, Call):
            return Call(
                expr.func, tuple(self.prune(a, ranges) for a in expr.args)
            )
        if isinstance(expr, TensorRead):
            return TensorRead(
                expr.tensor,
                tuple(self.prune(i, ranges) for i in expr.indices),
            )
        return expr


class _ClosureBuilder:
    """Builds frontier-cut closures over one program view.

    Reads of tensors whose *name* is in the frontier stay symbolic; reads
    of produced non-frontier tensors are inlined exactly the way the
    vertical transform inlines them (axis substitution after a fresh
    renaming of the producer's reduce axes), recursively, so the closure
    is closed over frontier names + the output's own axes.
    """

    def __init__(
        self,
        view: ProgramView,
        frontier_names: Set[str],
        max_nodes: int = MAX_CLOSURE_NODES,
    ) -> None:
        self._producer: Dict[int, Tensor] = {
            id(node.tensor): node.tensor for node in view.nodes
        }
        self.frontier = frontier_names
        self.max_nodes = max_nodes
        self._suffix = itertools.count()
        # Per-producer caches: the reduce-renamed body and its reduce-axis
        # ranges. One unique suffix *per producer* (not per inline site) is
        # enough: the program is acyclic, so a producer's expansion never
        # contains another copy of itself — its binders can only meet
        # *other* producers' binders, which carry different suffixes.
        self._renamed: Dict[int, Tuple[Expr, Dict[str, Interval]]] = {}

    def _inline(self, tensor: Tensor) -> Expr:
        """Expand non-frontier reads one producer level per sweep.

        Each sweep substitutes producers' *raw* bodies and then folds the
        result with the interval simplifier before the next sweep — the
        same interleaving the vertical transform uses. The fold is what
        keeps closures linear: horizontal's concat-selects become
        statically decidable once a concrete consumer index lands in
        them, and without it a 3-way select chain k levels deep costs
        3^k copies.
        """
        op = tensor.op
        assert op is not None
        body = op.body
        while True:
            changed = False
            ranges = _ranges_for(op.axes, body)

            def visit(read: TensorRead) -> Optional[Expr]:
                nonlocal changed
                target = read.tensor
                if target.name in self.frontier:
                    return None
                if id(target) not in self._producer or target.op is None:
                    return None  # placeholders are inherently frontier
                changed = True
                cached = self._renamed.get(id(target))
                if cached is None:
                    renamed = rename_reduce_axes(
                        target.op.body, f"$q{next(self._suffix)}"
                    )
                    cached = (renamed, _ranges_for((), renamed))
                    self._renamed[id(target)] = cached
                renamed, reduce_ranges = cached
                mapping = {
                    ax.name: idx
                    for ax, idx in zip(target.op.axes, read.indices)
                }
                # Fold at the inline site (clamped indices land inside the
                # producer body during substitution, making its concat-
                # selects decidable); folding here, with only the inlined
                # subtree in hand, keeps cost proportional to the subtree
                # and stops 3-way select chains costing 3^depth copies.
                # The pruner substitutes as it folds, so a branch the fold
                # drops is never copied. The site ranges are the sweep
                # body's ranges plus the producer's own (cached) reduce
                # ranges — the substituted index expressions are subtrees
                # of the sweep body, so their reduce variables are
                # already covered.
                pruner = _Pruner(mapping)
                if not pruner.has_folds(renamed):
                    return substitute_vars(renamed, mapping)
                site = {**ranges, **reduce_ranges}
                inner = pruner.prune(renamed, site)
                if _foldable(inner):
                    inner = simplify_expr(inner, site)
                return inner

            body = replace_tensor_reads(body, visit)
            if not changed:
                return body
            if count_nodes(body) > self.max_nodes:
                raise ClosureBudgetExceeded(
                    f"closure of {tensor.name} exceeds "
                    f"{self.max_nodes} nodes"
                )

    def closure(self, tensor: Tensor) -> Closure:
        expr = self._inline(tensor)
        axes = tuple(tensor.op.axes)
        return Closure(axes, expr, _ranges_for(axes, expr))


# ---- canonicalization -------------------------------------------------------

_COMMUTATIVE = ("add", "mul", "max", "min")
_CMP_FLIP = {"gt": "lt", "ge": "le"}


def _rename_bound(closure: Closure) -> Expr:
    """Positional alpha-renaming of spatial and reduce variables.

    Spatial axes become ``%i0..``; reduce axes are renamed ``%r0..`` in
    pre-order, so two structurally matching expressions receive matching
    names regardless of what the transforms called their axes.
    """
    mapping = {
        ax.name: Var(f"%i{k}") for k, ax in enumerate(closure.axes)
    }
    expr = substitute_vars(closure.expr, mapping)
    counter = itertools.count()

    def rename(node: Expr) -> Expr:
        if isinstance(node, Reduce):
            submap: Dict[str, Expr] = {}
            new_axes = []
            for ax in node.axes:
                name = f"%r{next(counter)}"
                submap[ax.name] = Var(name)
                new_axes.append(IterVar(Var(name), ax.dom, kind="reduce"))
            body = substitute_vars(node.body, submap)
            return Reduce(node.kind, rename(body), tuple(new_axes))
        if isinstance(node, BinOp):
            return BinOp(node.op, rename(node.lhs), rename(node.rhs))
        if isinstance(node, Cmp):
            return Cmp(node.op, rename(node.lhs), rename(node.rhs))
        if isinstance(node, Call):
            return Call(node.func, tuple(rename(a) for a in node.args))
        if isinstance(node, TensorRead):
            return TensorRead(
                node.tensor, tuple(rename(i) for i in node.indices)
            )
        if isinstance(node, IfThenElse):
            return IfThenElse(
                rename(node.cond),
                rename(node.then_value),
                rename(node.else_value),
            )
        return node

    return rename(expr)


def _flatten(op: str, expr: Expr) -> List[Expr]:
    if isinstance(expr, BinOp) and expr.op == op:
        return _flatten(op, expr.lhs) + _flatten(op, expr.rhs)
    return [expr]


def _affine_key(expr: Expr) -> Optional[str]:
    """Affine normal form of a (sub)expression, when it has one.

    ``i + 1 + 0*j`` and ``1 + i`` normalize to the same key, and offset
    round-trips like ``(v + 8) - 8`` fold away even when they sit inside
    non-affine contexts (floordiv/mod splits, data-dependent reads) —
    those contexts fall back to the structural key but their affine
    *arguments* still normalize.
    """
    # Cheap pre-check before paying for free_vars + linearize: anything
    # but Var / Const / {add,sub,mul} cannot be affine. (var*var still
    # passes and is rejected by linearize itself.)
    for node in walk(expr):
        if isinstance(node, (Var, Const)):
            continue
        if isinstance(node, BinOp) and node.op in ("add", "sub", "mul"):
            continue
        return None
    names = sorted(free_vars(expr))
    try:
        coeffs, const = linearize(expr, names)
    except TEError:
        return None
    terms = [
        f"{coeffs[name]}*{name}" for name in names if coeffs.get(name, 0)
    ]
    return f"aff({const}" + ("".join("+" + t for t in terms)) + ")"


def _sum_nf(expr: Expr) -> Tuple[Dict[str, float], float]:
    """Sum normal form: linear combination of atom keys plus a constant.

    Folds constant round-trips through *non-affine* atoms — ``(X - 16) +
    16`` where ``X`` contains a mod — which neither the interval
    simplifier nor affine linearization can reach.
    """
    if isinstance(expr, Const) and not isinstance(expr.value, bool):
        return {}, float(expr.value)
    if isinstance(expr, BinOp):
        if expr.op in ("add", "sub"):
            sign = 1.0 if expr.op == "add" else -1.0
            lt, lc = _sum_nf(expr.lhs)
            rt, rc = _sum_nf(expr.rhs)
            terms = dict(lt)
            for key, coeff in rt.items():
                terms[key] = terms.get(key, 0.0) + sign * coeff
            return (
                {k: v for k, v in terms.items() if v != 0.0},
                lc + sign * rc,
            )
        if expr.op == "mul":
            lt, lc = _sum_nf(expr.lhs)
            rt, rc = _sum_nf(expr.rhs)
            if not lt:
                return (
                    {k: lc * v for k, v in rt.items() if lc * v != 0.0},
                    lc * rc,
                )
            if not rt:
                return (
                    {k: rc * v for k, v in lt.items() if rc * v != 0.0},
                    lc * rc,
                )
    return {_atom_key(expr): 1.0}, 0.0


def _atom_key(expr: Expr) -> str:
    """Key a sum-normal-form atom (no affine/sum re-attempt on BinOps)."""
    if isinstance(expr, BinOp):
        if expr.op in _COMMUTATIVE:
            parts = sorted(_expr_key(e) for e in _flatten(expr.op, expr))
            return f"({expr.op} {' '.join(parts)})"
        return f"({expr.op} {_expr_key(expr.lhs)} {_expr_key(expr.rhs)})"
    return _expr_key(expr)


def _expr_key(expr: Expr) -> str:
    """Canonical structural key: maximal affine subexpressions in affine
    normal form, non-affine add/sub/mul chains in sum normal form,
    commutative chains sorted, comparisons polarity-normalized, constants
    compared by value."""
    if isinstance(expr, (Var, BinOp)):
        affine = _affine_key(expr)
        if affine is not None:
            return affine
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, bool):
            return f"c{int(value)}"
        return f"c{float(value)!r}"
    if isinstance(expr, Var):
        return f"v{expr.name}"  # non-linearizable (unreachable in practice)
    if isinstance(expr, BinOp):
        if expr.op in ("add", "sub", "mul"):
            terms, const = _sum_nf(expr)
            if not terms:
                return f"c{const!r}"
            if const == 0.0 and len(terms) == 1:
                (key, coeff), = terms.items()
                if coeff == 1.0:
                    return key
            parts = " ".join(
                f"{coeff!r}*{key}" for key, coeff in sorted(terms.items())
            )
            return f"(sum c{const!r} {parts})"
        return _atom_key(expr)
    if isinstance(expr, Cmp):
        op, lhs, rhs = expr.op, expr.lhs, expr.rhs
        if op in _CMP_FLIP:
            op, lhs, rhs = _CMP_FLIP[op], rhs, lhs
        lk, rk = _expr_key(lhs), _expr_key(rhs)
        if op in ("eq", "ne") and rk < lk:
            lk, rk = rk, lk
        return f"(cmp-{op} {lk} {rk})"
    if isinstance(expr, Call):
        args = " ".join(_expr_key(a) for a in expr.args)
        return f"({expr.func} {args})"
    if isinstance(expr, TensorRead):
        indices = " ".join(_expr_key(i) for i in expr.indices)
        return f"(read {expr.tensor.name} {indices})"
    if isinstance(expr, Reduce):
        axes = " ".join(
            f"{ax.name}:[{ax.dom.lo},{ax.dom.hi})" for ax in expr.axes
        )
        return f"(reduce-{expr.kind} [{axes}] {_expr_key(expr.body)})"
    if isinstance(expr, IfThenElse):
        return (
            f"(select {_expr_key(expr.cond)} {_expr_key(expr.then_value)} "
            f"{_expr_key(expr.else_value)})"
        )
    raise TEError(f"cannot canonicalize node {type(expr).__name__}")


def canonical_key(closure: Closure) -> str:
    """The closure's canonical form, used for structural proof."""
    expr = closure.expr
    singles: Dict[str, Expr] = {
        name: Const(iv.lo, "int32")
        for name, iv in closure.ranges.items()
        if iv.lo == iv.hi
    }
    if singles:
        # A variable with a one-point domain *is* that point. Fold it so
        # a side whose clamp already collapsed (an extent-1 concat member
        # folds min(max(i,0),0) to 0) keys identically to a side that
        # kept the free index.
        expr = substitute_vars(expr, singles)
    if _foldable(expr):
        expr = simplify_expr(expr, closure.ranges)
    renamed = _rename_bound(Closure(closure.axes, expr, closure.ranges))
    return _expr_key(renamed)


def _structurally_equal(a: Expr, b: Expr) -> bool:
    """Exact structural equality with reads compared by tensor *name*.

    The cheap fast path: transforms rebuild kept tensors, so ``==`` on
    bodies fails (TensorRead compares tensors by identity) even when the
    text is unchanged.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, TensorRead):
        return (
            a.tensor.name == b.tensor.name
            and len(a.indices) == len(b.indices)
            and all(
                _structurally_equal(x, y)
                for x, y in zip(a.indices, b.indices)
            )
        )
    if isinstance(a, Const):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, BinOp):
        return (
            a.op == b.op
            and _structurally_equal(a.lhs, b.lhs)
            and _structurally_equal(a.rhs, b.rhs)
        )
    if isinstance(a, Cmp):
        return (
            a.op == b.op
            and _structurally_equal(a.lhs, b.lhs)
            and _structurally_equal(a.rhs, b.rhs)
        )
    if isinstance(a, Call):
        return (
            a.func == b.func
            and len(a.args) == len(b.args)
            and all(
                _structurally_equal(x, y) for x, y in zip(a.args, b.args)
            )
        )
    if isinstance(a, Reduce):
        return (
            a.kind == b.kind
            and len(a.axes) == len(b.axes)
            and all(
                x.name == y.name and x.dom == y.dom
                for x, y in zip(a.axes, b.axes)
            )
            and _structurally_equal(a.body, b.body)
        )
    if isinstance(a, IfThenElse):
        return (
            _structurally_equal(a.cond, b.cond)
            and _structurally_equal(a.then_value, b.then_value)
            and _structurally_equal(a.else_value, b.else_value)
        )
    return False


# ---- pointwise refutation ---------------------------------------------------


def _hash_feed(salt: str, name: str, idx: Tuple[int, ...], dtype: str) -> float:
    """Deterministic pseudo-random feed value for one tensor element.

    Exactly representable in float64 (multiples of 1/64), process- and
    run-stable (crc32, not ``hash``), dtype-respecting so int/bool index
    tensors produce legal indices.
    """
    h = zlib.crc32(f"{salt}|{name}|{idx}".encode())
    if dtype == "bool":
        return float(h & 1)
    if dtype.startswith("int") or dtype.startswith("uint"):
        return float(h % 8)
    return ((h % 1024) - 512) / 64.0


class _FeedStore:
    """Lazy per-(tensor, element) feed values shared by both evaluations.

    ``overrides`` replays a stored counterexample; ``reads`` records what
    was actually consumed, which becomes the counterexample feed.
    """

    def __init__(
        self,
        salt: str = "",
        overrides: Optional[
            Mapping[Tuple[str, Tuple[int, ...]], float]
        ] = None,
    ) -> None:
        self.salt = salt
        self.overrides = dict(overrides or {})
        self.reads: Dict[Tuple[str, Tuple[int, ...]], float] = {}

    def value(self, name: str, idx: Tuple[int, ...], dtype: str) -> float:
        key = (name, idx)
        if key in self.overrides:
            value = self.overrides[key]
        else:
            value = _hash_feed(self.salt, name, idx, dtype)
        self.reads[key] = value
        return value


class _PointEvaluator:
    """Scalar evaluation of a closure at one output coordinate."""

    def __init__(
        self, feeds: _FeedStore, reduce_limit: int = MAX_REDUCE_POINTS
    ) -> None:
        self.feeds = feeds
        self.reduce_limit = reduce_limit

    def eval(self, expr: Expr, env: Dict[str, float]) -> float:
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise TEError(f"unbound variable {expr.name!r}") from None
        if isinstance(expr, BinOp):
            a = self.eval(expr.lhs, env)
            b = self.eval(expr.rhs, env)
            return self._binop(expr.op, a, b)
        if isinstance(expr, Cmp):
            a = self.eval(expr.lhs, env)
            b = self.eval(expr.rhs, env)
            return float(
                {
                    "lt": a < b,
                    "le": a <= b,
                    "gt": a > b,
                    "ge": a >= b,
                    "eq": a == b,
                    "ne": a != b,
                }[expr.op]
            )
        if isinstance(expr, Call):
            args = [self.eval(a, env) for a in expr.args]
            return float(_CALL_FN[expr.func](*args))
        if isinstance(expr, IfThenElse):
            if self.eval(expr.cond, env):
                return self.eval(expr.then_value, env)
            return self.eval(expr.else_value, env)
        if isinstance(expr, TensorRead):
            idx = tuple(int(self.eval(i, env)) for i in expr.indices)
            dtype = getattr(expr.tensor, "dtype", "float32")
            return self.feeds.value(expr.tensor.name, idx, dtype)
        if isinstance(expr, Reduce):
            points = 1
            for ax in expr.axes:
                points *= ax.dom.extent
            if points > self.reduce_limit:
                raise RefutationBudgetExceeded(
                    f"reduction domain of {points} points exceeds the "
                    f"pointwise budget ({self.reduce_limit})"
                )
            acc = expr.init
            names = [ax.name for ax in expr.axes]
            saved = {n: env[n] for n in names if n in env}
            for coords in itertools.product(
                *(range(ax.dom.lo, ax.dom.hi) for ax in expr.axes)
            ):
                for name, value in zip(names, coords):
                    env[name] = float(value)
                value = self.eval(expr.body, env)
                if expr.kind == "sum":
                    acc += value
                elif expr.kind == "max":
                    acc = max(acc, value)
                else:
                    acc = min(acc, value)
            for name in names:
                env.pop(name, None)
            env.update(saved)
            return acc
        raise TEError(f"cannot evaluate node {type(expr).__name__}")

    @staticmethod
    def _binop(op: str, a: float, b: float) -> float:
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            return a / b
        if op == "floordiv":
            return float(math.floor(a / b))
        if op == "mod":
            return a - b * math.floor(a / b)
        if op == "max":
            return max(a, b)
        if op == "min":
            return min(a, b)
        if op == "pow":
            return a ** b
        raise TEError(f"unknown binop {op!r}")


def evaluate_closure(
    closure: Closure,
    coordinates: Sequence[int],
    feeds: _FeedStore,
) -> float:
    """Evaluate one closure at one output coordinate."""
    env = {
        ax.name: float(c) for ax, c in zip(closure.axes, coordinates)
    }
    return _PointEvaluator(feeds).eval(closure.expr, env)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def _candidate_coords(
    shape: Sequence[int], samples: int = 8
) -> List[Tuple[int, ...]]:
    """Deterministic probe coordinates: origin, far corner, midpoint, then
    hash-scattered interior points."""
    if not shape:
        return [()]
    coords = [
        tuple(0 for _ in shape),
        tuple(e - 1 for e in shape),
        tuple(e // 2 for e in shape),
    ]
    for t in range(samples):
        coords.append(
            tuple(
                zlib.crc32(f"probe|{t}|{k}".encode()) % e
                for k, e in enumerate(shape)
            )
        )
    seen: Set[Tuple[int, ...]] = set()
    unique = []
    for c in coords:
        if c not in seen:
            seen.add(c)
            unique.append(c)
    return unique


def refute_closures(
    before: Closure,
    after: Closure,
    output: str,
    overrides: Optional[
        Mapping[Tuple[str, Tuple[int, ...]], float]
    ] = None,
) -> Optional[Counterexample]:
    """Bounded concrete search for a pointwise divergence.

    Returns a minimized counterexample, or ``None`` when no divergence is
    found within the probe budget (the caller reports ``unknown``).
    """
    shape = tuple(ax.extent for ax in before.axes)

    def values_at(coord: Tuple[int, ...]) -> Tuple[float, float, _FeedStore]:
        store = _FeedStore(overrides=overrides)
        b = evaluate_closure(before, coord, store)
        a = evaluate_closure(after, coord, store)
        return b, a, store

    def differs(coord: Tuple[int, ...]) -> bool:
        b, a, _ = values_at(coord)
        return not _close(b, a)

    witness: Optional[Tuple[int, ...]] = None
    for coord in _candidate_coords(shape):
        if differs(coord):
            witness = coord
            break
    if witness is None:
        return None

    # Greedy minimization toward the origin: per axis, try 0 then halving.
    coord = list(witness)
    changed = True
    while changed:
        changed = False
        for k in range(len(coord)):
            current = coord[k]
            for trial in (0, current // 2):
                if trial >= current:
                    continue
                attempt = tuple(
                    trial if i == k else coord[i] for i in range(len(coord))
                )
                if differs(attempt):
                    coord[k] = trial
                    changed = True
                    break

    final = tuple(coord)
    b, a, store = values_at(final)
    entries = sorted(
        (name, idx, value) for (name, idx), value in store.reads.items()
    )
    truncated = len(entries) > MAX_FEED_ENTRIES
    return Counterexample(
        output=output,
        coordinates=final,
        before_value=b,
        after_value=a,
        feeds=tuple(entries[:MAX_FEED_ENTRIES]),
        truncated=truncated,
    )


# ---- TE-level transforms (horizontal / vertical) ----------------------------


def _tensors_by_name(view: ProgramView) -> Dict[str, Tensor]:
    named: Dict[str, Tensor] = {}
    for t in view.inputs:
        named[t.name] = t
    for node in view.nodes:
        named[node.tensor.name] = node.tensor
    return named


class _PairProver:
    """Shared state for proving one transform's matched pairs in order.

    The name maps and closure builders persist across pairs so per-pair
    work is proportional to the pair, not the program (builders also keep
    their per-tensor foldability cache warm).
    """

    def __init__(
        self, before_view: ProgramView, after_view: ProgramView
    ) -> None:
        self.before_view = before_view
        self.after_view = after_view
        self.before_named = _tensors_by_name(before_view)
        self.after_named = _tensors_by_name(after_view)
        self.frontier = {t.name for t in before_view.inputs} | {
            t.name for t in after_view.inputs
        }
        self._before_builder = _ClosureBuilder(before_view, self.frontier)
        self._after_builder = _ClosureBuilder(after_view, self.frontier)

    def closures(self, name: str) -> Tuple[Closure, Closure]:
        return (
            self._before_builder.closure(self.before_named[name]),
            self._after_builder.closure(self.after_named[name]),
        )

    def prove(
        self, name: str
    ) -> Tuple[bool, Optional[Tuple[Closure, Closure]]]:
        """Prove one matched tensor pair equal over the proved frontier.

        Returns (proved, closures); closures are returned only when the
        proof failed, so the caller can run the refutation search.
        """
        b_tensor = self.before_named[name]
        a_tensor = self.after_named[name]
        if _structurally_equal(b_tensor.op.body, a_tensor.op.body):
            return True, None
        b_closure, a_closure = self.closures(name)
        if canonical_key(b_closure) == canonical_key(a_closure):
            return True, None
        return False, (b_closure, a_closure)


def _te_pairs(
    before_view: ProgramView, after_view: ProgramView
) -> List[str]:
    """Names produced by both programs at the same shape, after order."""
    before_named = {
        n.tensor.name: n.tensor for n in before_view.nodes
    }
    pairs = []
    for node in after_view.nodes:
        other = before_named.get(node.tensor.name)
        if other is not None and tuple(other.shape) == tuple(
            node.tensor.shape
        ):
            pairs.append(node.tensor.name)
    return pairs


def certify_te_transform(
    before: ProgramLike,
    after: ProgramLike,
    transform: str,
    refute: bool = True,
) -> EquivalenceCertificate:
    """Certify one TE-level rewrite (``horizontal`` / ``vertical``).

    Matched tensors are proved pairwise in ``after`` program order; each
    proved name joins the frontier, so later proofs cut their closures at
    already-certified tensors instead of re-expanding to placeholders.
    """
    before_view, after_view = as_view(before), as_view(after)
    subject = after_view.name

    missing = [
        out.name
        for out in before_view.outputs
        if out.name not in {o.name for o in after_view.outputs}
    ]
    if missing:
        return EquivalenceCertificate(
            transform, subject, REFUTED, 0,
            detail=f"transform dropped output(s): {', '.join(missing)}",
        )

    prover = _PairProver(before_view, after_view)
    obligations = 0
    for name in _te_pairs(before_view, after_view):
        try:
            proved, closures = prover.prove(name)
        except ClosureBudgetExceeded as exc:
            return EquivalenceCertificate(
                transform, subject, UNKNOWN, obligations, detail=str(exc)
            )
        if proved:
            prover.frontier.add(name)
            obligations += 1
            continue
        b_closure, a_closure = closures
        if refute:
            try:
                cx = refute_closures(b_closure, a_closure, name)
            except RefutationBudgetExceeded as exc:
                return EquivalenceCertificate(
                    transform, subject, UNKNOWN, obligations,
                    detail=f"{name}: canonical forms differ; {exc}",
                )
            if cx is not None:
                return EquivalenceCertificate(
                    transform, subject, REFUTED, obligations,
                    detail=f"{name}: pointwise divergence",
                    counterexample=cx,
                )
        return EquivalenceCertificate(
            transform, subject, UNKNOWN, obligations,
            detail=(
                f"{name}: canonical forms differ but no concrete "
                "divergence found within the probe budget"
            ),
        )
    return EquivalenceCertificate(transform, subject, PROVED, obligations)


# ---- plan-level transforms --------------------------------------------------


def _group_frontier(group) -> Set[str]:
    return {t.name for t in group.reads}


def _stale_tensor(
    stale: Dict[int, Tensor], tensor: Tensor
) -> Tensor:
    if id(tensor) not in stale:
        stale[id(tensor)] = placeholder(
            tensor.shape, dtype=tensor.dtype, name=f"stale${tensor.name}"
        )
    return stale[id(tensor)]


def _sequential_group_closure(group, order) -> Closure:
    """The value a fused group computes when its members execute in
    ``order``: reads of not-yet-computed members resolve to ``stale$``
    placeholders (the uninitialized scratch bytes the runtime would read).
    """
    member_ids = {id(m.tensor) for m in group.members}
    computed: Dict[int, Expr] = {}
    stale: Dict[int, Tensor] = {}
    suffix = itertools.count()
    for member in order:
        op = member.tensor.op

        def visit(read: TensorRead) -> Optional[Expr]:
            target = read.tensor
            if id(target) in computed:
                inner = rename_reduce_axes(
                    computed[id(target)], f"$g{next(suffix)}"
                )
                mapping = {
                    ax.name: idx
                    for ax, idx in zip(target.op.axes, read.indices)
                }
                return substitute_vars(inner, mapping)
            if id(target) in member_ids:
                return TensorRead(
                    _stale_tensor(stale, target), read.indices
                )
            return None

        computed[id(member.tensor)] = replace_tensor_reads(op.body, visit)
    expr = computed[id(group.terminal.tensor)]
    axes = tuple(group.terminal.tensor.op.axes)
    return Closure(axes, expr, _ranges_for(axes, expr))


def _certify_fusion(program, opt) -> EquivalenceCertificate:
    """Fused groups must compute the terminal's program semantics."""
    subject = program.name
    view = as_view(program)
    obligations = 0
    for group in opt.groups:
        if len(group.members) < 2:
            continue
        obligations += 1
        frontier = _group_frontier(group)
        try:
            reference = _ClosureBuilder(view, frontier).closure(
                group.terminal.tensor
            )
            sequential = _sequential_group_closure(group, group.members)
        except ClosureBudgetExceeded as exc:
            return EquivalenceCertificate(
                "fusion", subject, UNKNOWN, obligations,
                detail=f"group {group.name}: {exc}",
            )
        if canonical_key(reference) == canonical_key(sequential):
            # Interior liveness: deleting a fused interior's buffer is
            # only sound when nothing outside the group reads it.
            leaked = _fusion_leak(program, group)
            if leaked is None:
                continue
            member, outsider = leaked
            cx = _stale_read_counterexample(
                view, outsider.tensor, member.tensor
            )
            return EquivalenceCertificate(
                "fusion", subject, REFUTED, obligations,
                detail=(
                    f"group {group.name}: interior {member.name} is "
                    f"still read by {outsider.name} outside the group "
                    "but its buffer is deleted"
                ),
                counterexample=cx,
            )
        try:
            cx = refute_closures(
                reference, sequential, group.terminal.name
            )
        except RefutationBudgetExceeded as exc:
            return EquivalenceCertificate(
                "fusion", subject, UNKNOWN, obligations,
                detail=f"group {group.name}: {exc}",
            )
        if cx is not None:
            return EquivalenceCertificate(
                "fusion", subject, REFUTED, obligations,
                detail=(
                    f"group {group.name}: composing members in the "
                    "recorded order does not reproduce the terminal "
                    "(reads-before-write resolve to stale scratch)"
                ),
                counterexample=cx,
            )
        return EquivalenceCertificate(
            "fusion", subject, UNKNOWN, obligations,
            detail=(
                f"group {group.name}: canonical forms differ but no "
                "concrete divergence found within the probe budget"
            ),
        )
    return EquivalenceCertificate("fusion", subject, PROVED, obligations)


def _fusion_leak(program, group):
    """An (interior member, outside consumer) pair, if any leaks."""
    member_ids = {id(m.tensor) for m in group.members}
    for member in group.members[:-1]:
        if program.is_output(member.tensor):
            return member, member  # outputs must never be interiors
        for consumer in program.consumers(member.tensor):
            if id(consumer.tensor) not in member_ids:
                return member, consumer
    return None


def _stale_read_counterexample(
    view: ProgramView, reader: Tensor, gone: Tensor
) -> Optional[Counterexample]:
    """Counterexample for a reader whose operand's buffer is gone: the
    reader's true value vs the value computed over stale bytes."""
    frontier = {t.name for t in view.inputs} | {
        node.tensor.name for node in view.nodes
        if node.tensor is not reader
    }
    try:
        reference = _ClosureBuilder(view, frontier).closure(reader)
    except ClosureBudgetExceeded:
        return None
    stale: Dict[int, Tensor] = {}

    def visit(read: TensorRead) -> Optional[Expr]:
        if read.tensor is gone:
            return TensorRead(_stale_tensor(stale, read.tensor), read.indices)
        return None

    stale_expr = replace_tensor_reads(reference.expr, visit)
    stale_closure = Closure(
        reference.axes, stale_expr, _ranges_for(reference.axes, stale_expr)
    )
    try:
        return refute_closures(reference, stale_closure, reader.name)
    except RefutationBudgetExceeded:
        return None


def _certify_elision(program, opt) -> EquivalenceCertificate:
    """In-place elision: the reused operand must be dead at the writer."""
    subject = program.name
    view = as_view(program)
    position_of: Dict[int, int] = {}
    for group in opt.groups:
        for member in group.members:
            position_of[id(member.tensor)] = group.position
    obligations = 0
    for position, operand in sorted(opt.elided.items()):
        obligations += 1
        writer_group = next(
            g for g in opt.groups if g.position == position
        )
        late = [
            consumer
            for consumer in program.consumers(operand)
            if position_of.get(id(consumer.tensor), -1) > position
        ]
        if program.is_output(operand):
            late.append(writer_group.terminal)
        if not late:
            continue
        reader = late[0]
        # The late reader's bytes now hold the writer's terminal value.
        cx = _overwritten_read_counterexample(
            view, reader.tensor, operand, writer_group.terminal.tensor
        )
        detail = (
            f"step {writer_group.name} writes in place over {operand.name} "
            f"but {reader.name} still reads it afterwards"
        )
        if cx is None:
            return EquivalenceCertificate(
                "elision", subject, UNKNOWN, obligations,
                detail=detail + " (no concrete divergence found)",
            )
        return EquivalenceCertificate(
            "elision", subject, REFUTED, obligations,
            detail=detail, counterexample=cx,
        )
    return EquivalenceCertificate("elision", subject, PROVED, obligations)


def _overwritten_read_counterexample(
    view: ProgramView, reader: Tensor, operand: Tensor, writer: Tensor
) -> Optional[Counterexample]:
    """Reader's true value vs its value when reads of ``operand`` observe
    the writer's output (what the shared bytes actually hold)."""
    if tuple(operand.shape) != tuple(writer.shape):
        return None
    frontier = {t.name for t in view.inputs} | {
        node.tensor.name for node in view.nodes if node.tensor is not reader
    }
    builder = _ClosureBuilder(view, frontier)
    try:
        reference = builder.closure(reader)
        writer_frontier = frontier - {writer.name}
        writer_closure = _ClosureBuilder(
            view, writer_frontier | {operand.name}
        ).closure(writer)
    except ClosureBudgetExceeded:
        return None
    suffix = itertools.count()

    def visit(read: TensorRead) -> Optional[Expr]:
        if read.tensor is not operand:
            return None
        inner = rename_reduce_axes(
            writer_closure.expr, f"$e{next(suffix)}"
        )
        mapping = {
            ax.name: idx
            for ax, idx in zip(writer_closure.axes, read.indices)
        }
        return substitute_vars(inner, mapping)

    overwritten = replace_tensor_reads(reference.expr, visit)
    after = Closure(
        reference.axes, overwritten, _ranges_for(reference.axes, overwritten)
    )
    try:
        return refute_closures(reference, after, reader.name)
    except RefutationBudgetExceeded:
        return None


def _certify_tiling(program, opt) -> EquivalenceCertificate:
    """Block tiling: exact row-partition cover + per-read alignment.

    The partition and the read classes are re-derived here independently
    of ``runtime.tiling`` (the certifier must not trust the code under
    test), summarised per chain as (reduce op set, axis set, row
    partition).
    """
    subject = program.name
    view = as_view(program)
    obligations = 0
    for chain in opt.tiled_chains:
        rows = chain.rows
        ranges = list(chain.block_ranges)
        obligations += 1

        bad_row: Optional[int] = None
        reason = ""
        covered = [0] * rows
        for lo, hi in ranges:
            if lo >= hi or lo < 0 or hi > rows:
                reason = f"degenerate block [{lo}, {hi}) over {rows} rows"
                bad_row = max(0, min(lo, rows - 1))
                break
            for r in range(lo, hi):
                covered[r] += 1
        if bad_row is None:
            for r, count in enumerate(covered):
                if count == 0:
                    bad_row = r
                    reason = f"row {r} is covered by no block"
                    break
                if count > 1:
                    bad_row = r
                    reason = f"row {r} is written by {count} blocks"
                    break
        if bad_row is not None:
            terminal = chain.terminal.tensor
            cx = None
            if reason.endswith("no block"):
                # The uncovered terminal row is never written: replaying
                # the tiled plan serves whatever bytes the arena held.
                coord = (bad_row,) + tuple(
                    0 for _ in tuple(terminal.shape)[1:]
                )
                cx = _pin_row(view, terminal, coord)
            return EquivalenceCertificate(
                "tiling", subject, REFUTED, obligations,
                detail=(
                    f"chain {chain.terminal.name}: block partition "
                    f"{ranges} does not exactly cover [0, {rows}): {reason}"
                ),
                counterexample=cx,
            )

        # Per-member read classes, re-derived: the leading row axis must
        # either index reads exactly (aligned) or not at all (invariant).
        for node in chain.member_nodes:
            op = node.tensor.op
            row_var = op.axes[0].name
            for read in collect_reads(op.body):
                obligations += 1
                cls = _read_class(read, row_var, rows)
                if cls == "poison":
                    return EquivalenceCertificate(
                        "tiling", subject, REFUTED, obligations,
                        detail=(
                            f"chain {chain.terminal.name}: member "
                            f"{node.name} reads {read.tensor.name} with a "
                            "row-dependent non-aligned index; block slabs "
                            "would read out of their row slice"
                        ),
                        counterexample=_stale_read_counterexample(
                            view, node.tensor, read.tensor
                        ),
                    )
    return EquivalenceCertificate("tiling", subject, PROVED, obligations)


def _pin_row(
    view: ProgramView, tensor: Tensor, coord: Tuple[int, ...]
) -> Optional[Counterexample]:
    """Rebuild a stale-read counterexample at a specific coordinate."""
    frontier = {t.name for t in view.inputs} | {
        node.tensor.name for node in view.nodes if node.tensor is not tensor
    }
    try:
        reference = _ClosureBuilder(view, frontier).closure(tensor)
    except ClosureBudgetExceeded:
        return None
    stale: Dict[int, Tensor] = {}
    stale_read = TensorRead(
        _stale_tensor(stale, tensor),
        tuple(ax.var for ax in reference.axes),
    )
    after = Closure(
        reference.axes, stale_read, _ranges_for(reference.axes, stale_read)
    )
    store = _FeedStore()
    try:
        b = evaluate_closure(reference, coord, store)
        a = evaluate_closure(after, coord, store)
    except RefutationBudgetExceeded:
        return None
    if _close(b, a):
        return None
    entries = sorted(
        (name, idx, value) for (name, idx), value in store.reads.items()
    )
    return Counterexample(
        output=tensor.name,
        coordinates=coord,
        before_value=b,
        after_value=a,
        feeds=tuple(entries[:MAX_FEED_ENTRIES]),
        truncated=len(entries) > MAX_FEED_ENTRIES,
    )


def _read_class(read: TensorRead, row: str, rows: int) -> str:
    """Independent re-derivation of the tiler's ALIGNED/INVARIANT/POISON
    read classification."""
    used: Set[str] = set()
    for i in read.indices:
        used |= free_vars(i)
    if row not in used:
        return "invariant"
    first = read.indices[0] if read.indices else None
    rest: Set[str] = set()
    for i in read.indices[1:]:
        rest |= free_vars(i)
    shape = tuple(getattr(read.tensor, "shape", ()))
    if (
        isinstance(first, Var)
        and first.name == row
        and row not in rest
        and shape
        and shape[0] == rows
    ):
        return "aligned"
    return "poison"


def _product_reads(expr: Expr) -> Optional[List[TensorRead]]:
    """The reads of a pure product of tensor reads, else ``None``."""
    if isinstance(expr, TensorRead):
        return [expr]
    if isinstance(expr, BinOp) and expr.op == "mul":
        lhs = _product_reads(expr.lhs)
        rhs = _product_reads(expr.rhs)
        if lhs is not None and rhs is not None:
            return lhs + rhs
    return None


def _piece_defect(
    tensor: Tensor, contraction, piece
) -> Tuple[Optional[str], bool]:
    """Re-derive one piece from the TE's own index maps.

    Returns ``(reason, derivable)``: ``reason`` names the first way the
    piece's views disagree with the TE, ``derivable=False`` means the
    body did not re-derive to a product of affine reads (unknown, not
    refuted).
    """
    op = tensor.op
    red = op.body
    spans = {
        ax.name: (lo, hi) for ax, (lo, hi) in zip(op.axes, piece.box)
    }
    spans.update({ax.name: (ax.dom.lo, ax.dom.hi) for ax in red.axes})
    extent = {l.letter: l.extent for l in piece.letters}
    if len(extent) != len(piece.letters):
        return "two letters share a name", True
    # Every axis must split exactly into mixed-radix letters over its span.
    mapping: Dict[str, Expr] = {}
    ranges: Dict[str, Interval] = {}
    for name, (lo, hi) in spans.items():
        radix = sorted(
            (l for l in piece.letters if l.axis == name),
            key=lambda l: l.multiplier,
        )
        expected = 1
        term: Expr = Const(lo, "int32")
        for l in radix:
            if l.multiplier != expected or l.extent < 1:
                return f"letters of axis {name} are not a mixed radix", True
            expected *= l.extent
            var = Var(f"${l.letter}")
            ranges[var.name] = Interval(0, l.extent - 1)
            term = BinOp("add", term, BinOp(
                "mul", Const(l.multiplier, "int32"), var
            ))
        if expected != hi - lo:
            return (
                f"letters of axis {name} span {expected} values, "
                f"the piece {hi - lo}"
            ), True
        mapping[name] = term
    if any(l.axis not in spans for l in piece.letters):
        return "a letter splits no axis of the TE", True

    # The output view: the box's row-major addresses, nothing else.
    out_step = dict(zip((ax.name for ax in op.axes),
                        row_major_strides(tensor.shape)))
    want_offset = sum(
        (lo - ax.dom.lo) * out_step[ax.name]
        for ax, (lo, _) in zip(op.axes, piece.box)
    )
    want_out = {
        l.letter: l.multiplier * out_step[l.axis]
        for l in piece.letters if l.axis in out_step and l.extent > 1
    }
    got_out = dict(zip(piece.out.letters, piece.out.strides))
    if piece.out.offset != want_offset or got_out != want_out:
        return "output view does not address the piece's box", True

    # The operands: the TE's body on this piece, selects and clamps folded
    # by exact affine bounds, floordiv/mod by the interval simplifier.
    body = substitute_vars(red.body, mapping)
    body = simplify_expr(_prune_selects(body, ranges), ranges)
    reads = _product_reads(body)
    if reads is None:
        return None, False
    derived = []
    for read in reads:
        offset = 0
        strides: Dict[str, int] = {}
        shape = read.tensor.shape
        steps = row_major_strides(shape)
        for index, dim, step in zip(read.indices, shape, steps):
            form = _linear_form(index)
            bounds = _affine_bounds(index, ranges)
            if form is None or bounds is None:
                return None, False
            if bounds[0] < 0 or bounds[1] >= dim:
                return f"{read.tensor.name} is read out of bounds", True
            coeffs, const = form
            offset += const * step
            for name, coeff in coeffs.items():
                strides[name[1:]] = strides.get(name[1:], 0) + coeff * step
        kept = {c: s for c, s in strides.items() if s and extent[c] > 1}
        derived.append((id(read.tensor), offset, sorted(kept.items())))
    for letter, size in extent.items():
        if size > 1 and not any(letter in dict(d[2]) for d in derived):
            return f"letter {letter} is read by no operand", True
    got = [
        (
            id(contraction.tensors[view.slot]),
            view.offset,
            sorted(zip(view.letters, view.strides)),
        )
        for view in piece.operands
    ]
    if sorted(got) != sorted(derived):
        return "operand views differ from the TE's read maps", True
    return None, True


def _contraction_value(
    tensor: Tensor,
    contraction,
    coord: Tuple[int, ...],
    feeds: _FeedStore,
) -> float:
    """Pointwise value the lowered contraction writes at ``coord``.

    Mirrors ``Contraction.run``: the last piece whose output view covers
    the coordinate wins, an uncovered coordinate keeps stale bytes, and
    the covering piece sums the product of its operand views over every
    letter its output view does not hold. Every kernel reads the strided
    views: a piece's kernel follows from its views, and only views that
    are dense matrices in matmul order take ``np.matmul``'s flat blocks,
    which address the same elements.
    """
    import numpy as np

    steps = row_major_strides(tensor.shape)
    target = sum(c * s for c, s in zip(coord, steps))
    for piece in reversed(contraction.pieces):
        extent = {l.letter: l.extent for l in piece.letters}
        out = piece.out
        addresses = np.full((1,) * len(out.letters), out.offset, np.int64)
        for k, (letter, stride) in enumerate(zip(out.letters, out.strides)):
            shape = [1] * len(out.letters)
            shape[k] = extent[letter]
            addresses = addresses + stride * np.arange(
                extent[letter], dtype=np.int64
            ).reshape(shape)
        hits = np.argwhere(addresses == target)
        if not len(hits):
            continue
        fixed = dict(zip(out.letters, (int(h) for h in hits[0])))
        summed = sorted({
            c for view in piece.operands for c in view.letters
        } - set(fixed))
        points = math.prod(extent[c] for c in summed)
        if points > MAX_REDUCE_POINTS:
            raise RefutationBudgetExceeded(
                f"contraction of {points} points exceeds the pointwise "
                f"budget ({MAX_REDUCE_POINTS})"
            )
        total = 0.0
        for values in itertools.product(*(range(extent[c]) for c in summed)):
            env = dict(fixed, **dict(zip(summed, values)))
            product = 1.0
            for view in piece.operands:
                source = contraction.tensors[view.slot]
                flat = view.offset + sum(
                    env.get(c, 0) * s
                    for c, s in zip(view.letters, view.strides)
                )
                if not 0 <= flat < source.num_elements:
                    return math.nan
                idx = tuple(
                    int(i) for i in np.unravel_index(flat, source.shape)
                )
                product *= feeds.value(source.name, idx, source.dtype)
            total += product
        return total
    return feeds.value(f"stale${tensor.name}", coord, tensor.dtype)


def _contraction_values(
    tensor: Tensor, contraction, coord: Tuple[int, ...], feeds: _FeedStore
) -> Tuple[float, float]:
    """(TE value, lowered value) at one output coordinate."""
    axes = tuple(tensor.op.axes)
    reference = Closure(axes, tensor.op.body,
                        _ranges_for(axes, tensor.op.body))
    before = evaluate_closure(reference, coord, feeds)
    return before, _contraction_value(tensor, contraction, coord, feeds)


def _contraction_witness(
    tensor: Tensor, contraction, coords: Sequence[Tuple[int, ...]]
) -> Optional[Counterexample]:
    for coord in coords:
        store = _FeedStore()
        try:
            before, after = _contraction_values(
                tensor, contraction, coord, store
            )
        except RefutationBudgetExceeded:
            return None
        if _close(before, after):
            continue
        entries = sorted(
            (name, idx, value) for (name, idx), value in store.reads.items()
        )
        return Counterexample(
            output=tensor.name,
            coordinates=coord,
            before_value=before,
            after_value=after,
            feeds=tuple(entries[:MAX_FEED_ENTRIES]),
            truncated=len(entries) > MAX_FEED_ENTRIES,
        )
    return None


def _piece_probes(tensor: Tensor, piece) -> List[Tuple[int, ...]]:
    """The piece's box origin, one step along each output letter, and
    its far corner."""
    origin = [lo for lo, _ in piece.box]
    axis_pos = {ax.name: k for k, ax in enumerate(tensor.op.axes)}
    probes = [tuple(origin)]
    for l in piece.letters:
        k = axis_pos.get(l.axis)
        if k is not None and l.extent > 1:
            step = list(origin)
            step[k] += l.multiplier
            probes.append(tuple(step))
    probes.append(tuple(hi - 1 for _, hi in piece.box))
    return probes


def _certify_contraction(program) -> EquivalenceCertificate:
    """Contraction lowering: re-derive every piece from the TE's index maps.

    The interpreter and every plan call the same recogniser on the same
    views, so their agreement cannot expose a wrong view; this family
    checks the recogniser's output against the TE itself — the pieces'
    boxes partition the output, each piece's letters split its axes into
    an exact mixed radix, and the output and operand views equal the
    addresses the TE's own (select-folded, delinearised) read maps give.
    """
    import numpy as np

    subject = program.name
    obligations = 0
    for node in program.nodes:
        tensor = node.tensor
        contraction = match_contraction(tensor)
        if contraction is None:
            continue
        obligations += 1
        counts = np.zeros(tensor.shape, dtype=np.int64)
        reason: Optional[str] = None
        probes: List[Tuple[int, ...]] = []
        for k, piece in enumerate(contraction.pieces):
            if len(piece.box) != len(tensor.shape) or any(
                not 0 <= lo < hi <= dim
                for (lo, hi), dim in zip(piece.box, tensor.shape)
            ):
                reason = f"piece {k} has a box outside the output"
                break
            counts[tuple(slice(lo, hi) for lo, hi in piece.box)] += 1
        if reason is None:
            uncovered = np.argwhere(counts != 1)
            if len(uncovered):
                coord = tuple(int(c) for c in uncovered[0])
                times = int(counts[coord])
                reason = (
                    f"output {list(coord)} is written by {times} pieces; "
                    "the pieces do not partition the output"
                )
                probes = [coord]
        if reason is None:
            for k, piece in enumerate(contraction.pieces):
                obligations += 1
                why, derivable = _piece_defect(tensor, contraction, piece)
                if not derivable:
                    return EquivalenceCertificate(
                        "contraction", subject, UNKNOWN, obligations,
                        detail=(
                            f"{tensor.name}: piece {k} does not re-derive "
                            "to a product of affine reads"
                        ),
                    )
                if why is not None:
                    reason = f"piece {k}: {why}"
                    probes = _piece_probes(tensor, piece)
                    break
        if reason is not None:
            return EquivalenceCertificate(
                "contraction", subject, REFUTED, obligations,
                detail=f"{tensor.name}: {reason}",
                counterexample=_contraction_witness(
                    tensor, contraction, probes
                ),
            )
    return EquivalenceCertificate("contraction", subject, PROVED, obligations)


def certify_plan_optimization(
    program, opt
) -> List[EquivalenceCertificate]:
    """Certify one :class:`~repro.runtime.plan_opt.PlanOptimization`.

    Emits one certificate per pass family — fusion, elision, tiling,
    contraction lowering (GEMMs included) — including proved
    zero-obligation certificates for families the plan did not exercise,
    so downstream consumers can assert the full set is present.
    """
    return [
        _certify_fusion(program, opt),
        _certify_elision(program, opt),
        _certify_tiling(program, opt),
        _certify_contraction(program),
    ]


# ---- batched lowering -------------------------------------------------------


def certify_batched_lowering(
    program, batch_size: int
) -> EquivalenceCertificate:
    """Lane-invariance of the batched plan's shared precomputed state.

    Batched plans precompute one gather grid per read and drive every lane
    through it; that is sound iff no index expression reads a tensor
    (data-dependent indexing would differ per lane). Contractions add no
    obligation here, and nothing here proves their lanes bit-identical: an
    einsum or bmm piece runs its unbatched call once per lane, but a matmul
    piece runs one ``np.matmul`` over the stacked lanes (zero-stride weight
    lanes included), so each lane equals an unbatched replay only because
    numpy issues one BLAS call per core matrix, the call an unbatched run
    makes. ``tests/test_batching.py::TestServedBatchedPlans`` checks that
    bit for bit on the tiny models and the attention block at buckets 2, 4
    and 8, and ``serve-bench bert --scale paper --batch 2`` at paper scale.
    """
    subject = f"{program.name}@batch{batch_size}"
    obligations = 0
    for node in program.nodes:
        body = node.tensor.op.body
        for read in collect_reads(body):
            for position, index in enumerate(read.indices):
                obligations += 1
                inner = collect_reads(index)
                if not inner:
                    continue
                witness = inner[0]
                coord = tuple(0 for _ in witness.indices)
                dtype = getattr(witness.tensor, "dtype", "int32")
                lane0 = _hash_feed("lane0", witness.tensor.name, coord, dtype)
                lane1 = _hash_feed("lane1", witness.tensor.name, coord, dtype)
                cx = Counterexample(
                    output=node.name,
                    coordinates=coord,
                    before_value=lane0,
                    after_value=lane1,
                    feeds=(
                        (witness.tensor.name, coord, lane0),
                        (witness.tensor.name, coord, lane1),
                    ),
                )
                return EquivalenceCertificate(
                    "batched-lowering", subject, REFUTED, obligations,
                    detail=(
                        f"{node.name} reads {read.tensor.name} with a "
                        f"data-dependent index (position {position} reads "
                        f"{witness.tensor.name}); two lanes feeding "
                        "different index values cannot share one "
                        "precomputed gather grid"
                    ),
                    counterexample=cx,
                )
    return EquivalenceCertificate(
        "batched-lowering", subject, PROVED, obligations
    )


def _probe_feed_array(tensor: Tensor, lane: Optional[int]):
    """Deterministic feed array for the binding probe.

    ``lane=None`` builds the shared (weight) array; per-lane arrays get a
    lane-salted stream so every lane is distinguishable.
    """
    import numpy as np

    seed = zlib.crc32(
        f"bind|{tensor.name}|{'shared' if lane is None else lane}".encode()
    )
    rng = np.random.default_rng(seed)
    if tensor.dtype == "bool":
        return rng.integers(0, 2, size=tensor.shape).astype(bool)
    if tensor.dtype.startswith("int") or tensor.dtype.startswith("uint"):
        hi = max(2, min(8, min(tensor.shape) if tensor.shape else 8))
        return rng.integers(0, hi, size=tensor.shape).astype(tensor.dtype)
    return rng.standard_normal(tensor.shape).astype(tensor.dtype)


def certify_batched_binding(plan) -> Optional[EquivalenceCertificate]:
    """Probe the batch binding layer with distinguishable lane feeds.

    Binds one batch where every ``input`` placeholder differs per lane and
    every ``weight`` placeholder is the *same array object* across lanes
    (exercising the zero-stride broadcast fast path), then checks each
    bound lane holds exactly that request's feed. Returns ``None`` when
    the probe would exceed :data:`MAX_PROBE_ELEMENTS` (paper scale); the
    static :func:`certify_batched_lowering` obligations still apply there.
    """
    import numpy as np

    program = plan.program
    batch = plan.batch_size
    subject = f"{program.name}@batch{batch}"
    inputs = sorted(program.inputs, key=lambda t: t.name)
    if sum(t.num_elements for t in inputs) * batch > MAX_PROBE_ELEMENTS:
        return None

    shared = {
        id(t): _probe_feed_array(t, None)
        for t in inputs
        if getattr(t, "role", None) == "weight"
    }
    feeds_list = []
    for lane in range(batch):
        feeds = {}
        for t in inputs:
            if id(t) in shared:
                feeds[t] = shared[id(t)]
            else:
                feeds[t] = _probe_feed_array(t, lane)
        feeds_list.append(feeds)

    bound = plan.bind_batch(feeds_list)
    obligations = 0
    for t in inputs:
        if id(t) not in bound:
            continue
        stacked = bound[id(t)]
        for lane in range(batch):
            obligations += 1
            expected = plan._bind_one(t, feeds_list[lane][t])
            got = np.asarray(stacked[lane])
            if np.array_equal(got, np.asarray(expected)):
                continue
            diff = np.argwhere(np.asarray(expected) != got)
            where = tuple(int(x) for x in diff[0]) if len(diff) else ()
            want = float(np.asarray(expected)[where]) if where or expected.ndim == 0 else float(expected)
            have = float(got[where]) if where or got.ndim == 0 else float(got)
            cx = Counterexample(
                output=t.name,
                coordinates=(lane,) + where,
                before_value=want,
                after_value=have,
                feeds=((t.name, where, want),),
            )
            return EquivalenceCertificate(
                "batched-binding", subject, REFUTED, obligations,
                detail=(
                    f"lane {lane} of bound placeholder {t.name} does not "
                    "hold that request's feed (broadcast/stack defect in "
                    "the binding layer)"
                ),
                counterexample=cx,
            )
    return EquivalenceCertificate(
        "batched-binding", subject, PROVED, obligations
    )


# ---- drivers ----------------------------------------------------------------


def certify_plan(plan) -> CertificationReport:
    """Certify one built :class:`~repro.runtime.executor.ExecutionPlan`."""
    report = CertificationReport(subject=plan.program.name)
    if getattr(plan, "optimization", None) is not None:
        report.extend(
            certify_plan_optimization(plan.program, plan.optimization)
        )
    batch = getattr(plan, "batch_size", None)
    if batch:
        report.add(certify_batched_lowering(plan.program, batch))
        probe = certify_batched_binding(plan)
        if probe is not None:
            report.add(probe)
    return report


def gate_certificates(
    certificates: Sequence[EquivalenceCertificate],
    stage: str,
    unknown: str = "warn",
) -> None:
    """Compile-gate contract: refutations always raise; unknowns raise
    only under the ``fail`` policy (``SouffleOptions.certify_unknown``)."""
    refuted = [c for c in certificates if c.refuted]
    if refuted:
        first = refuted[0]
        message = (
            f"equivalence certification refuted after {stage}: "
            f"{first.render()}"
        )
        raise VerificationError(message)
    if unknown == "fail":
        unknowns = [c for c in certificates if c.status == UNKNOWN]
        if unknowns:
            raise VerificationError(
                f"equivalence certification inconclusive after {stage}: "
                f"{unknowns[0].render()}"
            )


def certify_model(
    model,
    level: int = 4,
    batch_size: Optional[int] = None,
    cache=None,
) -> CertificationReport:
    """The ``repro certify`` backbone: compile with certification gates on
    and statically certify the optimized plan + batched lowering.

    Everything here works at paper scale — the TE certificates come from
    the compile's front half, the plan certificates from the static
    planner (no evaluation grid is materialised).
    """
    from repro.core.config import SouffleOptions
    from repro.core.souffle import SouffleCompiler
    from repro.runtime.plan_opt import plan_optimization

    compiler = SouffleCompiler(
        options=SouffleOptions.from_level(level, certify=True),
        cache=cache,
    )
    module = compiler.compile(model)
    report = CertificationReport(subject=module.name)
    report.extend(module.certificates)
    program = module.program
    opt = plan_optimization(program, batch_size=batch_size)
    report.extend(certify_plan_optimization(program, opt))
    report.add(
        certify_batched_lowering(program, batch_size if batch_size else 8)
    )
    return report


# ---- counterexample replay --------------------------------------------------


def replay_certificate(
    certificate: EquivalenceCertificate,
    before: Optional[ProgramLike] = None,
    after: Optional[ProgramLike] = None,
    program=None,
    optimization=None,
    plan=None,
) -> Tuple[float, float]:
    """Recompute a refuted certificate's diverging values from its stored
    counterexample feed.

    Pass the same artifacts the certifier saw (``before``/``after`` views
    for TE transforms, ``program`` + ``optimization`` for plan passes,
    ``plan`` for batched binding); returns ``(before_value, after_value)``
    which must reproduce the stored pair — the test suite's definition of
    "replayable".
    """
    cx = certificate.counterexample
    if cx is None:
        raise VerificationError(
            f"certificate for {certificate.subject} carries no counterexample"
        )
    transform = certificate.transform

    if transform in ("horizontal", "vertical"):
        closures = _te_closures_for(before, after, cx.output)
        return _replay_closures(closures, cx)

    if transform == "fusion":
        view = as_view(program)
        group = next(
            g
            for g in optimization.groups
            if len(g.members) > 1 and g.terminal.name == cx.output
        )
        reference = _ClosureBuilder(
            view, _group_frontier(group)
        ).closure(group.terminal.tensor)
        sequential = _sequential_group_closure(group, group.members)
        return _replay_closures((reference, sequential), cx)

    if transform == "elision":
        view = as_view(program)
        reader = next(
            n.tensor for n in view.nodes if n.tensor.name == cx.output
        )
        position, operand = next(
            (pos, op_t)
            for pos, op_t in sorted(optimization.elided.items())
            if any(
                c.tensor.name == cx.output
                for c in program.consumers(op_t)
            )
        )
        writer = next(
            g for g in optimization.groups if g.position == position
        ).terminal.tensor
        pair = _elision_closures(view, reader, operand, writer)
        return _replay_closures(pair, cx)

    if transform == "tiling":
        view = as_view(program)
        tensor = next(
            n.tensor for n in view.nodes if n.tensor.name == cx.output
        )
        frontier = {t.name for t in view.inputs} | {
            n.tensor.name for n in view.nodes if n.tensor is not tensor
        }
        reference = _ClosureBuilder(view, frontier).closure(tensor)
        stale: Dict[int, Tensor] = {}
        stale_read = TensorRead(
            _stale_tensor(stale, tensor),
            tuple(ax.var for ax in reference.axes),
        )
        after_closure = Closure(
            reference.axes, stale_read,
            _ranges_for(reference.axes, stale_read),
        )
        return _replay_closures((reference, after_closure), cx)

    if transform == "contraction":
        tensor = next(
            n.tensor for n in as_view(program).nodes
            if n.tensor.name == cx.output
        )
        return _contraction_values(
            tensor, match_contraction(tensor), cx.coordinates,
            _FeedStore(overrides=cx.feed_map()),
        )

    if transform == "batched-binding":
        import numpy as np

        tensor = next(
            t for t in plan.program.inputs if t.name == cx.output
        )
        lane = cx.coordinates[0]
        where = cx.coordinates[1:]
        inputs = sorted(plan.program.inputs, key=lambda t: t.name)
        shared = {
            id(t): _probe_feed_array(t, None)
            for t in inputs
            if getattr(t, "role", None) == "weight"
        }
        feeds_list = [
            {
                t: shared[id(t)] if id(t) in shared
                else _probe_feed_array(t, b)
                for t in inputs
            }
            for b in range(plan.batch_size)
        ]
        bound = plan.bind_batch(feeds_list)
        expected = np.asarray(
            plan._bind_one(tensor, feeds_list[lane][tensor])
        )[where]
        got = np.asarray(bound[id(tensor)][lane])[where]
        return float(expected), float(got)

    if transform == "batched-lowering":
        name, coord, _ = cx.feeds[0]
        dtype = "int32"
        return (
            _hash_feed("lane0", name, coord, dtype),
            _hash_feed("lane1", name, coord, dtype),
        )

    raise VerificationError(
        f"cannot replay certificates for transform {transform!r}"
    )


def _replay_closures(
    closures: Tuple[Closure, Closure], cx: Counterexample
) -> Tuple[float, float]:
    before_cl, after_cl = closures
    store = _FeedStore(overrides=cx.feed_map())
    b = evaluate_closure(before_cl, cx.coordinates, store)
    a = evaluate_closure(after_cl, cx.coordinates, store)
    return b, a


def _te_closures_for(
    before: ProgramLike, after: ProgramLike, name: str
) -> Tuple[Closure, Closure]:
    """Rebuild the failing pair's closures with the same frontier the
    certifier reached when it refuted ``name``."""
    before_view, after_view = as_view(before), as_view(after)
    prover = _PairProver(before_view, after_view)
    for pair_name in _te_pairs(before_view, after_view):
        if pair_name == name:
            return prover.closures(name)
        proved, _ = prover.prove(pair_name)
        if proved:
            prover.frontier.add(pair_name)
    raise VerificationError(f"tensor {name!r} is not a matched pair")


def _elision_closures(
    view: ProgramView, reader: Tensor, operand: Tensor, writer: Tensor
) -> Tuple[Closure, Closure]:
    frontier = {t.name for t in view.inputs} | {
        node.tensor.name for node in view.nodes if node.tensor is not reader
    }
    reference = _ClosureBuilder(view, frontier).closure(reader)
    writer_closure = _ClosureBuilder(
        view, (frontier - {writer.name}) | {operand.name}
    ).closure(writer)
    suffix = itertools.count()

    def visit(read: TensorRead) -> Optional[Expr]:
        if read.tensor is not operand:
            return None
        inner = rename_reduce_axes(writer_closure.expr, f"$e{next(suffix)}")
        mapping = {
            ax.name: idx
            for ax, idx in zip(writer_closure.axes, read.indices)
        }
        return substitute_vars(inner, mapping)

    overwritten = replace_tensor_reads(reference.expr, visit)
    return reference, Closure(
        reference.axes, overwritten, _ranges_for(reference.axes, overwritten)
    )
