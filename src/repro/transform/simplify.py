"""Expression simplification with interval arithmetic.

Vertical transformation substitutes producer bodies into consumers, which
leaves behind index algebra like ``((i*64 + j) // 64) % 64`` (from reshape
chains) and clamp/select scaffolding like ``min(max(v-off,0),n-1)`` under
always-true predicates (from concat/pad). This pass erases that residue
using value intervals derived from the iteration domains, keeping merged TE
bodies small and their dependence analysis precise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.te.traversal import walk


@dataclass(frozen=True)
class Interval:
    """Closed integer interval [lo, hi]."""

    lo: int
    hi: int

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def within(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi


VarRanges = Dict[str, Interval]


def ranges_for_tensor(tensor: Tensor) -> VarRanges:
    """Iteration-variable intervals for one TE (spatial + reduce axes)."""
    ranges: VarRanges = {}
    if tensor.op is None:
        return ranges
    for ax in tensor.op.axes:
        ranges[ax.name] = Interval(ax.dom.lo, ax.dom.hi - 1)
    for node in walk(tensor.op.body):
        if isinstance(node, Reduce):
            for ax in node.axes:
                ranges[ax.name] = Interval(ax.dom.lo, ax.dom.hi - 1)
    return ranges


def infer_interval(expr: Expr, ranges: VarRanges) -> Optional[Interval]:
    """Best-effort value interval of an integer expression, or ``None``."""
    return Simplifier(ranges).interval(expr)


def _as_const(expr: Expr) -> Optional[float]:
    if isinstance(expr, Const):
        return expr.value
    return None


def _const(value: float) -> Const:
    if isinstance(value, float) and value.is_integer():
        return Const(int(value), "int32")
    if isinstance(value, int):
        return Const(value, "int32")
    return Const(value, "float32")


def _linear_terms(expr: Expr) -> Optional[Tuple[Dict[Expr, int], int]]:
    """Decompose into {atom: coeff} + const, where atoms are arbitrary
    non-additive sub-expressions. Supports +, -, and const multiplication."""
    if isinstance(expr, Const):
        if isinstance(expr.value, int):
            return {}, expr.value
        return None
    if isinstance(expr, BinOp):
        if expr.op in ("add", "sub"):
            left = _linear_terms(expr.lhs)
            right = _linear_terms(expr.rhs)
            if left is None or right is None:
                return None
            sign = 1 if expr.op == "add" else -1
            terms = dict(left[0])
            for atom, coeff in right[0].items():
                terms[atom] = terms.get(atom, 0) + sign * coeff
            return terms, left[1] + sign * right[1]
        if expr.op == "mul":
            lc, rc = _as_const(expr.lhs), _as_const(expr.rhs)
            if isinstance(lc, int):
                inner = _linear_terms(expr.rhs)
                if inner is None:
                    return None
                return {a: c * lc for a, c in inner[0].items()}, inner[1] * lc
            if isinstance(rc, int):
                inner = _linear_terms(expr.lhs)
                if inner is None:
                    return None
                return {a: c * rc for a, c in inner[0].items()}, inner[1] * rc
            return None
    return {expr: 1}, 0


def _rebuild_linear(terms: Dict[Expr, int], const: int) -> Expr:
    acc: Optional[Expr] = None
    for atom, coeff in terms.items():
        if coeff == 0:
            continue
        term = atom if coeff == 1 else BinOp("mul", _const(coeff), atom)
        acc = term if acc is None else BinOp("add", acc, term)
    if const != 0 or acc is None:
        c = _const(const)
        acc = c if acc is None else BinOp("add", acc, c)
    return acc


def _split_by_divisor(
    expr: Expr, divisor: int, interval_of: Callable[[Expr], Optional[Interval]]
) -> Optional[Tuple[Expr, Expr]]:
    """Split ``expr = q*divisor + r`` with ``r`` provably in [0, divisor).

    Returns (quotient_expr, remainder_expr) or ``None``.
    """
    decomposed = _linear_terms(expr)
    if decomposed is None:
        return None
    terms, const = decomposed
    q_terms: Dict[Expr, int] = {}
    r_terms: Dict[Expr, int] = {}
    for atom, coeff in terms.items():
        if coeff % divisor == 0:
            q_terms[atom] = coeff // divisor
        else:
            r_terms[atom] = coeff
    q_const, r_const = divmod(const, divisor) if const >= 0 else (0, const)
    if const < 0:
        r_const = const
        q_const = 0
    remainder = _rebuild_linear(r_terms, r_const)
    interval = interval_of(remainder)
    if interval is None or not interval.within(0, divisor - 1):
        return None
    quotient = _rebuild_linear(q_terms, q_const)
    return quotient, remainder


_UNSEEN = object()


class Simplifier:
    """Bottom-up simplification with a variable-range context.

    Simplified forms and value intervals are memoised by node identity for
    the simplifier's lifetime (one :func:`simplify_expr` call). Expression
    nodes are immutable, and substitution puts one index object at every
    occurrence of a variable, so a shared subtree is simplified once and
    an interval query at an ancestor reuses its children's intervals.
    """

    def __init__(self, ranges: VarRanges) -> None:
        self.ranges = ranges
        self._simplified: Dict[int, Expr] = {}
        self._intervals: Dict[int, Optional[Interval]] = {}
        # Every memo key's node: holding it keeps its id unique while the
        # memo lives.
        self._alive: List[Expr] = []

    def simplify(self, expr: Expr) -> Expr:
        if isinstance(expr, (Const, Var)):
            return expr
        result = self._simplified.get(id(expr))
        if result is None:
            result = self._simplify(expr)
            self._simplified[id(expr)] = result
            self._alive.append(expr)
        return result

    def _simplify(self, expr: Expr) -> Expr:
        # A node whose children all come back unchanged is kept as is.
        if isinstance(expr, BinOp):
            lhs, rhs = self.simplify(expr.lhs), self.simplify(expr.rhs)
            if lhs is not expr.lhs or rhs is not expr.rhs:
                expr = BinOp(expr.op, lhs, rhs)
            return self._binop(expr)
        if isinstance(expr, Cmp):
            lhs, rhs = self.simplify(expr.lhs), self.simplify(expr.rhs)
            if lhs is not expr.lhs or rhs is not expr.rhs:
                expr = Cmp(expr.op, lhs, rhs)
            return self._cmp(expr)
        if isinstance(expr, Call):
            args = tuple(self.simplify(a) for a in expr.args)
            if any(a is not b for a, b in zip(args, expr.args)):
                expr = Call(expr.func, args)
            return expr
        if isinstance(expr, TensorRead):
            indices = tuple(self.simplify(i) for i in expr.indices)
            if any(a is not b for a, b in zip(indices, expr.indices)):
                expr = TensorRead(expr.tensor, indices)
            return expr
        if isinstance(expr, Reduce):
            body = self.simplify(expr.body)
            if body is not expr.body:
                expr = Reduce(expr.kind, body, expr.axes)
            return expr
        if isinstance(expr, IfThenElse):
            cond = self.simplify(expr.cond)
            then_value = self.simplify(expr.then_value)
            else_value = self.simplify(expr.else_value)
            if (cond is not expr.cond or then_value is not expr.then_value
                    or else_value is not expr.else_value):
                expr = IfThenElse(cond, then_value, else_value)
            return self._select(expr)
        return expr

    def interval(self, expr: Expr) -> Optional[Interval]:
        """Best-effort value interval of an integer expression, or ``None``."""
        if isinstance(expr, Var):
            return self.ranges.get(expr.name)
        result = self._intervals.get(id(expr), _UNSEEN)
        if result is _UNSEEN:
            result = self._interval(expr)
            self._intervals[id(expr)] = result
            self._alive.append(expr)
        return result

    def _interval(self, expr: Expr) -> Optional[Interval]:
        if isinstance(expr, Const):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)
            ):
                return None
            if isinstance(expr.value, float) and not expr.value.is_integer():
                return None
            v = int(expr.value)
            return Interval(v, v)
        if isinstance(expr, BinOp):
            lhs = self.interval(expr.lhs)
            rhs = self.interval(expr.rhs)
            if lhs is None or rhs is None:
                return None
            if expr.op == "add":
                return Interval(lhs.lo + rhs.lo, lhs.hi + rhs.hi)
            if expr.op == "sub":
                return Interval(lhs.lo - rhs.hi, lhs.hi - rhs.lo)
            if expr.op == "mul":
                corners = [
                    lhs.lo * rhs.lo, lhs.lo * rhs.hi,
                    lhs.hi * rhs.lo, lhs.hi * rhs.hi,
                ]
                return Interval(min(corners), max(corners))
            if expr.op == "floordiv" and rhs.lo == rhs.hi and rhs.lo > 0:
                return Interval(lhs.lo // rhs.lo, lhs.hi // rhs.lo)
            if expr.op == "mod" and rhs.lo == rhs.hi and rhs.lo > 0:
                if lhs.lo >= 0 and lhs.hi < rhs.lo:
                    return Interval(lhs.lo, lhs.hi)
                if lhs.lo >= 0:
                    return Interval(0, rhs.lo - 1)
                return None
            if expr.op == "max":
                return Interval(max(lhs.lo, rhs.lo), max(lhs.hi, rhs.hi))
            if expr.op == "min":
                return Interval(min(lhs.lo, rhs.lo), min(lhs.hi, rhs.hi))
        return None

    # ---- node rules -------------------------------------------------------

    def _binop(self, expr: BinOp) -> Expr:
        lc, rc = _as_const(expr.lhs), _as_const(expr.rhs)
        if lc is not None and rc is not None:
            return self._fold(expr.op, lc, rc)

        if expr.op == "add":
            if lc == 0:
                return expr.rhs
            if rc == 0:
                return expr.lhs
        elif expr.op == "sub":
            if rc == 0:
                return expr.lhs
        elif expr.op == "mul":
            if lc == 1:
                return expr.rhs
            if rc == 1:
                return expr.lhs
            if lc == 0 or rc == 0:
                return Const(0, "int32")
        elif expr.op == "div":
            if rc == 1:
                return expr.lhs
        elif expr.op == "floordiv":
            if rc == 1:
                return expr.lhs
            if isinstance(rc, int) and rc > 1:
                split = _split_by_divisor(expr.lhs, rc, self.interval)
                if split is not None:
                    return self.simplify(split[0])
        elif expr.op == "mod":
            # Only an integer-valued lhs is 0 mod 1; data values keep
            # their fractional part.
            if (isinstance(rc, int) and rc == 1
                    and self.interval(expr.lhs) is not None):
                return Const(0, "int32")
            if isinstance(rc, int) and rc > 1:
                split = _split_by_divisor(expr.lhs, rc, self.interval)
                if split is not None:
                    return self.simplify(split[1])
        elif expr.op in ("max", "min"):
            li = self.interval(expr.lhs)
            ri = self.interval(expr.rhs)
            if li is not None and ri is not None:
                if expr.op == "max":
                    if li.lo >= ri.hi:
                        return expr.lhs
                    if ri.lo >= li.hi:
                        return expr.rhs
                else:
                    if li.hi <= ri.lo:
                        return expr.lhs
                    if ri.hi <= li.lo:
                        return expr.rhs
        return expr

    def _fold(self, op: str, a: float, b: float) -> Expr:
        import math

        both_int = isinstance(a, int) and isinstance(b, int)
        if op == "add":
            return _const(a + b)
        if op == "sub":
            return _const(a - b)
        if op == "mul":
            return _const(a * b)
        if op == "div":
            return _const(a / b) if b != 0 else _const(math.inf)
        if op == "floordiv":
            return _const(a // b) if b != 0 else _const(0)
        if op == "mod":
            return _const(a % b) if b != 0 else _const(0)
        if op == "max":
            return _const(max(a, b))
        if op == "min":
            return _const(min(a, b))
        if op == "pow":
            return _const(a ** b)
        raise AssertionError(op)

    def _cmp(self, expr: Cmp) -> Expr:
        li = self.interval(expr.lhs)
        ri = self.interval(expr.rhs)
        if li is not None and ri is not None:
            checks = {
                "lt": (li.hi < ri.lo, li.lo >= ri.hi),
                "le": (li.hi <= ri.lo, li.lo > ri.hi),
                "gt": (li.lo > ri.hi, li.hi <= ri.lo),
                "ge": (li.lo >= ri.hi, li.hi < ri.lo),
                "eq": (li.lo == li.hi == ri.lo == ri.hi, li.hi < ri.lo or li.lo > ri.hi),
                "ne": (li.hi < ri.lo or li.lo > ri.hi, li.lo == li.hi == ri.lo == ri.hi),
            }
            always, never = checks[expr.op]
            if always:
                return Const(1, "bool")
            if never:
                return Const(0, "bool")
        return expr

    def _select(self, expr: IfThenElse) -> Expr:
        cond = _as_const(expr.cond)
        if cond is not None:
            return expr.then_value if cond else expr.else_value
        # Product-of-predicates AND: if every factor folded to 1 the product
        # folds too (handled by _binop), so only the generic case remains.
        if expr.then_value == expr.else_value:
            return expr.then_value
        return expr


def simplify_expr(expr: Expr, ranges: VarRanges) -> Expr:
    """Simplify an expression under the given variable ranges."""
    return Simplifier(ranges).simplify(expr)


def simplify_tensor_body(tensor: Tensor) -> Expr:
    """Simplify a compute tensor's body under its own iteration domains."""
    assert tensor.op is not None
    return simplify_expr(tensor.op.body, ranges_for_tensor(tensor))
