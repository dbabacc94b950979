"""Tests for the interval-based expression simplifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.te import (
    BinOp,
    Cmp,
    Const,
    Var,
    compute,
    if_then_else,
    maximum,
    minimum,
    placeholder,
)
from repro.transform import (
    Interval,
    infer_interval,
    ranges_for_tensor,
    simplify_expr,
    simplify_tensor_body,
)

I = Var("i")
J = Var("j")
R = {"i": Interval(0, 63), "j": Interval(0, 15)}


class TestIntervals:
    def test_var(self):
        assert infer_interval(I, R) == Interval(0, 63)

    def test_affine(self):
        assert infer_interval(I * 2 + 1, R) == Interval(1, 127)

    def test_sub(self):
        assert infer_interval(I - J, R) == Interval(-15, 63)

    def test_mul_signs(self):
        assert infer_interval((I - 10) * -2, R) == Interval(-106, 20)

    def test_floordiv(self):
        assert infer_interval(I // 4, R) == Interval(0, 15)

    def test_mod_within(self):
        assert infer_interval(J % 16, R) == Interval(0, 15)

    def test_min_max(self):
        assert infer_interval(maximum(I, 10), R) == Interval(10, 63)
        assert infer_interval(minimum(I, 10), R) == Interval(0, 10)

    def test_unknown_var_gives_none(self):
        assert infer_interval(Var("z"), R) is None


class TestConstantFolding:
    def test_arith_folds(self):
        assert simplify_expr(Const(2, "int32") + 3, {}) == Const(5, "int32")
        assert simplify_expr(Const(2, "int32") * 3, {}) == Const(6, "int32")

    def test_identities(self):
        assert simplify_expr(I + 0, R) is I
        assert simplify_expr(I * 1, R) is I
        assert simplify_expr(I - 0, R) is I
        assert simplify_expr(0 * I, R) == Const(0, "int32")

    def test_floordiv_by_one(self):
        assert simplify_expr(I // 1, R) is I

    def test_mod_by_one(self):
        """An integer index is 0 mod 1 — Swin's composed window reverse
        leaves ``((i*32 + j) // 128) % 1`` behind — but a data value keeps
        its fractional part."""
        assert simplify_expr(((I * 16 + J) // 128) % 1, R) == Const(0, "int32")
        x = placeholder((4,), name="x")
        data = BinOp("mod", x[I], Const(1, "int32"))
        assert simplify_expr(data, R) == data


class TestReshapeResidue:
    def test_linear_floordiv_collapses(self):
        """((i*16 + j) // 16) -> i when j in [0,16)."""
        expr = (I * 16 + J) // 16
        assert simplify_expr(expr, R) is I

    def test_linear_mod_collapses(self):
        expr = (I * 16 + J) % 16
        assert simplify_expr(expr, R) is J

    def test_non_collapsible_kept(self):
        expr = (I * 10 + J) // 16  # 10 not a multiple of 16
        out = simplify_expr(expr, R)
        assert isinstance(out, BinOp) and out.op == "floordiv"

    def test_small_value_floordiv_is_zero(self):
        assert simplify_expr(J // 16, R) == Const(0, "int32")

    def test_small_value_mod_is_identity(self):
        assert simplify_expr(J % 16, R) is J


class TestClampRemoval:
    def test_provable_clamp_vanishes(self):
        # j in [0, 15]: min(max(j, 0), 15) -> j
        expr = minimum(maximum(J, 0), 15)
        assert simplify_expr(expr, R) is J

    def test_unprovable_clamp_kept(self):
        expr = minimum(maximum(J - 5, 0), 15)
        out = simplify_expr(expr, R)
        assert isinstance(out, BinOp)


class TestPredicateFolding:
    def test_always_true(self):
        assert simplify_expr(Cmp("lt", J, Const(16, "int32")), R) == Const(1, "bool")

    def test_always_false(self):
        assert simplify_expr(Cmp("ge", J, Const(16, "int32")), R) == Const(0, "bool")

    def test_unknown_kept(self):
        out = simplify_expr(Cmp("lt", J, Const(8, "int32")), R)
        assert isinstance(out, Cmp)

    def test_select_with_constant_cond(self):
        expr = if_then_else(Cmp("lt", J, Const(16, "int32")), I, J)
        assert simplify_expr(expr, R) is I

    def test_select_same_branches(self):
        expr = if_then_else(Cmp("lt", J, Const(8, "int32")), I, I)
        assert simplify_expr(expr, R) is I


class TestTensorContext:
    def test_ranges_for_tensor_includes_reduce(self):
        from repro.te import reduce_axis, sum_expr

        a = placeholder((4, 8))
        rk = reduce_axis((0, 8), name="rk")
        t = compute((4,), lambda i: sum_expr(a[i, rk], [rk]))
        ranges = ranges_for_tensor(t)
        assert "rk" in ranges and ranges["rk"].hi == 7

    def test_simplify_tensor_body(self):
        a = placeholder((4, 16))
        t = compute((4, 16), lambda i, j: a[(i * 16 + j) // 16, (i * 16 + j) % 16])
        body = simplify_tensor_body(t)
        read = body
        assert repr(read).count("floordiv") == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_simplify_preserves_value(data):
    """Property: simplification never changes the value of an integer
    expression over its variable domain."""
    lo_i, hi_i = 0, data.draw(st.integers(1, 20))
    ranges = {"i": Interval(lo_i, hi_i)}
    c1 = data.draw(st.integers(1, 8))
    c2 = data.draw(st.integers(-4, 4))
    c3 = data.draw(st.integers(1, 8))
    candidates = [
        (I * c1 + c2) // c3,
        (I * c1 + c2) % c3,
        minimum(maximum(I + c2, 0), hi_i),
        if_then_else(I < c1, I + c2, I * c1),
        I * c1 + c2 - I,
    ]
    expr = data.draw(st.sampled_from(candidates))
    simplified = simplify_expr(expr, ranges)

    def evaluate(node, value):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return value
        if isinstance(node, BinOp):
            a, b = evaluate(node.lhs, value), evaluate(node.rhs, value)
            return {
                "add": a + b, "sub": a - b, "mul": a * b,
                "floordiv": a // b if b else 0,
                "mod": a % b if b else 0,
                "max": max(a, b), "min": min(a, b),
                "div": a / b if b else 0,
            }[node.op]
        if isinstance(node, Cmp):
            a, b = evaluate(node.lhs, value), evaluate(node.rhs, value)
            return {
                "lt": a < b, "le": a <= b, "gt": a > b,
                "ge": a >= b, "eq": a == b, "ne": a != b,
            }[node.op]
        if hasattr(node, "cond"):
            return (
                evaluate(node.then_value, value)
                if evaluate(node.cond, value)
                else evaluate(node.else_value, value)
            )
        raise AssertionError(type(node))

    for value in range(lo_i, hi_i + 1):
        assert evaluate(expr, value) == evaluate(simplified, value)
