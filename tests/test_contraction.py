"""Tests for the contraction lowering (``te.patterns.match_contraction``).

Every ``sum`` over a product of tensor reads — GEMMs, composed reshapes
(floordiv/mod index maps), convolution windows, offset reads and predicated
horizontal merges — runs as einsum-style contractions over zero-copy
strided views, in the interpreter and in every plan.

The oracle here is a naive broadcast-grid sum written in this file, which
never calls the recogniser: every recognised step must match it within
``k * eps * sum(|a * b|)`` per element, the classic bound for a sum of
``k`` rounded products.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SouffleCompiler
from repro.graph import GraphBuilder, lower_graph
from repro.graph.te_program import TENode, TEProgram
from repro.models import TINY_MODELS, build_bert_attention_subgraph
from repro.runtime.executor import (
    BatchedExecutionPlan,
    ExecutionPlan,
    compile_plan_step,
)
from repro.runtime.module import CompiledModule
from repro.te import (
    Evaluator,
    call,
    compute,
    input_tensors,
    max_expr,
    min_expr,
    placeholder,
    reduce_axis,
    sum_expr,
)
from repro.te.expr import BinOp, Call, Cmp, Const, IfThenElse, TensorRead, Var
from repro.te.patterns import match_contraction
from repro.transform import (
    horizontal_transform,
    random_feeds,
    vertical_transform,
)

EPS = np.finfo(np.float64).eps

_BINOPS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "floordiv": np.floor_divide, "mod": np.mod,
    "max": np.maximum, "min": np.minimum,
}
_CMPS = {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}


# ---- the naive oracle -------------------------------------------------------


def _naive(expr, env, feeds):
    if isinstance(expr, Const):
        return np.asarray(expr.value)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, BinOp):
        return _BINOPS[expr.op](
            _naive(expr.lhs, env, feeds), _naive(expr.rhs, env, feeds)
        )
    if isinstance(expr, Cmp):
        return _CMPS[expr.op](
            _naive(expr.lhs, env, feeds), _naive(expr.rhs, env, feeds)
        )
    if isinstance(expr, IfThenElse):
        return np.where(
            _naive(expr.cond, env, feeds),
            _naive(expr.then_value, env, feeds),
            _naive(expr.else_value, env, feeds),
        )
    if isinstance(expr, TensorRead):
        index = np.broadcast_arrays(*[
            np.asarray(_naive(i, env, feeds), dtype=np.int64)
            for i in expr.indices
        ])
        return feeds[id(expr.tensor)][tuple(index)]
    if isinstance(expr, Call) and expr.func == "relu":
        return np.maximum(_naive(expr.args[0], env, feeds), 0.0)
    raise AssertionError(f"oracle cannot evaluate {expr!r}")


def naive_sum(tensor, feeds):
    """(sum, sum of |terms|) over the full broadcast grid, evaluated in
    slabs of the first output axis to bound memory."""
    op = tensor.op
    red = op.body
    axes = list(op.axes) + list(red.axes)
    rest = math.prod(ax.extent for ax in axes[1:])
    rows = max(1, (1 << 21) // rest)
    total = np.empty(tensor.shape)
    magnitude = np.empty(tensor.shape)
    dims = tuple(range(len(op.axes), len(axes)))
    for lo in range(0, axes[0].extent, rows):
        hi = min(axes[0].extent, lo + rows)
        env = {}
        for d, ax in enumerate(axes):
            values = (
                np.arange(lo, hi) if d == 0
                else np.arange(ax.dom.lo, ax.dom.hi)
            )
            shape = [1] * len(axes)
            shape[d] = len(values)
            env[ax.name] = values.reshape(shape)
        grid = (hi - lo,) + tuple(ax.extent for ax in axes[1:])
        terms = np.broadcast_to(_naive(red.body, env, feeds), grid)
        total[lo:hi] = terms.sum(axis=dims)
        magnitude[lo:hi] = np.abs(terms).sum(axis=dims)
    return total, magnitude


def step_feeds(tensor, seed=0):
    rng = np.random.default_rng(seed)
    return {
        t: rng.standard_normal(t.shape) for t in input_tensors(tensor.op.body)
    }


def assert_lowering_sound(tensor, seed=0):
    """Interpreter and plan step agree bit for bit, and both are within
    the rounding bound of the naive grid sum."""
    feeds = step_feeds(tensor, seed)
    got = Evaluator(feeds).value_of(tensor)
    values = {id(t): np.ascontiguousarray(a) for t, a in feeds.items()}
    values[id(tensor)] = np.empty(tensor.shape)
    step = compile_plan_step(tensor, 0)
    assert step.kind == "einsum"
    step.run(values)
    assert np.array_equal(values[id(tensor)], got)
    want, magnitude = naive_sum(
        tensor, {id(t): a for t, a in feeds.items()}
    )
    points = math.prod(ax.extent for ax in tensor.op.body.axes)
    bound = 2 * (points + 1) * EPS * magnitude
    assert np.all(np.abs(got - want) <= bound), tensor.name


def single_te_program(tensor, name="te"):
    inputs = input_tensors(tensor.op.body)
    node = TENode(0, tensor, tensor.name, "compute")
    return TEProgram(name, inputs, [node], [tensor])


# ---- every recognised step of the served programs ---------------------------


SERVED = dict(TINY_MODELS, attention=build_bert_attention_subgraph)


@pytest.mark.parametrize("name", sorted(SERVED))
def test_served_contractions_match_naive_sum(name):
    program = SouffleCompiler().compile(SERVED[name]()).program
    recognised = [
        node.tensor for node in program.nodes
        if match_contraction(node.tensor) is not None
    ]
    assert recognised, f"{name}: no step lowered to a contraction"
    for tensor in recognised:
        assert_lowering_sound(tensor)


@pytest.mark.parametrize("name", sorted(SERVED))
def test_one_recogniser_serves_every_contraction(name, monkeypatch):
    """Every sum-of-products step of a served plan, GEMMs included, is an
    ``einsum`` step running the ``Contraction`` that ``match_contraction``
    returns for its tensor, and the interpreter runs the same objects."""
    from repro.te import patterns

    ran = []
    real = patterns.Contraction.run

    def run(self, arrays, out):
        ran.append(self)
        real(self, arrays, out)

    monkeypatch.setattr(patterns.Contraction, "run", run)
    module = SouffleCompiler().compile(SERVED[name]())
    plan = module.session.plan
    tensors = {id(n.tensor): n.tensor for n in module.program.nodes}
    gemms = [
        n.tensor for n in module.program.nodes
        if patterns.match_matmul(n.tensor) is not None
    ]
    assert all(match_contraction(t) is not None for t in gemms)
    lowered = [
        (step, match_contraction(tensors[step.key])) for step in plan.steps
        if step.key in tensors
    ]
    expected = [c for _, c in lowered if c is not None]
    assert expected
    assert all(step.kind == "einsum" for step, c in lowered if c is not None)
    feeds = random_feeds(module.program, seed=2)
    module.session.run(feeds)
    assert [id(c) for c in ran] == [id(c) for c in expected]
    ran.clear()
    module.run_interpreted(feeds)
    assert {id(c) for c in ran} == {id(c) for c in expected}


def test_served_shapes_lower_as_expected():
    """Spot checks of the three families on the served programs."""
    mmoe = SouffleCompiler().compile(TINY_MODELS["mmoe"]()).program
    gate = next(n.tensor for n in mmoe.nodes if n.name == "hz0_gate0")
    pieces = match_contraction(gate).pieces
    assert [p.box[1] for p in pieces] == [
        (0, 3), (3, 7), (7, 11), (11, 15), (15, 18)
    ]
    attention = SouffleCompiler().compile(
        build_bert_attention_subgraph()
    ).program
    context = next(
        n.tensor for n in attention.nodes if n.name.startswith("reshape")
    )
    (piece,) = match_contraction(context).pieces
    assert piece.kernel == "bmm"
    # The (128, 768) output splits its 768 axis into 12 heads x 64 lanes.
    assert sorted(
        (l.multiplier, l.extent) for l in piece.letters if l.axis ==
        context.op.axes[1].name
    ) == [(1, 64), (64, 12)]


# ---- generated programs -----------------------------------------------------


@st.composite
def strided_convs(draw):
    channels = draw(st.integers(1, 3))
    filters = draw(st.integers(1, 4))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    off_h, off_w = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    slack = draw(st.integers(0, 2))
    x = placeholder(
        (channels, stride * (oh - 1) + kh + off_h + slack,
         stride * (ow - 1) + kw + off_w + slack), name="x",
    )
    w = placeholder((filters, channels, kh, kw), name="w")
    rc = reduce_axis((0, channels), name="rc")
    rh = reduce_axis((0, kh), name="rh")
    rw = reduce_axis((0, kw), name="rw")
    return compute(
        (filters, oh, ow),
        lambda o, k, l: sum_expr(
            x[rc, stride * k + rh + off_h, stride * l + rw + off_w]
            * w[o, rc, rh, rw],
            [rc, rh, rw],
        ),
        name="conv",
    )


@st.composite
def composed_layouts(draw):
    """batch_matmul -> transpose -> reshape, composed by vertical_transform
    into one reduction with floordiv/mod index maps."""
    heads, rows = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    inner, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    perm = draw(st.permutations([0, 1, 2]))
    b = GraphBuilder("layout")
    a = b.input((heads, rows, inner), name="a")
    v = b.weight((heads, inner, cols), name="v")
    t = b.transpose(b.batch_matmul(a, v), perm)
    shape = [(heads, rows, cols)[p] for p in perm]
    if draw(st.booleans()):
        new_shape = (shape[0], shape[1] * shape[2])
    else:
        new_shape = (shape[0] * shape[1], shape[2])
    out = b.relu(b.reshape(t, new_shape))
    program, _ = vertical_transform(lower_graph(b.build([out])))
    return program


@st.composite
def predicated_concats(draw):
    """Independent GEMMs over one input, merged by horizontal_transform
    into one predicated reduction."""
    rows, inner = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    b = GraphBuilder("concat")
    x = b.input((rows, inner), name="x")
    branches = [
        b.relu(b.matmul(x, b.weight((inner, width)))) for width in widths
    ]
    program, _ = horizontal_transform(
        lower_graph(b.build([b.concat(branches, axis=1)]))
    )
    return program, len(widths)


@settings(max_examples=40, deadline=None)
@given(conv=strided_convs())
def test_strided_offset_convolutions(conv):
    assert match_contraction(conv) is not None
    assert_lowering_sound(conv)


@settings(max_examples=30, deadline=None)
@given(program=composed_layouts())
def test_composed_reshape_transpose_chains(program):
    reductions = [n.tensor for n in program.nodes if n.tensor.op.reduce_axes]
    for tensor in reductions:
        assert match_contraction(tensor) is not None, repr(tensor.op.body)
        assert_lowering_sound(tensor)


@settings(max_examples=30, deadline=None)
@given(case=predicated_concats())
def test_predicated_concatenations(case):
    program, branches = case
    merged = [n.tensor for n in program.nodes if n.name.startswith("hz")
              and n.tensor.op.reduce_axes]
    assert merged
    for tensor in merged:
        contraction = match_contraction(tensor)
        assert contraction is not None
        assert len(contraction.pieces) == branches
        assert_lowering_sound(tensor)


def test_plan_and_batched_lanes_are_bit_identical():
    """A plan replays the interpreter's call; batched lanes replay it once
    each."""
    x = placeholder((2, 9, 9), name="x")
    w = placeholder((3, 2, 3, 3), name="w", role="weight")
    rc, rh, rw = (reduce_axis((0, e)) for e in (2, 3, 3))
    conv = compute(
        (3, 4, 4),
        lambda o, k, l: sum_expr(
            x[rc, 2 * k + rh, 2 * l + rw] * w[o, rc, rh, rw], [rc, rh, rw]
        ),
        name="conv",
    )
    program = single_te_program(conv)
    rng = np.random.default_rng(3)
    weight = rng.standard_normal(w.shape)
    requests = [
        {x: rng.standard_normal(x.shape), w: weight} for _ in range(4)
    ]
    plan = ExecutionPlan(program, optimize=True)
    assert [s.kind for s in plan.steps] == ["einsum"]
    want = [Evaluator(feeds).value_of(conv) for feeds in requests]
    for feeds, expected in zip(requests, want):
        assert np.array_equal(plan.run(feeds)[0], expected)
    batched = BatchedExecutionPlan(program, batch_size=4, optimize=True)
    for lane, outputs in enumerate(batched.run_batch(requests)):
        assert np.array_equal(outputs[0], want[lane])


def test_attention_block_batched_lanes_match_unbatched():
    """The served attention block's context contraction runs per lane in
    a batched plan: each lane equals its unbatched replay and the
    interpreter bit for bit."""
    module = SouffleCompiler().compile(build_bert_attention_subgraph())
    requests = [random_feeds(module.program, seed=s) for s in (1, 2)]
    singles = [module.session.run(feeds) for feeds in requests]
    for feeds, outs in zip(requests, singles):
        for got, want in zip(outs, module.run_interpreted(feeds)):
            assert np.array_equal(got, want)
    for lane, outs in enumerate(module.session.run_batch(requests)):
        for got, want in zip(outs, singles[lane]):
            assert np.array_equal(got, want)


# ---- one recognition per sum reduction --------------------------------------


def test_each_sum_reduction_is_recognised_once(monkeypatch):
    """An optimized build, a bucket-4 build, two interpreted runs and the
    certifier share one recognition per sum reduction."""
    from collections import Counter

    from repro.te import patterns
    from repro.te.expr import Reduce
    from repro.verify import certify_plan

    recognised = Counter()
    alive = []  # holds every counted op, so no id is reused across models
    real = patterns._lower_contraction

    def counting(op, shape):
        recognised[id(op)] += 1
        alive.append(op)
        return real(op, shape)

    monkeypatch.setattr(patterns, "_lower_contraction", counting)
    expected = set()
    for name in sorted(TINY_MODELS):
        module = SouffleCompiler(cache=False).compile(TINY_MODELS[name]())
        program = module.program
        expected |= {
            id(n.tensor.op) for n in program.nodes
            if isinstance(n.tensor.op.body, Reduce)
            and n.tensor.op.body.kind == "sum"
        }
        ExecutionPlan(program, optimize=True)
        batched = BatchedExecutionPlan(program, batch_size=4, optimize=True)
        feeds = random_feeds(program, seed=7)
        module.run_interpreted(feeds)
        module.run_interpreted(feeds)
        certify_plan(batched)
    assert expected
    assert set(recognised) == expected
    assert set(recognised.values()) == {1}


# ---- declines ---------------------------------------------------------------


def gemm_operands():
    a = placeholder((4, 6), name="a")
    b = placeholder((6, 5), name="b")
    return a, b


@pytest.mark.parametrize("reducer", [max_expr, min_expr])
def test_declines_max_and_min(reducer):
    a, b = gemm_operands()
    k = reduce_axis((0, 6))
    t = compute((4, 5), lambda i, j: reducer(a[i, k] * b[k, j], [k]))
    assert match_contraction(t) is None


def test_declines_non_product_body():
    """MMoE's second tower layer, ``relu(a + b) * w``, keeps the grid."""
    h = placeholder((1, 8), name="h")
    bias = placeholder((8,), name="bias")
    w = placeholder((8, 2), name="w")
    r = reduce_axis((0, 8))
    t = compute(
        (1, 2),
        lambda i, j: sum_expr(
            call("relu", h[i, r] + bias[r]) * w[r, j], [r]
        ),
    )
    assert match_contraction(t) is None
    mmoe = SouffleCompiler().compile(TINY_MODELS["mmoe"]()).program
    towers = [
        n.tensor for n in mmoe.nodes
        if n.tensor.op.reduce_axes and "relu" in repr(n.tensor.op.body)
    ]
    assert towers
    assert all(match_contraction(t) is None for t in towers)


def test_declines_unread_reduce_axis():
    """Summing over an axis no operand reads multiplies by its extent; an
    einsum would silently drop that factor."""
    a, b = gemm_operands()
    k = reduce_axis((0, 6))
    r = reduce_axis((0, 3))
    t = compute((4, 5), lambda i, j: sum_expr(a[i, k] * b[k, j], [k, r]))
    assert match_contraction(t) is None


def test_declines_single_reads_and_windows_out_of_bounds():
    a, _ = gemm_operands()
    k = reduce_axis((0, 6))
    row_sum = compute((4,), lambda i: sum_expr(a[i, k], [k]))
    assert match_contraction(row_sum) is None
    x = placeholder((8,), name="x")
    w = placeholder((3,), name="w")
    r = reduce_axis((0, 3))
    past_end = compute((7,), lambda i: sum_expr(x[i + r] * w[r], [r]))
    assert match_contraction(past_end) is None


def test_kernel_follows_shapes_only():
    """One shape per kernel: a dense GEMM calls np.matmul at any size, a
    large shifted read runs batched matmul through copies, a small one
    one einsum loop."""
    a = placeholder((1, 8), name="a")
    b = placeholder((8, 32), name="b")
    k = reduce_axis((0, 8))
    gemv = compute((1, 32), lambda i, j: sum_expr(a[i, k] * b[k, j], [k]))
    cases = [(gemv, "matmul")]
    for n, kernel in ((4, "einsum"), (32, "bmm")):
        a = placeholder((n, n + 1), name="a")
        b = placeholder((n, n), name="b")
        k = reduce_axis((0, n))
        cases.append((compute(
            (n, n), lambda i, j: sum_expr(a[i, k.var + 1] * b[k, j], [k])
        ), kernel))
    for t, kernel in cases:
        (piece,) = match_contraction(t).pieces
        assert piece.kernel == kernel
        assert_lowering_sound(t)


# ---- deep programs in the interpreter ---------------------------------------


def test_run_interpreted_handles_deep_chains():
    """``run_interpreted`` memoises producers in program order, so a chain
    deeper than the recursion limit evaluates."""
    x = placeholder((2,), name="x")
    tensors = []
    prev = x
    for _ in range(1500):
        prev = compute((2,), lambda i, p=prev: p[i] + 1.0)
        tensors.append(prev)
    program = TEProgram(
        "deep", [x],
        [TENode(k, t, t.name, "add") for k, t in enumerate(tensors)],
        [tensors[-1]],
    )
    module = CompiledModule("deep", "none", program, [], device=None)
    (out,) = module.run_interpreted({x: np.zeros(2)})
    assert np.array_equal(out, np.full(2, 1500.0))
