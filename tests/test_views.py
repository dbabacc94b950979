"""Map and reduction steps over strided views (``te.patterns.lower_views``).

Every read that is not a contraction operand runs as a strided view of its
operand's buffer, and a TE with selects on its output axes is cut into
pieces that each fold the selects their box decides. The contract: every
plan stays bit-identical to the gather-based ``Evaluator``, including a
piece written in place over an operand it still reads and values whose
sign or NaN-ness an arithmetic simplification would lose.
"""

import numpy as np
import pytest

from repro import SouffleCompiler
from repro.graph import GraphBuilder, lower_graph
from repro.graph.te_program import TENode, TEProgram
from repro.models import TINY_MODELS, build_bert_attention_subgraph
from repro.runtime.executor import (
    BatchedExecutionPlan,
    ExecutionPlan,
    compile_plan_step,
    read_stats,
)
from repro.te import compute, placeholder
from repro.te.evaluator import Evaluator
from repro.te.expr import if_then_else, maximum, minimum
from repro.te.patterns import lower_views, match_contraction
from repro.te.tensor import max_expr, min_expr, reduce_axis
from repro.transform import random_feeds


def same_bits(got, want):
    """Bit-for-bit equality: signed zeros and NaNs included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


def oracle(program, feeds):
    ev = Evaluator(feeds)
    return [ev.value_of(t) for t in program.outputs]


_MODULES = {}


def compiled(name):
    """The compiled module each front end serves, built once per run."""
    if name not in _MODULES:
        graph = (
            build_bert_attention_subgraph() if name == "attention"
            else TINY_MODELS[name]()
        )
        _MODULES[name] = SouffleCompiler().compile(graph)
    return _MODULES[name]


def one_te_program(name, inputs, out):
    return TEProgram(name, inputs, [TENode(0, out, out.name, "custom")], [out])


class TestInPlacePieces:
    """A step cut into pieces may be written over an operand it reads."""

    @pytest.mark.parametrize("name", ["lstm", "swin"])
    def test_optimized_plan_matches_evaluator(self, name):
        module = compiled(name)
        plan = module.session.plan
        opt = plan.optimization
        written_over = [
            (opt.groups[pos].terminal.name, operand.name)
            for pos, operand in opt.elided.items()
            if match_contraction(opt.groups[pos].terminal.tensor) is None
            and len(lower_views(opt.groups[pos].terminal.tensor).pieces) > 1
        ]
        assert written_over, "no step cut into pieces is written in place"
        feeds = random_feeds(module.program, seed=5)
        want = module.run_interpreted(feeds)
        for got, expected in zip(plan.run(feeds), want):
            assert same_bits(got, expected), (name, written_over)

    def test_shifted_copy_over_its_operand(self):
        """``y = x`` rotated by three rows: each piece reads the rows the
        other writes. In place, writing one before evaluating the other
        would copy rows already overwritten."""
        x = placeholder((6, 4), name="x")
        rolled = compute(
            (6, 4),
            lambda i, j: if_then_else(
                i < 3, x[minimum(i + 3, 5), j], x[maximum(i - 3, 0), j]
            ),
            name="rolled",
        )
        (piece_a, piece_b) = lower_views(rolled).pieces
        assert piece_a.box == ((0, 3), (0, 4))
        # The step's output aliases its operand's bytes, as under elision.
        buffer = np.arange(24.0).reshape(6, 4)
        step = compile_plan_step(rolled, 0)
        step.run({id(x): buffer, id(rolled): buffer})
        want = np.concatenate([np.arange(12.0, 24.0), np.arange(12.0)])
        assert np.array_equal(buffer, want.reshape(6, 4))


def select_clamp_program():
    """Two pieces whose value arithmetic must not be simplified: ``+ 0.0``
    turns ``-0.0`` into ``0.0`` and ``* 0.0`` turns ``inf`` into NaN."""
    x = placeholder((3,), name="x")
    y = compute(
        (6,),
        lambda i: if_then_else(
            i < 3, x[minimum(i, 2)] + 0.0, x[maximum(i - 3, 0)] * 0.0
        ),
        name="y",
    )
    return one_te_program("select_clamp", [x], y), x, y


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSpecialValues:
    FEED = np.array([-0.0, np.inf, np.nan])
    WANT = np.array([0.0, np.inf, np.nan, -0.0, np.nan, np.nan])

    def test_oracle_keeps_the_arithmetic(self):
        program, x, _ = select_clamp_program()
        (want,) = oracle(program, {x: self.FEED})
        assert np.array_equal(want, self.WANT, equal_nan=True)
        assert np.array_equal(np.signbit(want[[0, 3]]), [False, True])

    def test_unbatched_plan_matches_bit_for_bit(self):
        program, x, y = select_clamp_program()
        assert len(lower_views(y).pieces) == 2
        (want,) = oracle(program, {x: self.FEED})
        for optimize in (False, True):
            plan = ExecutionPlan(program, optimize=optimize)
            (got,) = plan.run({x: self.FEED})
            assert same_bits(got, want), got

    def test_bucket_4_matches_bit_for_bit(self):
        program, x, _ = select_clamp_program()
        plan = BatchedExecutionPlan(program, batch_size=4, optimize=True)
        feeds = [{x: self.FEED}, {x: -self.FEED}, {x: self.FEED[::-1]},
                 {x: self.FEED}]
        for lane, outputs in zip(feeds, plan.run_batch(feeds)):
            (want,) = oracle(program, lane)
            assert same_bits(outputs[0], want)


def pool_program(kind):
    """A 3x3 stride-2 max or min pool over a 3x9x9 input."""
    x = placeholder((3, 9, 9), name="x")
    r, s = reduce_axis((0, 3), "r"), reduce_axis((0, 3), "s")
    reduce = max_expr if kind == "max" else min_expr
    y = compute(
        (3, 4, 4),
        lambda c, i, j: reduce(x[c, 2 * i + r, 2 * j + s], [r, s]),
        name=f"{kind}_pool",
    )
    return one_te_program(f"{kind}_pool", [x], y), x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestReductionOrder:
    """Which of -0.0 and +0.0, or which NaN, a max or min returns depends
    on the order numpy reduces in, and that follows the layout of what it
    reduces: every plan must reduce the ``Evaluator``'s grid."""

    SPECIAL = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
    ZEROS = np.array([-0.0, 0.0, -1.0])

    def check(self, kind, values, seeds):
        program, x = pool_program(kind)
        plans = [ExecutionPlan(program), ExecutionPlan(program, optimize=True)]
        bucket = BatchedExecutionPlan(program, batch_size=4, optimize=True)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            feeds = [{x: rng.choice(values, size=(3, 9, 9))} for _ in range(4)]
            wants = [oracle(program, f)[0] for f in feeds]
            for plan in plans:
                assert same_bits(plan.run(feeds[0])[0], wants[0]), (kind, seed)
            for (got,), want in zip(bucket.run_batch(feeds), wants):
                assert same_bits(got, want), (kind, seed, "bucket 4")

    @pytest.mark.parametrize("kind", ["max", "min"])
    def test_signed_zeros_nan_and_infinities(self, kind):
        self.check(kind, self.SPECIAL, range(30))

    @pytest.mark.parametrize("kind", ["max", "min"])
    def test_windows_of_signed_zeros(self, kind):
        """Windows of -0.0, +0.0 and -1.0 only: where a window holds both
        zeros, the reduction order alone picks the one a max or min
        returns."""
        self.check(kind, self.ZEROS, range(50))


class TestGathersLeft:
    @pytest.mark.parametrize(
        "name", ["attention", "bert", "efficientnet", "lstm", "mmoe",
                 "resnext", "swin"],
    )
    def test_served_plans_gather_nothing(self, name):
        """Every read of the served plans, unbatched and at bucket 8, is a
        strided view: no index grid is left."""
        module = compiled(name)
        session = module.session
        for plan in (session.plan, session.batch_plan(8)):
            stats = read_stats(plan.program)
            assert (stats.gathers, stats.grid_bytes) == (0, 0), name
            assert stats.views > 0

    def test_non_affine_read_stays_a_gather(self):
        x = placeholder((6,), name="x")
        y = compute((4,), lambda i: x[(i * 3) // 2] * 2.0, name="y")
        program = one_te_program("halves", [x], y)
        stats = read_stats(program)
        assert (stats.views, stats.gathers) == (0, 1)
        assert stats.grid_bytes == 4 * 8
        feeds = {x: np.arange(6.0) - 2.5}
        (want,) = oracle(program, feeds)
        (got,) = ExecutionPlan(program).run(feeds)
        assert same_bits(got, want)
        batched = BatchedExecutionPlan(program, batch_size=2)
        for outputs in batched.run_batch([feeds, feeds]):
            assert same_bits(outputs[0], want)

    def test_pad_guard_conjunction_is_cut(self):
        """A pad's ``(k ge p) mul (k lt n + p)`` guard cuts the output
        into a copy of the input and constant borders."""
        b = GraphBuilder("padded")
        x = b.input((1, 2, 3, 3), name="x")
        program = lower_graph(b.build([b.relu(b.pad(
            x, [(0, 0), (0, 0), (1, 1), (2, 0)]
        ))]))
        pad = next(n.tensor for n in program.nodes if "pad" in n.name)
        pieces = lower_views(pad).pieces
        assert len(pieces) == 6
        assert all(
            not piece.reads or piece.reads[0][1] is not None
            for piece in pieces
        )
        feeds = random_feeds(program, seed=2)
        for got, want in zip(ExecutionPlan(program).run(feeds),
                             oracle(program, feeds)):
            assert same_bits(got, want)
