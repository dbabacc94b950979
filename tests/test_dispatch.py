"""Tests for dynamic-shape multi-version dispatch (paper Sec. 9)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph import GraphBuilder
from repro.runtime.dispatch import ShapeDispatcher


def mlp_builder(seq_len: int):
    """A row-wise MLP whose rows are independent — safe under zero padding."""
    b = GraphBuilder(f"mlp_{seq_len}")
    x = b.input((seq_len, 16), name="x")
    w1 = b.weight((16, 32), name="w1")
    w2 = b.weight((32, 8), name="w2")
    return b.build([b.matmul(b.relu(b.matmul(x, w1)), w2)])


@pytest.fixture()
def dispatcher():
    return ShapeDispatcher(
        mlp_builder, buckets=[8, 16, 32], dynamic_inputs=["x"], level=2
    )


def feeds_for(seq_len, rng):
    return {
        "x": rng.standard_normal((seq_len, 16)),
        "w1": rng.standard_normal((16, 32)),
        "w2": rng.standard_normal((32, 8)),
    }


class TestSelection:
    def test_exact_bucket(self, dispatcher):
        assert dispatcher.select_bucket(16) == 16

    def test_rounds_up(self, dispatcher):
        assert dispatcher.select_bucket(9) == 16

    def test_too_large_rejected(self, dispatcher):
        with pytest.raises(ExecutionError):
            dispatcher.select_bucket(64)

    def test_buckets_deduplicated_sorted(self):
        d = ShapeDispatcher(mlp_builder, [32, 8, 8], ["x"], level=0)
        assert d.buckets == [8, 32]

    def test_empty_buckets_rejected(self):
        with pytest.raises(ExecutionError):
            ShapeDispatcher(mlp_builder, [], ["x"])


class TestExecution:
    def test_exact_shape_runs_unpadded(self, dispatcher):
        rng = np.random.default_rng(0)
        (out,) = dispatcher.run(feeds_for(16, rng))
        assert out.shape == (16, 8)
        assert dispatcher.history[-1].padded is False

    def test_padded_shape_matches_direct_compile(self, dispatcher):
        rng = np.random.default_rng(1)
        feeds = feeds_for(11, rng)
        (out,) = dispatcher.run(feeds)
        assert out.shape == (11, 8)
        assert dispatcher.history[-1].bucket == 16

        # Reference: the same weights on an exactly-sized model.
        ref = feeds["x"] @ feeds["w1"]
        ref = np.maximum(ref, 0) @ feeds["w2"]
        assert np.allclose(out, ref, atol=1e-8)

    def test_modules_cached_per_bucket(self, dispatcher):
        rng = np.random.default_rng(2)
        dispatcher.run(feeds_for(7, rng))
        dispatcher.run(feeds_for(8, rng))
        dispatcher.run(feeds_for(30, rng))
        assert dispatcher.compiled_buckets == [8, 32]

    def test_compile_all_warms_every_bucket(self, dispatcher):
        dispatcher.compile_all()
        assert dispatcher.compiled_buckets == [8, 16, 32]

    def test_missing_dynamic_input_rejected(self, dispatcher):
        with pytest.raises(ExecutionError):
            dispatcher.run({"w1": np.zeros((16, 32))})


class TestPlanReuse:
    """Padded-bucket runs must replay the bucket's cached execution plan —
    planning happens once per bucket, not once per request."""

    def test_repeated_padded_runs_reuse_plan(self, dispatcher):
        from repro.runtime.executor import ExecutionPlan

        rng = np.random.default_rng(3)
        dispatcher.run(feeds_for(11, rng))  # pads 11 -> bucket 16
        module = dispatcher.module_for(16)
        plan = module.session.plan
        built = ExecutionPlan.plans_built
        for seq_len in (9, 13, 16, 10):  # all land in bucket 16
            dispatcher.run(feeds_for(seq_len, rng))
        assert module.session.plan is plan
        assert ExecutionPlan.plans_built == built  # no re-planning
        assert module.session.arena_state.request_count == 5
        assert module.session.arena_state.arenas_allocated == 1

    def test_each_bucket_gets_its_own_plan(self, dispatcher):
        rng = np.random.default_rng(4)
        dispatcher.run(feeds_for(7, rng))
        dispatcher.run(feeds_for(30, rng))
        small = dispatcher.module_for(8).session.plan
        large = dispatcher.module_for(32).session.plan
        assert small is not large
        assert small.program is not large.program

    def test_batch_groups_by_bucket_and_preserves_order(self, dispatcher):
        """run_batch routes each request to its shape bucket, replays every
        bucket group through one batched plan, and returns results in
        submission order, bit-identical to per-request run calls."""
        rng = np.random.default_rng(6)
        sizes = [7, 30, 11, 8, 25, 16, 5]
        requests = [feeds_for(s, rng) for s in sizes]
        expected = [dispatcher.run(feeds) for feeds in requests]
        dispatcher.history.clear()
        batched = dispatcher.run_batch(requests)
        assert len(batched) == len(requests)
        for want, got in zip(expected, batched):
            for a, b in zip(want, got):
                assert np.array_equal(a, b)
        # One history record per request, bucketed as run() would.
        assert [r.requested for r in dispatcher.history] != []
        by_req = {r.requested: r.bucket for r in dispatcher.history}
        assert by_req == {7: 8, 30: 32, 11: 16, 8: 8, 25: 32, 16: 16, 5: 8}
        # Shape-bucket groups replayed batched where more than one request
        # landed (7+8+5 -> bucket 8; 30+25 -> bucket 32; 11+16 -> bucket 16).
        for bucket in (8, 16, 32):
            state = dispatcher.module_for(bucket).session.arena_state
            assert state.batched_requests > 0

    def test_batch_of_one_uses_unbatched_path(self, dispatcher):
        rng = np.random.default_rng(7)
        feeds = feeds_for(9, rng)
        (batched,) = dispatcher.run_batch([feeds])
        (single,) = dispatcher.run(feeds)
        assert np.array_equal(batched[0], single)
        state = dispatcher.module_for(16).session.arena_state
        assert state.batches_executed == 0

    def test_empty_batch(self, dispatcher):
        assert dispatcher.run_batch([]) == []

    def test_padded_run_slices_outputs_back(self, dispatcher):
        """Plan execution happens at bucket shape; the caller still sees
        request-shaped outputs that match an exact-shape reference."""
        rng = np.random.default_rng(5)
        feeds = feeds_for(13, rng)
        (out,) = dispatcher.run(feeds)
        assert out.shape == (13, 8)
        assert dispatcher.history[-1].padded is True
        ref = np.maximum(feeds["x"] @ feeds["w1"], 0) @ feeds["w2"]
        assert np.allclose(out, ref, atol=1e-8)
        # The bucket module itself computed at the padded shape.
        bucket_out = dispatcher.module_for(16).program.outputs[0]
        assert bucket_out.shape[0] == 16
