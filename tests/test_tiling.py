"""Tests for block-level tiling of reduction chains (runtime.tiling).

Three layers of assurance, mirroring the repo's testing doctrine:

* **Property**: tiling any eligible chain at any block size is bit-identical
  to the untiled plan on all six tiny models, unbatched and batched — the
  fp-accumulation-order invariant (blocks partition the row axis only) made
  falsifiable.
* **Mutation**: a seeded wrong block boundary is caught by the partition
  validator, and — with the validator bypassed — by the bit-identity
  oracle; a seeded scratch-block aliasing bug is caught by the verifier's
  arena-hazard pass. The safety nets trip, deterministically.
* **Integration**: tiled sub-steps flow through plan replay, the
  profiler folds per-block rows, and the stats/report plumbing counts
  tiled chains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanningError
from repro.graph import lower_graph
from repro.models import TINY_MODELS
from repro.runtime import tiling
from repro.runtime.executor import BatchedExecutionPlan, ExecutionPlan
from repro.runtime.plan_opt import optimize_plan, plan_optimization
from repro.runtime.tiling import (
    ScratchPool,
    TiledStepGroup,
    validate_partition,
)
from repro.transform import random_feeds
from repro.verify import Severity, verify_plan

# Models whose lowerings contain tileable map->reduce->map chains (softmax
# and layernorm); the other four models must pass through unchanged.
CHAIN_MODELS = ("bert", "swin")


def program_for(name):
    return lower_graph(TINY_MODELS[name]())


def optimized(program, batch_size=None, **passes):
    """An optimized plan whose static passes run with ``passes``: the
    pass-isolation flags of ``plan_optimization`` (``tile=False``, a
    forced ``tile_block_rows``, a small ``tile_budget``)."""
    plan = (
        ExecutionPlan(program) if batch_size is None
        else BatchedExecutionPlan(program, batch_size)
    )
    optimize_plan(
        plan, plan_optimization(program, batch_size=batch_size, **passes)
    )
    return plan


def assert_outputs_equal(got, want, context):
    assert len(got) == len(want), context
    for g, w in zip(got, want):
        assert g.shape == w.shape, context
        assert np.array_equal(g, w), context


# ---- property: bit-identity at any block size --------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    @settings(max_examples=6, deadline=None)
    @given(block_rows=st.integers(min_value=1, max_value=6))
    def test_any_block_size_matches_untiled(self, name, block_rows):
        program = program_for(name)
        feeds = random_feeds(program, seed=13)
        want = optimized(program, tile=False).run(feeds)
        plan = optimized(program, tile_block_rows=block_rows)
        assert_outputs_equal(
            plan.run(feeds), want, f"{name} blk={block_rows}"
        )

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    @settings(max_examples=4, deadline=None)
    @given(block_rows=st.integers(min_value=1, max_value=6))
    def test_batched_any_block_size_matches_untiled(self, name, block_rows):
        program = program_for(name)
        requests = [random_feeds(program, seed=17 + i) for i in range(4)]
        want = optimized(program, 4, tile=False).run_batch(requests)
        got = optimized(
            program, 4, tile_block_rows=block_rows
        ).run_batch(requests)
        for lane_want, lane_got in zip(want, got):
            assert_outputs_equal(
                lane_got, lane_want, f"{name} blk={block_rows}"
            )

    @pytest.mark.parametrize("name", sorted(TINY_MODELS))
    def test_replay_is_stable(self, name):
        """Scratch reuse across requests must not leak state."""
        program = program_for(name)
        plan = optimized(program, tile_block_rows=2)
        feeds = random_feeds(program, seed=23)
        first = plan.run(feeds)
        for _ in range(3):
            assert_outputs_equal(plan.run(feeds), first, name)


# ---- detection ---------------------------------------------------------------


class TestDetection:
    def test_chain_models_tile(self):
        for name in CHAIN_MODELS:
            plan = optimized(program_for(name), tile_block_rows=1)
            chains = plan.optimization.tiled_chains
            assert chains, name
            for c in chains:
                assert len(c.groups) >= 2
                assert c.num_blocks >= 2
                validate_partition(c.rows, c.block_ranges)
                # Internalised members live in scratch, the terminal in
                # the arena; scratch offsets are disjoint by construction.
                assert id(c.terminal.tensor) not in c.scratch_offsets
                spans = sorted(c.scratch_offsets.values())
                for (a_off, a_n), (b_off, _) in zip(spans, spans[1:]):
                    assert a_off + a_n <= b_off

    def test_tile_off_disables_the_pass(self):
        for name in CHAIN_MODELS:
            opt = plan_optimization(program_for(name), tile=False)
            assert opt.tiled_chains == []
            assert opt.stats.tiled_chains == 0

    def test_auto_gate_skips_cache_resident_models(self):
        """Tiny working sets sit far under the default budget: the
        footprint model must reject tiling as pure overhead."""
        for name in sorted(TINY_MODELS):
            plan = ExecutionPlan(program_for(name), optimize=True)
            assert plan.optimization.tiled_chains == [], name

    def test_small_budget_forces_auto_tiling(self):
        program = program_for("bert")
        opt = plan_optimization(program, tile_budget=512)
        assert opt.stats.tiled_chains > 0
        assert opt.stats.scratch_bytes > 0
        feeds = random_feeds(program, seed=3)
        want = optimized(program, tile=False).run(feeds)
        plan = optimized(program, tile_budget=512)
        assert plan.optimization.tiled_chains
        assert_outputs_equal(plan.run(feeds), want, "bert budget=512")

    def test_tiled_groups_carry_block_names(self):
        plan = optimized(program_for("bert"), tile_block_rows=2)
        tiled = [g for g in plan.optimization.groups
                 if isinstance(g, TiledStepGroup)]
        assert tiled
        for g in tiled:
            assert f"[blk {g.block_index + 1}/{g.chain.num_blocks}]" \
                in g.name
        # Positions stay a dense 0..n-1 renumbering (serial replay order).
        positions = [g.position for g in plan.optimization.groups]
        assert positions == list(range(len(positions)))

    def test_stats_report_tiling(self):
        plan = optimized(program_for("bert"), tile_block_rows=2)
        stats = plan.optimization.stats
        assert stats.tiled_chains == 4
        assert stats.tiled_blocks == sum(
            c.num_blocks for c in plan.optimization.tiled_chains
        )
        assert "chains tiled" in stats.summary()
        assert "tiled chains:" in stats.render(plan.workspace_bytes)
        untiled = plan_optimization(program_for("bert"), tile=False).stats
        assert "chains tiled" not in untiled.summary()


# ---- mutation: wrong block boundary ------------------------------------------


class TestWrongBlockBoundary:
    def test_partition_validator_rejects_gap(self, monkeypatch):
        real = tiling._block_ranges

        def gapped(rows, block_rows):
            return real(rows, block_rows)[:-1]

        monkeypatch.setattr(tiling, "_block_ranges", gapped)
        with pytest.raises(PlanningError, match="partition|cover"):
            optimized(program_for("bert"), tile_block_rows=2)

    def test_partition_validator_rejects_overlap(self, monkeypatch):
        real = tiling._block_ranges

        def overlapped(rows, block_rows):
            ranges = real(rows, block_rows)
            lo, hi = ranges[-1]
            ranges[-1] = (max(0, lo - 1), hi)
            return ranges

        monkeypatch.setattr(tiling, "_block_ranges", overlapped)
        with pytest.raises(PlanningError, match="partition"):
            optimized(program_for("bert"), tile_block_rows=2)

    def test_oracle_catches_gap_when_validation_bypassed(self, monkeypatch):
        """Defence in depth: with the validator stubbed out, the seeded
        gap leaves output rows uncomputed and the differential bit-identity
        oracle must observe the mismatch."""
        program = program_for("bert")
        feeds = random_feeds(program, seed=29)
        want = optimized(program, tile=False).run(feeds)

        real = tiling._block_ranges

        def gapped(rows, block_rows):
            return real(rows, block_rows)[:-1]

        monkeypatch.setattr(tiling, "_block_ranges", gapped)
        monkeypatch.setattr(tiling, "validate_partition",
                            lambda rows, ranges: None)
        plan = optimized(program, tile_block_rows=2)
        assert plan.optimization.tiled_chains  # the mutant did tile
        got = plan.run(feeds)
        assert any(
            not np.array_equal(g, w) for g, w in zip(got, want)
        ), "bit-identity oracle failed to catch a seeded partition gap"


# ---- mutation: scratch-block aliasing ----------------------------------------


class TestScratchAliasing:
    def build(self):
        plan = optimized(program_for("bert"), tile_block_rows=2)
        opt = plan.optimization
        assert opt.memory_plan.scratch_chains
        return plan, opt

    def errors(self, plan, opt):
        report = verify_plan(
            opt.step_view, opt.memory_plan, sizer=plan._sizer,
            require_exclusive_writes=True, inplace=opt.inplace_pairs,
        )
        return [d for d in report.diagnostics
                if d.severity is Severity.ERROR]

    def test_clean_layout_passes(self):
        plan, opt = self.build()
        assert self.errors(plan, opt) == []

    def test_overlapping_scratch_blocks_are_caught(self):
        plan, opt = self.build()
        chain_id, entries = next(iter(opt.memory_plan.scratch_chains.items()))
        assert len(entries) >= 2, "chain must have >= 2 scratch blocks"
        name, _, nbytes = entries[1]
        # Slide the second block onto the first: classic aliasing bug.
        entries[1] = (name, entries[0][1], nbytes)
        errs = self.errors(plan, opt)
        assert errs, "hazard pass missed overlapping scratch blocks"
        assert any("alias" in d.message for d in errs)

    def test_out_of_bounds_scratch_block_is_caught(self):
        plan, opt = self.build()
        chain_id, entries = next(iter(opt.memory_plan.scratch_chains.items()))
        name, offset, nbytes = entries[0]
        entries[0] = (name, opt.memory_plan.scratch_bytes, nbytes)
        errs = self.errors(plan, opt)
        assert errs, "hazard pass missed an out-of-range scratch block"
        assert any("exceeds" in d.message for d in errs)


# ---- profiler ----------------------------------------------------------------


class TestProfiler:
    def test_tiled_rows_fold_into_one(self):
        from repro.runtime.profiler import StepTiming, aggregate_tiled_steps

        steps = [
            StepTiming(0, "dense", "matmul", 4, 0.4),
            StepTiming(1, "a+b+softmax[blk 1/3]", "tiled", 4, 0.1),
            StepTiming(2, "a+b+softmax[blk 2/3]", "tiled", 4, 0.2),
            StepTiming(3, "a+b+softmax[blk 3/3]", "tiled", 4, 0.3),
        ]
        folded = aggregate_tiled_steps(steps)
        assert [s.name for s in folded] == [
            "dense", "a+b+softmax[blk x3]"
        ]
        agg = folded[1]
        assert agg.total_seconds == pytest.approx(0.6)
        # Originals are untouched (render must be repeatable).
        assert steps[1].total_seconds == pytest.approx(0.1)

    def test_session_report_renders_folded_blocks(self):
        from repro.runtime.session import InferenceSession

        program = program_for("bert")
        plan = optimized(program, tile_block_rows=2)
        session = InferenceSession(program, plan=plan, profile=True)
        feeds = random_feeds(program, seed=37)
        for _ in range(2):
            session.run(feeds)
        text = session.profile_report().render(top=100)
        assert "[blk x" in text
        assert "[blk 1/" not in text
        # The dynamic-width table stays rectangular despite long names.
        rows = [l for l in text.splitlines() if "[blk x" in l]
        assert rows and all(len(r.split()) >= 5 for r in rows)


# ---- scratch pool ------------------------------------------------------------


class TestScratchPool:
    def test_buffers_are_recycled(self):
        pool = ScratchPool(1024)
        a = pool.acquire()
        pool.release(a)
        b = pool.acquire()
        assert b is a
        assert pool.allocated == 1

    def test_concurrent_checkout_allocates_fresh(self):
        pool = ScratchPool(1024)
        a, b = pool.acquire(), pool.acquire()
        assert a is not b
        assert pool.allocated == 2

    def test_steady_state_serving_allocates_nothing_new(self):
        program = program_for("bert")
        plan = optimized(program, tile_block_rows=2)
        feeds = random_feeds(program, seed=41)
        plan.run(feeds)
        allocated = plan._scratch_pool.allocated
        for _ in range(3):
            plan.run(feeds)
        assert plan._scratch_pool.allocated == allocated
