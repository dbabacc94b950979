"""Tests for the ``repro tune`` A/B harness and its safety gates.

The tuner's contract is that *no* cost model — however wrong — can change
what a plan computes or get a slower plan adopted: identity and
certification gate before timing, and timing gates before adoption. These
tests drive the loop end to end on tiny models, including a deliberately
poisoned cost model that steers the planner into a harmful duplication.
"""

import numpy as np
import pytest

from repro.cache.keys import program_profile_key
from repro.errors import PlanningError
from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime import tuner
from repro.runtime.cost_model import CostModel
from repro.runtime.executor import ExecutionPlan
from repro.runtime.profile_store import ProfileStore
from repro.runtime.session import InferenceSession
from repro.runtime.tuner import TuneReport, collect_profiles, tune
from repro.transform import random_feeds


@pytest.fixture(scope="module")
def mmoe():
    return lower_graph(TINY_MODELS["mmoe"]())


@pytest.fixture(scope="module")
def measured_store(mmoe):
    """One collected bucket, shared read-only across the module's tests."""
    store = ProfileStore(None)
    samples = collect_profiles(mmoe, store, runs=1)
    return store, samples


def poisoned_model(store, program_hash):
    """A cost model that claims every measured step costs one nanosecond.

    That lie makes every duplication candidate look free to recompute, so
    the planner inlines multi-consumer maps — a legal transform that
    measures *slower* (the recompute is not actually free). The harness
    must absorb the bad advice: bit-identity and certification still hold,
    and the timing gate refuses the plan.
    """
    rows = store.load(program_hash, 1)
    for row in rows.values():
        for variant in row.variants.values():
            variant.seconds = 1e-9
    return CostModel(rows, 1)


class TestCollect:
    def test_collect_populates_the_bucket(self, mmoe, measured_store):
        store, samples = measured_store
        assert samples > 0
        model = CostModel.from_store(store, program_profile_key(mmoe), 1)
        assert model.has_measurements()

    def test_collect_measures_tiled_and_untiled_variants(self):
        """Both plan variants feed one bucket so the tiling pass can
        compare a chain's blocked cost against its untiled cost. A tight
        tile budget forces chains to actually tile (mmoe's default-budget
        plan has none)."""
        program = lower_graph(TINY_MODELS["bert"]())
        store = ProfileStore(None)
        collect_profiles(program, store, runs=1, tile_budget=2048)
        rows = store.load(program_profile_key(program), 1)
        labels = {
            label for row in rows.values() for label in row.variants
        }
        assert any(label.startswith("tiled@") for label in labels)
        assert any(not label.startswith("tiled@") for label in labels)


class TestEmptyStoreIsStatic:
    def test_empty_model_short_circuits(self, mmoe):
        report = tune(
            mmoe, name="mmoe", store=False,
            cost_model=CostModel({}), reps=1,
        )
        assert not report.adopted
        assert report.bit_identical  # vacuously: the plans are the same plan
        assert "planning unchanged" in report.reason
        assert report.rows == 0 and report.timing_reps == 0

    def test_empty_model_plans_bit_for_bit_static(self, mmoe):
        """optimize_plan nulls a measurement-free model before any pass."""
        static = ExecutionPlan(mmoe, optimize=True)
        tuned = ExecutionPlan(mmoe, optimize=True, cost_model=CostModel({}))
        s, t = static.optimization.stats, tuned.optimization.stats
        assert not t.tuned
        assert (s.steps_after, s.fused_steps, s.parallel_waves) == (
            t.steps_after, t.fused_steps, t.parallel_waves
        )
        feeds = random_feeds(mmoe, seed=0)
        for a, b in zip(
            InferenceSession(mmoe, plan=static).run(feeds),
            InferenceSession(mmoe, plan=tuned).run(feeds),
        ):
            assert np.array_equal(a, b)


class TestGates:
    def test_zero_threshold_adopts_through_all_gates(self, mmoe):
        store = ProfileStore(None)
        report = tune(
            mmoe, name="mmoe", store=store, runs=1, reps=3, threshold=0.0,
        )
        assert report.adopted
        assert report.bit_identical and report.certified
        assert report.refuted == 0 and report.unknown == 0
        assert report.speedup > 0.0
        assert report.tuned_stats.tuned
        # The verdict persisted next to the rows, scalars only.
        verdict = store.load_verdict(report.program_hash, 1)
        assert verdict["adopted"] is True
        assert verdict == report.to_json()

    def test_unreachable_threshold_auto_rejects(self, mmoe, measured_store):
        store, _ = measured_store
        model = CostModel.from_store(store, program_profile_key(mmoe), 1)
        report = tune(
            mmoe, name="mmoe", store=False, cost_model=model,
            reps=1, threshold=1e9,
        )
        assert not report.adopted
        assert report.reason.startswith("auto-reject")
        assert report.bit_identical and report.certified

    def test_poisoned_cost_model_is_rejected(self, mmoe, measured_store):
        """The central safety claim: a wrong model changes the plan but
        cannot corrupt outputs, dodge certification, or get adopted."""
        store, _ = measured_store
        bad = poisoned_model(store, program_profile_key(mmoe))
        report = tune(
            mmoe, name="mmoe", store=False, cost_model=bad, reps=5,
        )
        # The lie reached the planner: harmful duplications were planned.
        assert report.tuned_stats.duplicated_maps > 0
        # ...but the gates held.
        assert report.bit_identical
        assert report.certified and report.refuted == 0
        assert not report.adopted
        assert report.reason.startswith("auto-reject")

    def test_unplannable_program_reports_not_runnable(
        self, mmoe, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise PlanningError("injected")

        monkeypatch.setattr(tuner, "ExecutionPlan", boom)
        report = tune(mmoe, name="mmoe", store=False, reps=1)
        assert not report.runnable and not report.adopted
        assert "not functionally executable" in report.reason


class TestDurableIdentity:
    """Satellite: profile keys survive renames (content, not names)."""

    @staticmethod
    def _mlp(names):
        b = GraphBuilder("m")
        x = b.input((8, 16), name=names[0])
        w = b.weight((16, 16), name=names[1])
        y = b.relu(b.matmul(x, w), name=names[2])
        return lower_graph(b.build([y]))

    def test_program_key_ignores_names(self):
        a = self._mlp(("x", "w", "act"))
        b = self._mlp(("input_ids", "dense_kernel", "hidden"))
        assert program_profile_key(a) == program_profile_key(b)

    def test_step_keys_survive_renames(self):
        a = ExecutionPlan(self._mlp(("x", "w", "act")), optimize=True)
        b = ExecutionPlan(
            self._mlp(("input_ids", "dense_kernel", "hidden")), optimize=True
        )
        keys_a = [s.step_key for s in a.steps]
        keys_b = [s.step_key for s in b.steps]
        assert keys_a == keys_b
        # Rows recorded under one naming are visible to the other.
        store = ProfileStore(None)
        collect_profiles(a.program, store, runs=1)
        model = CostModel.from_store(
            store, program_profile_key(b.program), 1
        )
        assert any(
            model.measured_seconds(key) is not None for key in keys_b
        )


class TestReport:
    def test_json_payload_is_scalar_only(self):
        report = TuneReport(model="m", program_hash="h" * 64)
        payload = report.to_json()
        assert all(
            isinstance(v, (bool, int, float, str)) for v in payload.values()
        )
        assert "static_stats" not in payload

    def test_render_mentions_verdict_and_certificates(self):
        report = TuneReport(
            model="m", program_hash="h" * 64, adopted=True,
            reason="tuned plan 1.30x vs static", proved=5,
        )
        text = report.render()
        assert "ADOPTED" in text and "5 proved" in text
