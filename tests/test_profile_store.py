"""Tests for the persistent profile store and the measured cost model.

The store is the durability layer of profile-guided optimization: these
tests pin down the properties planning relies on — corruption and stale
formats recover to empty (never raise), concurrent writers merge without
losing rows, the EMA folds repeated measurements stably, and the cost
model degrades to static behaviour whenever a measurement is missing.
"""

import json
import multiprocessing
import os

import pytest

from repro.runtime.cost_model import (
    DEFAULT_BYTE_SECONDS,
    CostModel,
)
from repro.runtime.profile_store import (
    EMA_ALPHA,
    PROFILE_FORMAT_VERSION,
    ProfileSample,
    ProfileStore,
    resolve_profile_store,
    samples_from_steps,
    tiled_variant,
)

HASH = "a" * 64


def sample(key="s0", kind="map", seconds=1e-4, calls=4, **kw):
    return ProfileSample(
        step_key=key, kind=kind, seconds=seconds, calls=calls, **kw
    )


class TestRowsRoundtrip:
    def test_memory_record_load(self):
        store = ProfileStore(None)
        store.record(HASH, 1, [sample()])
        rows = store.load(HASH, 1)
        assert rows["s0"].variants["map"].seconds == pytest.approx(1e-4)
        assert rows["s0"].variants["map"].calls == 4

    def test_disk_record_load(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.record(HASH, 1, [sample(bytes=128, flops=256)])
        fresh = ProfileStore(str(tmp_path))  # new instance, same directory
        rows = fresh.load(HASH, 1)
        assert rows["s0"].variants["map"].bytes == 128
        assert rows["s0"].variants["map"].flops == 256

    def test_buckets_are_independent(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.record(HASH, 1, [sample(key="lane1")])
        store.record(HASH, 4, [sample(key="lane4")])
        assert set(store.load(HASH, 1)) == {"lane1"}
        assert set(store.load(HASH, 4)) == {"lane4"}

    def test_tiled_samples_get_block_variant_labels(self):
        store = ProfileStore(None)
        store.record(HASH, 1, [
            sample(kind="tiled", block_rows=8, seconds=2e-4),
            sample(kind="tiled", block_rows=16, seconds=1e-4),
        ])
        variants = store.load(HASH, 1)["s0"].variants
        assert set(variants) == {tiled_variant(8), tiled_variant(16)}
        assert variants["tiled@8"].block_rows == 8

    def test_empty_and_zero_call_samples_are_dropped(self):
        store = ProfileStore(None)
        store.record(HASH, 1, [
            sample(key=""), sample(calls=0), sample(key="kept"),
        ])
        assert set(store.load(HASH, 1)) == {"kept"}


class TestEmaMerge:
    def test_second_flush_ema_merges(self):
        store = ProfileStore(None)
        store.record(HASH, 1, [sample(seconds=1e-4, calls=3)])
        store.record(HASH, 1, [sample(seconds=2e-4, calls=5)])
        got = store.load(HASH, 1)["s0"].variants["map"]
        want = (1.0 - EMA_ALPHA) * 1e-4 + EMA_ALPHA * 2e-4
        assert got.seconds == pytest.approx(want)
        assert got.calls == 8

    def test_one_noisy_run_cannot_flip_the_row(self):
        """EMA keeps the incoming weight below half."""
        store = ProfileStore(None)
        store.record(HASH, 1, [sample(seconds=1e-4)])
        store.record(HASH, 1, [sample(seconds=1e-2)])  # 100x outlier
        got = store.load(HASH, 1)["s0"].variants["map"].seconds
        assert got < 0.5 * 1e-2

    def test_same_flush_pools_mean_of_means(self):
        """Structurally identical layers pool before the EMA."""
        store = ProfileStore(None)
        store.record(HASH, 1, [
            sample(seconds=1e-4, calls=2), sample(seconds=3e-4, calls=2),
        ])
        got = store.load(HASH, 1)["s0"].variants["map"]
        assert got.seconds == pytest.approx(2e-4)
        assert got.calls == 4


class TestCorruptionRecovery:
    def _rows_path(self, store):
        key = ProfileStore.bucket_key(HASH, 1)
        return store._rows_path(key)

    def test_garbage_json_recovers_to_empty(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.record(HASH, 1, [sample()])
        path = self._rows_path(store)
        with open(path, "w") as handle:
            handle.write("{not json at all")
        assert store.load(HASH, 1) == {}
        assert store.stats.load_errors == 1
        assert not os.path.exists(path)  # quarantined, not left to re-fail

    def test_version_mismatch_invalidates(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.record(HASH, 1, [sample()])
        path = self._rows_path(store)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["version"] = PROFILE_FORMAT_VERSION + 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert store.load(HASH, 1) == {}
        assert store.stats.load_errors == 1
        assert not os.path.exists(path)

    def test_wrong_key_or_format_invalidates(self, tmp_path):
        for field, value in (("key", "0" * 64), ("format", "other")):
            store = ProfileStore(str(tmp_path / field))
            store.record(HASH, 1, [sample()])
            path = self._rows_path(store)
            with open(path) as handle:
                envelope = json.load(handle)
            envelope[field] = value
            with open(path, "w") as handle:
                json.dump(envelope, handle)
            assert store.load(HASH, 1) == {}
            assert store.stats.load_errors == 1

    def test_malformed_row_payload_recovers(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.record(HASH, 1, [sample()])
        path = self._rows_path(store)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["payload"]["rows"] = {"s0": {"map": {"seconds": "nan?"}}}
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert store.load(HASH, 1) == {}
        assert store.stats.load_errors == 1

    def test_recovered_bucket_accepts_fresh_rows(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.record(HASH, 1, [sample()])
        with open(self._rows_path(store), "w") as handle:
            handle.write("garbage")
        store.load(HASH, 1)
        store.record(HASH, 1, [sample(seconds=5e-4)])
        got = store.load(HASH, 1)["s0"].variants["map"]
        assert got.seconds == pytest.approx(5e-4)  # fresh, not EMA-merged

    def test_unwritable_directory_never_raises(self):
        store = ProfileStore("/proc/definitely/not/writable")
        store.record(HASH, 1, [sample()])
        assert store.stats.store_errors == 1
        assert store.load(HASH, 1) == {}


def _record_worker(directory, step_key):
    store = ProfileStore(directory)
    for _ in range(20):
        store.record(HASH, 1, [
            ProfileSample(step_key=step_key, kind="map",
                          seconds=1e-4, calls=1),
            ProfileSample(step_key="shared", kind="map",
                          seconds=1e-4, calls=1),
        ])


class TestCrossProcessMerge:
    def test_two_stores_same_bucket_keep_both_rows(self, tmp_path):
        a = ProfileStore(str(tmp_path))
        b = ProfileStore(str(tmp_path))
        a.record(HASH, 1, [sample(key="from_a")])
        b.record(HASH, 1, [sample(key="from_b")])
        assert set(ProfileStore(str(tmp_path)).load(HASH, 1)) == {
            "from_a", "from_b",
        }

    def test_concurrent_processes_lose_no_rows(self, tmp_path):
        """flock read-merge-write: concurrent writers both land."""
        procs = [
            multiprocessing.Process(
                target=_record_worker, args=(str(tmp_path), f"proc{i}")
            )
            for i in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        rows = ProfileStore(str(tmp_path)).load(HASH, 1)
        assert set(rows) == {"proc0", "proc1", "proc2", "shared"}
        # Every one of the 3x20 shared flushes was folded in.
        assert rows["shared"].variants["map"].calls == 60


class TestVerdicts:
    def test_disk_roundtrip(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        path = store.save_verdict(HASH, 1, {"adopted": True, "speedup": 1.3})
        assert path is not None and os.path.exists(path)
        assert store.load_verdict(HASH, 1)["speedup"] == 1.3

    def test_memory_roundtrip(self):
        store = ProfileStore(None)
        assert store.save_verdict(HASH, 1, {"adopted": False}) is None
        assert store.load_verdict(HASH, 1) == {"adopted": False}

    def test_corrupt_verdict_reads_none(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        path = store.save_verdict(HASH, 1, {"adopted": True})
        with open(path, "w") as handle:
            handle.write("][")
        assert store.load_verdict(HASH, 1) is None


class TestResolve:
    def test_false_forces_memory(self):
        assert resolve_profile_store(False).directory is None

    def test_path_roots_store(self, tmp_path):
        assert resolve_profile_store(str(tmp_path)).directory == str(tmp_path)

    def test_instance_passthrough(self):
        store = ProfileStore(None)
        assert resolve_profile_store(store) is store

    def test_none_honours_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        resolved = resolve_profile_store(None)
        assert resolved.directory == os.path.join(str(tmp_path), "profiles")

    def test_none_without_cache_dir_is_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_profile_store(None).directory is None


class _FakeStep:
    def __init__(self, step_key, kind="map", cost_features=(64, 128),
                 block_rows=0):
        self.step_key = step_key
        self.kind = kind
        self.cost_features = cost_features
        self.block_rows = block_rows


class TestSamplesFromSteps:
    def test_totals_become_per_call_means(self):
        steps = [_FakeStep("s0"), _FakeStep("s1")]
        out = samples_from_steps(steps, [4e-4, 8e-4], calls=4)
        assert [s.seconds for s in out] == pytest.approx([1e-4, 2e-4])
        assert all(s.calls == 4 for s in out)

    def test_zero_calls_or_keyless_steps_drop(self):
        assert samples_from_steps([_FakeStep("s0")], [1e-4], calls=0) == []
        assert samples_from_steps([_FakeStep("")], [1e-4], calls=1) == []

    def test_features_scale_by_lanes(self):
        out = samples_from_steps(
            [_FakeStep("s0", cost_features=(10, 20))], [1e-4],
            calls=1, lanes=4,
        )
        assert (out[0].bytes, out[0].flops) == (40, 80)


def model_with(rows_spec, lanes=1):
    """Build a CostModel from {step_key: [(kind, seconds, bytes, flops)]}."""
    store = ProfileStore(None)
    samples = [
        ProfileSample(step_key=key, kind=kind, seconds=sec, calls=8,
                      bytes=b, flops=f)
        for key, variants in rows_spec.items()
        for kind, sec, b, f in variants
    ]
    store.record(HASH, lanes, samples)
    return CostModel.from_store(store, HASH, lanes)


class TestCostModel:
    def test_empty_model_has_no_measurements(self):
        model = CostModel({})
        assert not model.has_measurements()
        assert model.measured_seconds("s0") is None

    def test_measured_prefers_exact_variant_else_fastest(self):
        model = model_with({"s0": [
            ("einsum", 4e-4, 0, 0), ("matmul", 1e-4, 0, 0),
        ]})
        assert model.measured_seconds("s0", "einsum") == pytest.approx(4e-4)
        assert model.measured_seconds("s0", "fused") == pytest.approx(1e-4)

    def test_prefer_matmul_needs_both_variants(self):
        both = model_with({"s0": [
            ("einsum", 4e-4, 0, 0), ("matmul", 1e-4, 0, 0),
        ]})
        assert both.prefer_matmul("s0") is True
        only = model_with({"s0": [("einsum", 4e-4, 0, 0)]})
        assert only.prefer_matmul("s0") is None

    def test_fit_recovers_a_linear_law(self):
        """seconds = 2us + 1e-9*bytes over well-spread rows."""
        spec = {
            f"s{i}": [("map", 2e-6 + 1e-9 * b, b, 0)]
            for i, b in enumerate((0, 10_000, 40_000, 160_000, 640_000))
        }
        model = model_with(spec)
        got = model.estimate_features(100_000, 0)
        assert got == pytest.approx(2e-6 + 1e-9 * 100_000, rel=0.2)

    def test_unmeasured_step_uses_fitted_fallback(self):
        model = model_with({"s0": [("map", 1e-4, 64, 0)]})
        est = model.estimate(_FakeStep("unseen", cost_features=(64, 0)))
        assert est > 0.0

    def test_duplication_clamps_degenerate_byte_rate(self):
        """A dispatch-bound step must never qualify for duplication, even
        when the fitted byte coefficient is inflated by a degenerate fit."""
        model = model_with({"s0": [("map", 5e-6, 1024, 0)]})
        assert model._coef[1] >= DEFAULT_BYTE_SECONDS
        assert not model.duplication_profitable("s0", out_bytes=1024,
                                                consumers=3)

    def test_duplication_pays_only_for_write_dominated_steps(self):
        # 1ns claimed compute vs a 10MB elided write: the only shape that
        # legitimately qualifies.
        model = model_with({"s0": [("map", 1e-9, 10_000_000, 0)]})
        assert model.duplication_profitable(
            "s0", out_bytes=10_000_000, consumers=2
        )

    def test_tiled_variants_keyed_by_block_rows(self):
        store = ProfileStore(None)
        store.record(HASH, 1, [
            sample(key="chain", kind="tiled", block_rows=8, seconds=2e-4),
            sample(key="chain", kind="tiled", block_rows=16, seconds=1e-4),
            sample(key="chain", kind="map", seconds=9e-4),  # untiled: excluded
        ])
        model = CostModel.from_store(store, HASH, 1)
        assert model.tiled_variants("chain") == {
            8: pytest.approx(2e-4), 16: pytest.approx(1e-4),
        }
        assert model.tiled_variants("absent") == {}
