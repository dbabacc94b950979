"""The persistent compile cache (``repro.cache``): key stability,
persistence round-trips, LRU eviction and corruption recovery."""

import json
import os

import pytest

from repro import SouffleOptions, a100_40gb, v100_16gb
from repro.cache import (
    CompileCache,
    JsonStore,
    ScheduleCache,
    module_cache_key,
    resolve_compile_cache,
    schedule_cache_key,
    schedule_context,
    schedule_from_record,
    schedule_to_record,
    structure_key,
)
from repro.errors import ScheduleError
from repro.graph import GraphBuilder, lower_graph
from repro.schedule.ansor import AnsorScheduler


def small_program(rows=4, cols=8, out=6, dtype="float32", name="cached"):
    builder = GraphBuilder(name)
    x = builder.input((rows, cols), dtype=dtype, name="x")
    w = builder.weight((cols, out), dtype=dtype, name="w")
    y = builder.relu(builder.matmul(x, w))
    return lower_graph(builder.build([y]))


def matmul_node(program):
    return next(n for n in program if n.op_type == "matmul")


A100_CTX = schedule_context("AnsorScheduler", a100_40gb(), "V4")


class TestKeyStability:
    def test_same_structure_same_key(self):
        """Two independent lowerings of the same model address one entry."""
        a = matmul_node(small_program(name="first"))
        b = matmul_node(small_program(name="second"))
        assert structure_key(a) == structure_key(b)
        assert schedule_cache_key(A100_CTX, a) == schedule_cache_key(A100_CTX, b)

    def test_key_is_stable_hex_digest(self):
        key = schedule_cache_key(A100_CTX, matmul_node(small_program()))
        assert len(key) == 64
        int(key, 16)  # hex

    def test_different_shape_different_key(self):
        a = matmul_node(small_program(rows=4))
        b = matmul_node(small_program(rows=8))
        assert schedule_cache_key(A100_CTX, a) != schedule_cache_key(A100_CTX, b)

    def test_different_dtype_different_key(self):
        a = matmul_node(small_program(dtype="float32"))
        b = matmul_node(small_program(dtype="float16"))
        assert schedule_cache_key(A100_CTX, a) != schedule_cache_key(A100_CTX, b)

    def test_different_device_different_context(self):
        assert A100_CTX != schedule_context(
            "AnsorScheduler", v100_16gb(), "V4"
        )

    def test_different_options_different_context(self):
        assert A100_CTX != schedule_context(
            "AnsorScheduler", a100_40gb(), "V2"
        )

    def test_different_scheduler_different_context(self):
        assert A100_CTX != schedule_context(
            "RollerScheduler", a100_40gb(), "V4"
        )

    def test_module_key_separates_levels_and_devices(self):
        program = small_program()
        keys = {
            module_cache_key(program, a100_40gb(),
                             SouffleOptions.from_level(level), "AnsorScheduler")
            for level in range(5)
        }
        assert len(keys) == 5
        a100 = module_cache_key(program, a100_40gb(),
                                SouffleOptions.from_level(4), "AnsorScheduler")
        v100 = module_cache_key(program, v100_16gb(),
                                SouffleOptions.from_level(4), "AnsorScheduler")
        assert a100 != v100


class TestScheduleRoundTrip:
    def schedule(self):
        program = small_program()
        return AnsorScheduler(a100_40gb()).schedule(matmul_node(program))

    def test_record_survives_json(self):
        original = self.schedule()
        record = json.loads(json.dumps(schedule_to_record(original)))
        rebuilt = schedule_from_record(record, original.node)
        assert rebuilt.kind == original.kind
        assert rebuilt.tile == original.tile
        assert rebuilt.grid_blocks == original.grid_blocks
        assert rebuilt.threads_per_block == original.threads_per_block
        assert rebuilt.shared_mem_per_block == original.shared_mem_per_block
        assert rebuilt.regs_per_thread == original.regs_per_thread
        assert rebuilt.use_tensor_core == original.use_tensor_core
        assert rebuilt.load_bytes == original.load_bytes
        assert rebuilt.store_bytes == original.store_bytes
        assert [s.primitive for s in rebuilt.steps] == [
            s.primitive for s in original.steps
        ]

    def test_malformed_record_rejected(self):
        original = self.schedule()
        record = schedule_to_record(original)
        del record["tile"]
        with pytest.raises(ScheduleError):
            schedule_from_record(record, original.node)

    def test_persistence_round_trip(self, tmp_path):
        """A schedule stored by one cache instance is served by a fresh one
        (fresh process simulation: nothing shared but the directory)."""
        program = small_program()
        node = matmul_node(program)
        original = AnsorScheduler(a100_40gb()).schedule(node)
        key = schedule_cache_key(A100_CTX, node)

        writer = ScheduleCache(str(tmp_path))
        writer.store(key, original)
        assert writer.stats.stores == 1

        reader = ScheduleCache(str(tmp_path))
        rebuilt = reader.load(key, node)
        assert rebuilt is not None
        assert rebuilt.node is node  # re-targeted at the requesting TE
        assert rebuilt.grid_blocks == original.grid_blocks
        assert reader.stats.disk_hits == 1
        # Second load is served by the LRU front, not the disk.
        reader.load(key, node)
        assert reader.stats.memory_hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        node = matmul_node(small_program())
        assert cache.load("0" * 64, node) is None
        assert cache.stats.misses == 1


class TestJsonStore:
    def make(self, tmp_path, capacity=1024, version=1):
        return JsonStore(str(tmp_path), format_name="test-store",
                         version=version, capacity=capacity)

    def test_lru_eviction_bounds_memory(self, tmp_path):
        store = self.make(tmp_path, capacity=3)
        for index in range(6):
            store.put(f"{index:064d}", {"value": index})
        assert len(store) == 3
        assert store.stats.evictions == 3
        # Evicted entries stay on disk and reload on demand.
        payload = store.get(f"{0:064d}")
        assert payload == {"value": 0}
        assert store.stats.disk_hits == 1

    def test_lru_keeps_recently_used(self, tmp_path):
        store = JsonStore(None, format_name="test-store", version=1, capacity=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.get("a")              # refresh "a"
        store.put("c", {"v": 3})    # evicts "b", the least recently used
        assert "a" in store and "c" in store and "b" not in store

    def test_corrupted_file_recovered(self, tmp_path):
        store = self.make(tmp_path)
        store.put("deadbeef", {"v": 1})
        path = os.path.join(str(tmp_path), "de", "deadbeef.json")
        with open(path, "w") as handle:
            handle.write("{truncated")
        fresh = self.make(tmp_path)
        assert fresh.get("deadbeef") is None
        assert fresh.stats.load_errors == 1
        assert fresh.stats.misses == 1
        assert not os.path.exists(path)  # self-cleaning

    def test_version_bump_invalidates(self, tmp_path):
        self.make(tmp_path, version=1).put("deadbeef", {"v": 1})
        upgraded = self.make(tmp_path, version=2)
        assert upgraded.get("deadbeef") is None
        assert upgraded.stats.load_errors == 1
        path = os.path.join(str(tmp_path), "de", "deadbeef.json")
        assert not os.path.exists(path)

    def test_foreign_format_rejected(self, tmp_path):
        JsonStore(str(tmp_path), format_name="other", version=1).put(
            "deadbeef", {"v": 1}
        )
        store = self.make(tmp_path)
        assert store.get("deadbeef") is None
        assert store.stats.load_errors == 1

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        """An unwritable cache never breaks a compile: the disk write is
        dropped (and counted) but the in-memory entry still serves."""
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        store = JsonStore(str(blocker), format_name="test-store", version=1)
        store.put("deadbeef", {"v": 1})
        assert store.stats.store_errors == 1
        assert store.stats.stores == 0
        assert store.get("deadbeef") == {"v": 1}  # LRU front still has it

    def test_memory_only_store(self):
        store = JsonStore(None, format_name="test-store", version=1)
        store.put("k", {"v": 9})
        assert store.get("k") == {"v": 9}
        assert store.stats.memory_hits == 1

    def test_stored_bytes_are_the_json_dumps_of_the_envelope(self, tmp_path):
        """``put`` encodes with ``json.dumps`` (the C encoder); the file
        holds exactly those bytes, nesting, floats and escapes included."""
        store = self.make(tmp_path)
        payload = {"v": [1, 2.5, -0.0, 1e-300], "name": "naïve \"q\"",
                   "nested": {"a": None, "b": True, "c": []}}
        store.put("deadbeef", payload)
        envelope = {"format": "test-store", "version": 1, "key": "deadbeef",
                    "payload": payload}
        path = os.path.join(str(tmp_path), "de", "deadbeef.json")
        with open(path) as handle:
            assert handle.read() == json.dumps(envelope)
        assert self.make(tmp_path).get("deadbeef") == payload

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError):
            self.make(tmp_path, capacity=0)

    def test_hit_rate(self, tmp_path):
        store = self.make(tmp_path)
        store.put("k", {"v": 1})
        store.get("k")
        store.get("missing")
        assert store.stats.lookups == 2
        assert store.stats.hit_rate == 0.5


class TestCacheResolution:
    def test_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_compile_cache(None) is None

    def test_none_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = resolve_compile_cache(None)
        assert cache is not None
        assert cache.directory == str(tmp_path)
        assert cache.schedules.directory == os.path.join(
            str(tmp_path), "schedules"
        )
        assert cache.modules.directory == os.path.join(str(tmp_path), "modules")

    def test_false_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_compile_cache(False) is None

    def test_path_and_instance_pass_through(self, tmp_path):
        by_path = resolve_compile_cache(str(tmp_path))
        assert by_path.directory == str(tmp_path)
        instance = CompileCache(str(tmp_path), modules=False)
        assert resolve_compile_cache(instance) is instance
        assert instance.modules is None and instance.schedules is not None
