"""Differential tests: cached compilation is inert.

Cold, warm-cache (module tier) and schedule-tier-only compiles must emit
byte-identical kernel IR, identical kernel counts and identical simulated
latency for every evaluation model.
"""

import numpy as np
import pytest

from repro import CompileCache, SouffleCompiler, SouffleOptions
from repro.models import TINY_MODELS


def fingerprint(module):
    metrics = module.simulate()
    return (
        module.kernel_calls,
        module.render_kernels(),
        metrics.total_time_us,
    )


def compile_once(graph, cache=False, level=4):
    compiler = SouffleCompiler(
        options=SouffleOptions.from_level(level),
        cache=cache,
    )
    return compiler.compile(graph)


@pytest.mark.parametrize("name", sorted(TINY_MODELS))
class TestDifferentialCompile:
    """One cold compile is the reference; every cached path must match."""

    def test_warm_module_cache_identical(self, name, tmp_path):
        graph = TINY_MODELS[name]()
        cold = compile_once(graph, cache=str(tmp_path / "c"))
        assert not cold.stats.module_cache_hit
        # Fresh CompileCache: the warm run must go through the disk.
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.module_cache_hit
        assert fingerprint(warm) == fingerprint(cold)

    def test_schedule_tier_alone_identical(self, name, tmp_path):
        """With the module tier off, the full pipeline re-runs against
        cached schedules and must reproduce the search-built kernels."""
        graph = TINY_MODELS[name]()
        directory = str(tmp_path / "c")
        cold = compile_once(
            graph, cache=CompileCache(directory, modules=False)
        )
        assert cold.stats.schedule_cache_misses > 0
        warm = compile_once(
            graph, cache=CompileCache(directory, modules=False)
        )
        assert warm.stats.schedule_cache_hits > 0
        assert warm.stats.schedule_cache_misses == 0
        assert warm.stats.schedule_trials == 0  # no search ran at all
        assert fingerprint(warm) == fingerprint(cold)


class TestCachedModuleExecution:
    def test_cache_hit_module_still_runs(self, tmp_path):
        """A warm module materialises its program lazily and computes the
        same outputs as the cold compile."""
        graph = TINY_MODELS["mmoe"]()
        cold = compile_once(graph, cache=str(tmp_path / "c"))
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.module_cache_hit
        assert not warm.has_program  # performance queries stayed lazy
        rng = np.random.default_rng(7)
        feeds = {
            t.name: rng.standard_normal(t.shape) * 0.1
            for t in cold.program.inputs
        }
        for expected, actual in zip(
            cold.run_by_name(feeds), warm.run_by_name(feeds)
        ):
            assert np.allclose(expected, actual, atol=1e-6)
        assert warm.has_program  # run() forced materialisation

    def test_warm_compile_skips_search(self, tmp_path):
        graph = TINY_MODELS["mmoe"]()
        compile_once(graph, cache=str(tmp_path / "c"))
        warm = compile_once(graph, cache=str(tmp_path / "c"))
        assert warm.stats.schedule_trials == 0
        assert set(warm.stats.phase_seconds) == {"cache_load"}
