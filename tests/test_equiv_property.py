"""Property tests for translation validation (``repro.verify.equiv``).

Two universal claims, made falsifiable:

* **Soundness of the shipped passes** — every optimizer pass subset, on
  every tiny model, certifies ALL-PROVED: fusion, elision, tiling and
  the contraction lowering as actually implemented never trip their own
  certificates, in any combination, unbatched or batched.
* **Certificates are artifacts** — the same model certifies to the same
  bytes whether compiled cold, warm from the certificate cache tier, or
  with a parallel worker pool; ``repro certify --json`` output is
  therefore diffable and cacheable.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileCache, SouffleCompiler, SouffleOptions
from repro.cache import CertificateCache
from repro.graph import lower_graph
from repro.models import TINY_MODELS
from repro.runtime.executor import BatchedExecutionPlan, ExecutionPlan
from repro.runtime.plan_opt import plan_optimization
from repro.verify import (
    certify_model,
    certify_plan,
    certify_plan_optimization,
)


def program_for(name):
    return lower_graph(TINY_MODELS[name]())


def assert_all_proved(certificates, context):
    bad = [c for c in certificates if not c.proved]
    assert not bad, f"{context}: " + "; ".join(c.render() for c in bad)


# ---- soundness: every pass subset certifies ----------------------------------


@st.composite
def pass_flags(draw):
    return {
        "fuse": draw(st.booleans()),
        "elide": draw(st.booleans()),
        "tile": draw(st.booleans()),
    }


@pytest.mark.parametrize("name", sorted(TINY_MODELS))
@settings(max_examples=8, deadline=None)
@given(flags=pass_flags())
def test_every_pass_subset_certifies(name, flags):
    program = program_for(name)
    opt = plan_optimization(program, **flags)
    certs = certify_plan_optimization(program, opt)
    assert len(certs) == 5  # one per pass family, always present
    assert_all_proved(certs, f"{name} {flags}")


@pytest.mark.parametrize("name", sorted(TINY_MODELS))
def test_unbatched_plan_certifies(name):
    plan = ExecutionPlan(program_for(name), optimize=True)
    report = certify_plan(plan)
    assert report.all_proved, report.render()


@pytest.mark.parametrize("name", sorted(TINY_MODELS))
def test_batched_plan_certifies(name):
    plan = BatchedExecutionPlan(
        program_for(name), batch_size=4, optimize=True
    )
    report = certify_plan(plan)
    assert report.all_proved, report.render()
    transforms = {c.transform for c in report}
    assert "batched-lowering" in transforms
    assert "batched-binding" in transforms


# ---- determinism: certificates are byte-stable artifacts ---------------------


def report_bytes(report):
    return json.dumps(report.to_json(), sort_keys=True)


def certified_compile(graph, cache):
    compiler = SouffleCompiler(
        options=SouffleOptions.from_level(4, certify=True),
        cache=cache,
    )
    return compiler.compile(graph)


def certificate_bytes(module):
    return json.dumps(
        [c.as_dict() for c in module.certificates], sort_keys=True
    )


class TestByteStability:
    @pytest.mark.parametrize("name", ("bert", "mmoe"))
    def test_cold_warm_identical(self, name, tmp_path):
        graph = TINY_MODELS[name]()
        directory = str(tmp_path / "c")

        cold = certified_compile(graph, cache=directory)
        assert not cold.stats.module_cache_hit
        assert cold.certificates, "certified compile emits certificates"
        reference = certificate_bytes(cold)

        warm = certified_compile(graph, cache=directory)
        assert warm.stats.module_cache_hit
        assert certificate_bytes(warm) == reference

    def test_missing_certificates_force_recompile(self, tmp_path):
        """A module cached *without* certificates cannot satisfy a
        certified compile: the warm run must fall through and re-prove."""
        graph = TINY_MODELS["mmoe"]()
        directory = str(tmp_path / "c")
        plain = SouffleCompiler(
            options=SouffleOptions.from_level(4), cache=directory
        ).compile(graph)
        assert not plain.certificates

        certified = certified_compile(graph, cache=directory)
        assert not certified.stats.module_cache_hit
        assert certified.certificates

    def test_certify_model_report_is_stable(self):
        first = certify_model(TINY_MODELS["mmoe"](), batch_size=4)
        second = certify_model(TINY_MODELS["mmoe"](), batch_size=4)
        assert first.all_proved
        assert report_bytes(first) == report_bytes(second)


class TestCertificateCacheTier:
    def test_roundtrip_preserves_certificates(self, tmp_path):
        graph = TINY_MODELS["mmoe"]()
        module = certified_compile(graph, cache=False)
        cache = CertificateCache(str(tmp_path / "certs"))
        cache.save("k", module.certificates)
        loaded = CertificateCache(str(tmp_path / "certs")).load("k")
        assert loaded == module.certificates

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CertificateCache(str(tmp_path / "certs"))
        cache.store.put("k", {"certificates": [{"nonsense": True}]})
        assert cache.load("k") is None

    def test_tier_can_be_disabled(self, tmp_path):
        cache = CompileCache(str(tmp_path / "c"), certificates=False)
        assert cache.certificates is None
        graph = TINY_MODELS["mmoe"]()
        module = certified_compile(graph, cache=cache)
        assert module.certificates  # still certified, just not cached
