"""Mutation tests for translation validation (``repro.verify.equiv``).

Each test plants exactly one semantics-breaking defect in an otherwise
correct optimization artifact and asserts the certifier *refutes* it with
a concrete, minimized counterexample that (a) replays to the same
diverging pair via :func:`replay_certificate`, (b) survives a JSON
round-trip, and (c) is bit-deterministic across runs — the certificate
analogue of mutation-testing the verifier.

Defect catalogue:

* fusion   — fused group members composed in the wrong order
             (reads-before-write resolve to stale scratch);
* elision  — an in-place write over an operand a later step still reads;
* tiling   — an off-by-one block partition leaving the last row unwritten
             (with the runtime's own partition validator bypassed);
* batching — a binding layer that drops the weight broadcast on all lanes
             past the first.
"""

import json

import numpy as np
import pytest

from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime import tiling
from repro.runtime.executor import BatchedExecutionPlan
from repro.runtime.plan_opt import plan_optimization
from repro.verify import (
    CertificationReport,
    EquivalenceCertificate,
    certify_batched_binding,
    certify_plan_optimization,
    gate_certificates,
    replay_certificate,
)
from repro.errors import VerificationError


def cert_for(certs, transform):
    return next(c for c in certs if c.transform == transform)


def assert_replayable(cert, **artifacts):
    """The stored counterexample must reproduce its diverging pair."""
    cx = cert.counterexample
    assert cx is not None, cert.render()
    before, after = replay_certificate(cert, **artifacts)
    assert before == pytest.approx(cx.before_value, rel=1e-9, abs=1e-12)
    assert after == pytest.approx(cx.after_value, rel=1e-9, abs=1e-12)
    assert before != pytest.approx(after, rel=1e-6, abs=1e-8)


def assert_json_roundtrip(cert):
    payload = json.loads(json.dumps(cert.as_dict(), sort_keys=True))
    assert EquivalenceCertificate.from_dict(payload) == cert


# ---- fusion: members composed in the wrong order -----------------------------


def fused_chain():
    b = GraphBuilder("fused_chain")
    x = b.input((4, 4), name="x")
    a = b.exp(x, name="a")
    y = b.scale(a, 2.0, name="y")
    return lower_graph(b.build([y]))


class TestFusionOrderMutation:
    def build(self):
        program = fused_chain()
        opt = plan_optimization(program, tile=False)
        group = next(g for g in opt.groups if len(g.members) > 1)
        return program, opt, group

    def test_reversed_members_refuted_with_counterexample(self):
        program, opt, group = self.build()
        baseline = cert_for(
            certify_plan_optimization(program, opt), "fusion"
        )
        assert baseline.proved

        group.members.reverse()
        cert = cert_for(certify_plan_optimization(program, opt), "fusion")
        assert cert.refuted
        assert "stale scratch" in cert.detail
        assert cert.counterexample.output == group.terminal.name
        assert_replayable(cert, program=program, optimization=opt)
        assert_json_roundtrip(cert)

    def test_refutation_is_deterministic(self):
        program, opt, group = self.build()
        group.members.reverse()
        first = cert_for(certify_plan_optimization(program, opt), "fusion")
        second = cert_for(certify_plan_optimization(program, opt), "fusion")
        assert first == second

    def test_gate_raises_on_refuted(self):
        program, opt, group = self.build()
        group.members.reverse()
        cert = cert_for(certify_plan_optimization(program, opt), "fusion")
        with pytest.raises(VerificationError, match="refuted after plan"):
            gate_certificates([cert], "plan")


# ---- elision: in-place write over a still-live operand -----------------------


def elision_model():
    b = GraphBuilder("elision_model")
    x = b.input((4,), name="x")
    a = b.exp(x, name="a")
    bt = b.sigmoid(a, name="b")
    c = b.add(a, bt, name="c")
    return lower_graph(b.build([c]))


class TestElisionMutation:
    def build(self):
        program = elision_model()
        # fuse/elide off: every node is its own group and the elision map
        # starts empty, so the planted entry is the only obligation.
        opt = plan_optimization(
            program, fuse=False, elide=False, tile=False
        )
        a = next(n.tensor for n in program.nodes if n.name == "a")
        writer = next(
            g for g in opt.groups if g.terminal.name == "b"
        )
        opt.elided[writer.position] = a  # but c still reads a afterwards
        return program, opt

    def test_live_operand_elision_refuted(self):
        program, opt = self.build()
        cert = cert_for(certify_plan_optimization(program, opt), "elision")
        assert cert.refuted
        assert "writes in place over a" in cert.detail
        assert "c still reads it" in cert.detail
        assert cert.counterexample.output == "c"
        assert_replayable(cert, program=program, optimization=opt)
        assert_json_roundtrip(cert)

    def test_refutation_is_deterministic(self):
        program, opt = self.build()
        first = cert_for(certify_plan_optimization(program, opt), "elision")
        second = cert_for(
            certify_plan_optimization(program, opt), "elision"
        )
        assert first == second


# ---- tiling: off-by-one block partition --------------------------------------


class TestTileBoundaryMutation:
    def build(self, monkeypatch):
        # Shrink the last block by one row and disarm the runtime's own
        # partition validator; only the certifier's independently
        # re-derived cover check stands between this and silent garbage.
        true_ranges = tiling._block_ranges

        def off_by_one(rows, block_rows):
            ranges = true_ranges(rows, block_rows)
            lo, hi = ranges[-1]
            return ranges[:-1] + ([(lo, hi - 1)] if hi - 1 > lo else [])

        monkeypatch.setattr(tiling, "_block_ranges", off_by_one)
        monkeypatch.setattr(
            tiling, "validate_partition", lambda rows, ranges: None
        )
        program = lower_graph(TINY_MODELS["bert"]())
        opt = plan_optimization(program, tile_block_rows=2)
        assert opt.tiled_chains
        return program, opt

    def test_uncovered_row_refuted(self, monkeypatch):
        program, opt = self.build(monkeypatch)
        cert = cert_for(certify_plan_optimization(program, opt), "tiling")
        assert cert.refuted
        assert "covered by no block" in cert.detail
        cx = cert.counterexample
        assert cx is not None
        rows = opt.tiled_chains[0].rows
        assert cx.coordinates[0] == rows - 1  # pinned to the dropped row
        assert_replayable(cert, program=program, optimization=opt)
        assert_json_roundtrip(cert)

    def test_refutation_is_deterministic(self, monkeypatch):
        program, opt = self.build(monkeypatch)
        first = cert_for(certify_plan_optimization(program, opt), "tiling")
        second = cert_for(certify_plan_optimization(program, opt), "tiling")
        assert first == second


# ---- batching: binding layer drops the weight broadcast ----------------------


class DroppedBroadcastPlan(BatchedExecutionPlan):
    """Seeded defect: weight lanes past the first read zeros instead of
    the broadcast array."""

    def bind_batch(self, feeds_list):
        bound = super().bind_batch(feeds_list)
        for t in self.program.inputs:
            if getattr(t, "role", None) == "weight" and id(t) in bound:
                arr = np.array(bound[id(t)])
                arr[1:] = 0.0
                bound[id(t)] = arr
        return bound


def batch_model():
    b = GraphBuilder("batch_model")
    x = b.input((3,), name="x")
    w = b.weight((3,), name="w")
    y = b.add(x, w, name="y")
    return lower_graph(b.build([y]))


class TestBatchBroadcastMutation:
    def test_healthy_plan_proves(self):
        plan = BatchedExecutionPlan(batch_model(), batch_size=3)
        cert = certify_batched_binding(plan)
        assert cert is not None and cert.proved

    def test_dropped_broadcast_refuted(self):
        plan = DroppedBroadcastPlan(batch_model(), batch_size=3)
        cert = certify_batched_binding(plan)
        assert cert is not None and cert.refuted
        assert "does not hold that request's feed" in cert.detail
        cx = cert.counterexample
        assert cx.output == "w"
        assert cx.coordinates[0] >= 1  # lane 0 is untouched by the defect
        assert cx.after_value == 0.0
        assert_replayable(cert, plan=plan)
        assert_json_roundtrip(cert)

    def test_refutation_is_deterministic(self):
        plan = DroppedBroadcastPlan(batch_model(), batch_size=3)
        first = certify_batched_binding(plan)
        second = certify_batched_binding(plan)
        assert first == second


# ---- report-level behaviour of a refuted run ---------------------------------


class TestRefutedReport:
    def test_refuted_sorts_first_and_exits_nonzero(self):
        program = fused_chain()
        opt = plan_optimization(program, tile=False)
        next(g for g in opt.groups if len(g.members) > 1).members.reverse()
        report = CertificationReport(subject=program.name)
        report.extend(certify_plan_optimization(program, opt))
        assert report.refuted and not report.all_proved
        assert report.sorted()[0].refuted
        assert report.exit_code() == 1
        payload = report.to_json()
        assert payload["refuted"] == 1
        assert payload["certificates"][0]["status"] == "refuted"
