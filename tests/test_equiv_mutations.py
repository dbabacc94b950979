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
             past the first;
* contraction — a lowered view with a wrong stride or a wrong offset, a
             piece boundary moved so one output column is never written,
             and a GEMM's whole-array matmul piece reading its weight
             transposed or its input shifted by one element.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.graph import GraphBuilder, lower_graph
from repro.models import TINY_MODELS
from repro.runtime import tiling
from repro.runtime.executor import BatchedExecutionPlan
from repro.runtime.plan_opt import plan_optimization
from repro.te import patterns
from repro.transform import horizontal_transform
from repro.verify import equiv
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


# ---- fusion: members composed in the wrong order ----------------------------


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


# ---- elision: in-place write over a still-live operand ----------------------


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


# ---- tiling: off-by-one block partition -------------------------------------


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


# ---- batching: binding layer drops the weight broadcast ---------------------


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


# ---- report-level behaviour of a refuted run --------------------------------


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


# ---- contraction: wrong strided views ---------------------------------------


def strided_conv():
    b = GraphBuilder("strided_conv")
    x = b.input((1, 2, 7, 7), name="x")
    w = b.weight((3, 2, 3, 3), name="w")
    return lower_graph(b.build([b.relu(b.conv2d(x, w, stride=2))]))


def predicated_gemms():
    b = GraphBuilder("predicated_gemms")
    x = b.input((2, 4), name="x")
    ys = [b.relu(b.matmul(x, b.weight((4, n)))) for n in (3, 2)]
    program, _ = horizontal_transform(
        lower_graph(b.build([b.concat(ys, axis=1)]))
    )
    return program


def gemm():
    """One GEMM with a square weight, so a transposed read stays in
    bounds."""
    b = GraphBuilder("gemm")
    x = b.input((4, 6), name="x")
    w = b.weight((6, 6), name="w")
    return lower_graph(b.build([b.relu(b.matmul(x, w))]))


def plant(monkeypatch, edit):
    """Serve every lowered contraction through ``edit``."""
    true_match = equiv.match_contraction

    def planted(tensor):
        contraction = true_match(tensor)
        return None if contraction is None else edit(tensor, contraction)

    monkeypatch.setattr(equiv, "match_contraction", planted)


def edit_first_piece(contraction, piece):
    return dataclasses.replace(
        contraction, pieces=(piece,) + contraction.pieces[1:]
    )


def edit_first_view(contraction, edit):
    piece = contraction.pieces[0]
    views = (edit(piece.operands[0]),) + piece.operands[1:]
    return edit_first_piece(
        contraction, dataclasses.replace(piece, operands=views)
    )


def wrong_stride(tensor, contraction):
    """The first view steps one element too far along its first letter."""
    return edit_first_view(contraction, lambda view: dataclasses.replace(
        view, strides=(view.strides[0] + 1,) + view.strides[1:]
    ))


def wrong_offset(tensor, contraction):
    """The first view starts one element late."""
    return edit_first_view(contraction, lambda view: dataclasses.replace(
        view, offset=view.offset + 1
    ))


def transposed_weight(tensor, contraction):
    """The weight's view swaps its strides: it reads the weight
    transposed."""
    piece = contraction.pieces[0]
    views = tuple(
        dataclasses.replace(view, strides=view.strides[::-1])
        if contraction.tensors[view.slot].role == "weight" else view
        for view in piece.operands
    )
    return edit_first_piece(
        contraction, dataclasses.replace(piece, operands=views)
    )


def overlapping_weight(tensor, contraction):
    """The weight's view steps 5 elements per row of 6: its rows overlap,
    so the view is no dense matrix, though it stays in bounds."""
    piece = contraction.pieces[0]
    views = tuple(
        dataclasses.replace(view, strides=(view.strides[0] - 1,)
                            + view.strides[1:])
        if contraction.tensors[view.slot].role == "weight" else view
        for view in piece.operands
    )
    return edit_first_piece(
        contraction, dataclasses.replace(piece, operands=views)
    )


def run_on_certifier_feeds(contraction):
    """What ``Contraction.run`` writes when every operand element takes
    the value the certifier's feed store gives it."""
    arrays = []
    for t in contraction.tensors:
        arr = np.empty(t.shape)
        for idx in np.ndindex(*t.shape):
            arr[idx] = equiv._hash_feed("", t.name, idx, t.dtype)
        arrays.append(arr)
    out = np.zeros(contraction.shape)
    contraction.run(arrays, out)
    return out


def moved_boundary(tensor, contraction):
    """Piece 0 ends one column early: that column is never written."""
    op = tensor.op
    box = list(contraction.pieces[0].box)
    lo, hi = box[1]
    box[1] = (lo, hi - 1)
    slots = {id(t): k for k, t in enumerate(contraction.tensors)}
    piece = patterns._lower_piece(
        op.body, op.axes, tensor.shape, tuple(box), slots,
        list(contraction.tensors),
    )
    return edit_first_piece(contraction, piece)


class TestContractionMutation:
    def certify(self, program):
        opt = plan_optimization(program)
        return cert_for(
            certify_plan_optimization(program, opt), "contraction"
        )

    @pytest.mark.parametrize("program", [strided_conv, predicated_gemms, gemm])
    def test_healthy_lowering_proves(self, program):
        cert = self.certify(program())
        assert cert.proved and cert.obligations >= 1

    def test_gemm_is_one_whole_array_matmul_piece(self):
        (tensor,) = [
            n.tensor for n in gemm().nodes
            if patterns.match_contraction(n.tensor) is not None
        ]
        (piece,) = patterns.match_contraction(tensor).pieces
        assert piece.kernel == "matmul"
        assert [view.offset for view in piece.operands] == [0, 0]

    @pytest.mark.parametrize(
        "edit", [transposed_weight, overlapping_weight, wrong_offset]
    )
    def test_gemm_view_defect_refuted(self, monkeypatch, edit):
        program = gemm()
        plant(monkeypatch, edit)
        cert = self.certify(program)
        assert cert.refuted
        assert "operand views differ" in cert.detail
        assert_replayable(cert, program=program)
        assert_json_roundtrip(cert)

    @pytest.mark.parametrize("edit", [transposed_weight, overlapping_weight])
    def test_gemm_kernel_reads_the_views_it_names(self, monkeypatch, edit):
        """A piece cannot name np.matmul for views that are not dense
        matrices: its kernel follows from its views, so the run reads
        what the views say and the counterexample is the run's value."""
        program = gemm()
        (tensor,) = [
            n.tensor for n in program.nodes
            if patterns.match_contraction(n.tensor) is not None
        ]
        planted = edit(tensor, patterns.match_contraction(tensor))
        assert planted.pieces[0].kernel != "matmul"
        plant(monkeypatch, edit)
        cx = self.certify(program).counterexample
        run = run_on_certifier_feeds(planted)
        assert run[cx.coordinates] == pytest.approx(
            cx.after_value, rel=1e-12
        )

    def test_wrong_stride_refuted(self, monkeypatch):
        program = strided_conv()
        plant(monkeypatch, wrong_stride)
        cert = self.certify(program)
        assert cert.refuted
        assert "operand views differ" in cert.detail
        assert_replayable(cert, program=program)
        assert_json_roundtrip(cert)

    def test_wrong_offset_refuted(self, monkeypatch):
        program = strided_conv()
        plant(monkeypatch, wrong_offset)
        cert = self.certify(program)
        assert cert.refuted
        assert "operand views differ" in cert.detail
        assert_replayable(cert, program=program)
        assert_json_roundtrip(cert)

    def test_wrong_piece_boundary_refuted(self, monkeypatch):
        program = predicated_gemms()
        plant(monkeypatch, moved_boundary)
        cert = self.certify(program)
        assert cert.refuted
        assert "written by 0 pieces" in cert.detail
        cx = cert.counterexample
        assert cx.coordinates[1] == 2  # the column piece 0 no longer writes
        assert_replayable(cert, program=program)
        assert_json_roundtrip(cert)

    def test_refutation_is_deterministic(self, monkeypatch):
        program = strided_conv()
        plant(monkeypatch, wrong_offset)
        assert self.certify(program) == self.certify(program)


# ---- view: wrong strided views of map and reduction steps -------------------


def transposed():
    b = GraphBuilder("transposed")
    x = b.input((4, 6), name="x")
    return lower_graph(b.build([b.relu(b.transpose(x, (1, 0)))]))


def concatenated():
    b = GraphBuilder("concatenated")
    x = b.input((2, 3), name="x")
    y = b.input((2, 2), name="y")
    return lower_graph(b.build([b.relu(b.concat([x, y], axis=1))]))


def plant_views(monkeypatch, edit):
    """Serve every view lowering through ``edit``."""
    true_lower = equiv.lower_views

    def planted(tensor):
        lowering = true_lower(tensor)
        return None if lowering is None else edit(tensor, lowering)

    monkeypatch.setattr(equiv, "lower_views", planted)


def edit_first_read_view(lowering, edit):
    """Apply ``edit`` to the first two-letter view of the first piece."""
    piece = lowering.pieces[0]
    k = next(
        k for k, (_, view) in enumerate(piece.reads)
        if view is not None and len(view.letters) > 1
    )
    read, view = piece.reads[k]
    reads = piece.reads[:k] + ((read, edit(view)),) + piece.reads[k + 1:]
    return dataclasses.replace(lowering, pieces=(
        dataclasses.replace(piece, reads=reads),
    ) + lowering.pieces[1:])


def shifted_view(tensor, lowering):
    """The view starts one element late."""
    return edit_first_read_view(lowering, lambda view: dataclasses.replace(
        view, offset=view.offset + 1
    ))


def swapped_view(tensor, lowering):
    """The view's strides are swapped: it reads its operand transposed."""
    return edit_first_read_view(lowering, lambda view: dataclasses.replace(
        view, strides=view.strides[::-1]
    ))


def gap_between_boxes(tensor, lowering):
    """Piece 0 ends one column early: that column is never written."""
    if len(lowering.pieces) < 2:
        return lowering
    op = tensor.op
    box = list(lowering.pieces[0].box)
    lo, hi = box[1]
    box[1] = (lo, hi - 1)
    slots = {id(t): k for k, t in enumerate(lowering.tensors)}
    narrowed = patterns._lower_view_piece(
        op.body, op.axes, (), tensor.shape, tuple(box), slots,
        list(lowering.tensors),
    )
    return dataclasses.replace(
        lowering, pieces=(narrowed,) + lowering.pieces[1:]
    )


class TestViewMutation:
    def certify(self, program):
        opt = plan_optimization(program)
        return cert_for(certify_plan_optimization(program, opt), "view")

    @pytest.mark.parametrize("program", [transposed, concatenated])
    def test_healthy_lowering_proves(self, program):
        cert = self.certify(program())
        assert cert.proved and cert.obligations >= 2

    @pytest.mark.parametrize("edit", [shifted_view, swapped_view])
    def test_view_defect_refuted(self, monkeypatch, edit):
        program = transposed()
        plant_views(monkeypatch, edit)
        cert = self.certify(program)
        assert cert.refuted
        assert "differs from the TE's read map" in cert.detail
        assert_replayable(cert, program=program)
        assert_json_roundtrip(cert)

    def test_gap_between_boxes_refuted(self, monkeypatch):
        program = concatenated()
        plant_views(monkeypatch, gap_between_boxes)
        cert = self.certify(program)
        assert cert.refuted
        assert "written by 0 pieces" in cert.detail
        assert cert.counterexample.coordinates[1] == 2
        assert_replayable(cert, program=program)
        assert_json_roundtrip(cert)

    def test_refutation_is_deterministic(self, monkeypatch):
        program = transposed()
        plant_views(monkeypatch, swapped_view)
        assert self.certify(program) == self.certify(program)
