"""Diagnostic rendering, report aggregation and ``repro lint`` exit codes."""

import json

import pytest

import repro.verify
from repro.cli import main
from repro.verify import (
    Diagnostic,
    Location,
    PASS_BOUNDS,
    PASS_SHAPE_DTYPE,
    PASS_SYNC_SAFETY,
    Severity,
    VerifyReport,
)
from repro.verify.diagnostics import error, info, warning


def sample_error():
    return error(
        PASS_BOUNDS,
        Location("te", "softmax_exp", "read scores[...] axis 1"),
        "read out of bounds: index spans [0, 64] but extent is 64",
        "clamp with min/max",
    )


class TestRendering:
    def test_diagnostic_format(self):
        text = sample_error().render()
        assert text.startswith(
            "error[bounds] te softmax_exp (read scores[...] axis 1): "
        )
        assert "read out of bounds" in text
        assert "hint: clamp with min/max" in text

    def test_diagnostic_without_suggestion_has_no_hint(self):
        d = warning(PASS_SYNC_SAFETY, Location("kernel", "k0"), "message")
        assert "hint:" not in d.render()

    def test_report_orders_errors_first_and_summarises(self):
        report = VerifyReport(subject="unit")
        report.add(warning(PASS_SYNC_SAFETY, Location("kernel", "k0"), "w"))
        report.add(sample_error())
        text = report.render()
        lines = text.splitlines()
        assert lines[0].startswith("error[")
        assert text.rstrip().endswith(
            "unit: 1 error(s), 1 warning(s) [passes: ]"
            .replace(" [passes: ]", " [passes: none]")
        )

    def test_min_severity_filters_infos(self):
        report = VerifyReport(subject="unit")
        report.add(info(PASS_BOUNDS, Location("te", "t"), "fyi"))
        assert "fyi" not in report.render()
        assert "fyi" in report.render(min_severity=Severity.INFO)


class TestDeduplication:
    def test_same_location_and_message_collapses_to_worst(self):
        """Two passes flagging one defect render it once, at the worse
        severity."""
        report = VerifyReport(subject="unit")
        loc = Location("te", "t", "read a[...]")
        report.add(warning(PASS_SHAPE_DTYPE, loc, "bad read"))
        report.add(error(PASS_BOUNDS, loc, "bad read"))
        deduped = report.deduplicated()
        assert len(deduped) == 1
        assert deduped[0].severity is Severity.ERROR
        assert report.render().count("bad read") == 1

    def test_distinct_messages_survive(self):
        report = VerifyReport(subject="unit")
        loc = Location("te", "t")
        report.add(error(PASS_BOUNDS, loc, "first"))
        report.add(error(PASS_BOUNDS, loc, "second"))
        assert len(report.deduplicated()) == 2

    def test_order_is_stable_across_insertion_orders(self):
        diags = [
            warning(PASS_SYNC_SAFETY, Location("kernel", "k0"), "w"),
            sample_error(),
            info(PASS_BOUNDS, Location("te", "t"), "fyi"),
        ]
        forward, backward = VerifyReport(), VerifyReport()
        forward.extend(diags)
        backward.extend(reversed(diags))
        assert [d.render() for d in forward.deduplicated()] == [
            d.render() for d in backward.deduplicated()
        ]


class TestJsonReport:
    def test_to_json_shape_and_counts(self):
        report = VerifyReport(subject="unit", passes_run=[PASS_BOUNDS])
        report.add(sample_error())
        report.add(warning(PASS_SYNC_SAFETY, Location("kernel", "k"), "w"))
        payload = report.to_json()
        assert payload["subject"] == "unit"
        assert payload["passes"] == [PASS_BOUNDS]
        assert payload["errors"] == 1 and payload["warnings"] == 1
        assert payload["diagnostics"][0]["severity"] == "error"
        assert payload["diagnostics"][0]["location"]["name"] == "softmax_exp"
        json.dumps(payload)  # must be serializable as-is

    def test_to_json_is_deduplicated_and_byte_stable(self):
        loc = Location("te", "t")
        a, b = VerifyReport(subject="u"), VerifyReport(subject="u")
        a.add(error(PASS_BOUNDS, loc, "m"))
        a.add(warning(PASS_BOUNDS, loc, "m"))
        b.add(warning(PASS_BOUNDS, loc, "m"))
        b.add(error(PASS_BOUNDS, loc, "m"))
        assert len(a.to_json()["diagnostics"]) == 1
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_severity_filter_keeps_counts(self):
        report = VerifyReport(subject="u")
        report.add(info(PASS_BOUNDS, Location("te", "t"), "fyi"))
        report.add(sample_error())
        payload = report.to_json(min_severity=Severity.ERROR)
        assert len(payload["diagnostics"]) == 1
        assert payload["errors"] == 1  # counts ignore the display filter


class TestExitCodes:
    def test_clean_report_exits_zero(self):
        assert VerifyReport().exit_code() == 0
        assert VerifyReport().exit_code(strict=True) == 0

    def test_errors_exit_one(self):
        report = VerifyReport()
        report.add(sample_error())
        assert report.exit_code() == 1

    def test_warnings_only_exit_zero_unless_strict(self):
        report = VerifyReport()
        report.add(warning(PASS_BOUNDS, Location("te", "t"), "w"))
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_by_pass_groups(self):
        report = VerifyReport()
        report.add(sample_error())
        report.add(warning(PASS_SYNC_SAFETY, Location("kernel", "k"), "w"))
        grouped = report.by_pass()
        assert set(grouped) == {PASS_BOUNDS, PASS_SYNC_SAFETY}


class TestLintCli:
    def test_lint_clean_model_exits_zero(self, capsys):
        assert main(["lint", "mmoe"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "sync-safety" in out  # all five passes ran
        assert "arena-hazard" in out

    def test_lint_errors_exit_one(self, capsys, monkeypatch):
        def fake_verify_module(module):
            report = VerifyReport(subject=module.name)
            report.add(sample_error())
            return report

        monkeypatch.setattr(
            repro.verify, "verify_module", fake_verify_module
        )
        assert main(["lint", "mmoe"]) == 1
        assert "error[bounds]" in capsys.readouterr().out

    def test_lint_strict_promotes_warnings(self, capsys, monkeypatch):
        def fake_verify_module(module):
            report = VerifyReport(subject=module.name)
            report.add(
                warning(PASS_SYNC_SAFETY, Location("kernel", "k"), "w")
            )
            return report

        monkeypatch.setattr(
            repro.verify, "verify_module", fake_verify_module
        )
        assert main(["lint", "mmoe"]) == 0
        assert main(["lint", "mmoe", "--strict"]) == 1

    def test_lint_json_is_parseable(self, capsys):
        assert main(["lint", "mmoe", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert "bounds" in payload["passes"]
        assert "arena-hazard" in payload["passes"]


class TestCertifyCli:
    def test_certify_clean_model_exits_zero(self, capsys):
        assert main(["certify", "mmoe"]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert "0 refuted" in out

    def test_certify_json_covers_all_transforms(self, capsys):
        assert main(["certify", "mmoe", "--json", "--batch", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["refuted"] == 0 and payload["unknown"] == 0
        transforms = {c["transform"] for c in payload["certificates"]}
        assert {
            "horizontal", "vertical", "fusion", "elision",
            "tiling", "contraction", "batched-lowering",
        } <= transforms
