"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_level_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "bert", "--level", "9"])


class TestCommands:
    def test_compile_mmoe(self, capsys):
        assert main(["compile", "mmoe", "--level", "4"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out and "compile phases" in out

    def test_compare_mmoe(self, capsys):
        assert main(["compare", "mmoe"]) == 0
        out = capsys.readouterr().out
        assert "souffle" in out and "tensorrt" in out

    def test_kernels_mmoe(self, capsys):
        assert main(["kernels", "mmoe", "--limit", "1"]) == 0
        assert "__global__" in capsys.readouterr().out

    def test_memory_mmoe(self, capsys):
        assert main(["memory", "mmoe"]) == 0
        assert "workspace" in capsys.readouterr().out

    def test_export_and_reimport(self, tmp_path, capsys):
        path = str(tmp_path / "mmoe.json")
        assert main(["export", "mmoe", path]) == 0
        assert main(["compile", path, "--level", "2"]) == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "alexnet"])

    def test_compile_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["compile", "mmoe", "--cache-dir", cache]) == 0
        assert "profile:" in capsys.readouterr().out

    def test_serve_bench_mmoe(self, capsys):
        assert main(["serve-bench", "mmoe", "--calls", "4"]) == 0
        out = capsys.readouterr().out
        assert "outputs bit-identical: True" in out
        assert "plan replay" in out and "interpreter" in out
        assert "speedup" in out
        assert "serving profile" in out

    def test_serve_bench_unknown_tiny_model(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "alexnet"])

    def test_plan_stats_mmoe(self, capsys):
        assert main(["plan-stats", "mmoe"]) == 0
        out = capsys.readouterr().out
        assert "plan optimizer: mmoe_tiny" in out
        assert "steps:" in out and "arena workspace:" in out
        assert "replay:" not in out and "task graph" not in out
        assert "fused into consumers" in out
        assert "views, 0 gathers left (0 index-grid bytes)" in out

    def test_plan_stats_reports_the_compiled_program(self, capsys):
        """The report is the plan sessions serve: compiled tiny Swin's 63
        TEs, not the 111 steps of the lowered program."""
        assert main(["plan-stats", "swin"]) == 0
        out = capsys.readouterr().out
        assert "steps:            63 -> 63" in out
        assert "arena workspace:   73728 -> 58368 bytes (15360 saved)" in out
        assert ("reads: 103 views, 0 gathers left (0 index-grid bytes), "
                "2 steps cut into 6 pieces") in out

    def test_plan_stats_batched_paper_scale(self, capsys):
        assert main(["plan-stats", "mmoe", "--scale", "paper",
                     "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "(batch 4)" in out
        assert "arena workspace:" in out

    def test_plan_stats_unknown_tiny_model(self):
        with pytest.raises(SystemExit):
            main(["plan-stats", "alexnet"])

    def test_compile_stats_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["compile-stats", "mmoe", "--cache-dir", cache,
                     "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "run 1/2" in out and "run 2/2" in out
        assert "module cache: miss" in out
        assert "module cache: hit" in out
        assert "schedule cache:" in out

    def test_compile_stats_without_cache(self, capsys):
        assert main(["compile-stats", "mmoe"]) == 0
        out = capsys.readouterr().out
        assert "schedule cache: disabled" in out
        assert "compile phases:" in out
