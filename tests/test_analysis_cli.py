"""Tests for analysis helpers and the CLI."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    Table,
    fit_rounds_vs_log2_n,
    fit_rounds_vs_log_n,
    format_cell,
    geometric_mean,
    linear_fit,
    predicted_detection_probability,
    wilson_interval,
)
from repro.cli import main


class TestStats:
    def test_wilson_contains_proportion(self):
        lo, hi = wilson_interval(8, 10)
        assert lo <= 0.8 <= hi
        assert 0 <= lo <= hi <= 1

    def test_wilson_extremes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0

    def test_wilson_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    def test_linear_fit_exact(self):
        fit = linear_fit([1, 2, 3], [3, 5, 7])
        assert fit.slope == pytest.approx(2)
        assert fit.intercept == pytest.approx(1)
        assert fit.r_squared == pytest.approx(1)
        assert fit.predict(10) == pytest.approx(21)

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])
        with pytest.raises(ValueError):
            linear_fit([1, 1], [2, 3])

    def test_log_fit(self):
        ns = [2**k for k in range(5, 10)]
        rounds = [10 * math.log2(n) + 3 for n in ns]
        fit = fit_rounds_vs_log_n(ns, rounds)
        assert fit.slope == pytest.approx(10)
        assert fit.r_squared > 0.999

    def test_log2_fit(self):
        ns = [2**k for k in range(5, 10)]
        rounds = [4 * math.log2(n) ** 2 for n in ns]
        fit = fit_rounds_vs_log2_n(ns, rounds)
        assert fit.slope == pytest.approx(4)

    def test_detection_profile(self):
        assert predicted_detection_probability(0.0, 100) == 0.0
        assert predicted_detection_probability(1.0, 1) == 1.0
        assert 0.63 < predicted_detection_probability(0.01, 100) < 0.64

    def test_detection_profile_validation(self):
        with pytest.raises(ValueError):
            predicted_detection_probability(1.2, 10)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1, -2])


class TestTable:
    def test_render_contains_cells(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, 2.5)
        text = table.render()
        assert "Demo" in text and "2.5" in text

    def test_row_arity_checked(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown(self):
        table = Table("Demo", ["a"])
        table.add_row("x")
        md = table.to_markdown()
        assert md.startswith("### Demo")
        assert "| x |" in md

    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.12349) == "0.123"
        assert format_cell(1234567) == "1,234,567"
        assert format_cell(1234.5) == "1,234"
        assert format_cell("s") == "s"
        assert format_cell(0.0) == "0"


class TestCLI:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "delaunay" in out and "gnp" in out

    def test_test_planar_accepts(self, capsys):
        code = main(["test", "--family", "grid", "--n", "100", "--epsilon", "0.3"])
        assert code == 0
        assert "accept" in capsys.readouterr().out

    def test_test_far_rejects(self, capsys):
        code = main(
            ["test", "--far", "gnp", "--n", "120", "--epsilon", "0.2", "--seed", "1"]
        )
        assert code == 1
        assert "REJECT" in capsys.readouterr().out

    def test_partition_command(self, capsys):
        assert main(["partition", "--family", "grid", "--n", "100"]) == 0
        assert "parts" in capsys.readouterr().out

    def test_partition_randomized(self, capsys):
        code = main(
            ["partition", "--family", "grid", "--n", "100", "--method", "randomized"]
        )
        assert code == 0

    def test_spanner_command(self, capsys):
        assert main(["spanner", "--family", "grid", "--n", "100"]) == 0
        assert "stretch" in capsys.readouterr().out

    def test_applications_command(self, capsys):
        assert main(["applications", "--family", "tri-grid", "--n", "80"]) == 0
        out = capsys.readouterr().out
        assert "cycle-freeness" in out and "bipartiteness" in out

    def test_lower_bound_command(self, capsys):
        assert main(["lower-bound", "--n", "200"]) == 0
        assert "girth" in capsys.readouterr().out

    def test_analyze_flag(self, capsys):
        code = main(
            ["test", "--far", "planted-k5", "--n", "120", "--epsilon", "0.1",
             "--analyze", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "Planarity test" in out


class TestSweepCLI:
    def test_sweep_simulate_with_profile(self, capsys, monkeypatch):
        from repro.congest.instrumentation import PROFILE_ENV_VAR

        # setenv (not delenv) so monkeypatch restores the pre-test state
        # even though main() overwrites the variable in-process.
        monkeypatch.setenv(PROFILE_ENV_VAR, "faithful")
        code = main(
            ["sweep", "--kind", "simulate", "--programs", "bfs,storm",
             "--families", "grid", "--ns", "36", "--profile", "fast"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "storm" in out and "fast" in out
        # The flag exports the env knob so pool workers inherit it.
        import os

        assert os.environ[PROFILE_ENV_VAR] == "fast"

    def test_sweep_test_kind_still_works(self, capsys):
        code = main(
            ["sweep", "--kind", "test", "--families", "grid", "--ns", "36",
             "--epsilons", "0.5", "--seeds", "0"]
        )
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out

    def test_sweep_rejects_unknown_profile(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--kind", "simulate", "--families", "grid",
                 "--ns", "36", "--profile", "warp"]
            )

    def test_sweep_shard_and_resume_workflow(self, capsys, tmp_path):
        """Two shard runs fill one store; the final --resume run is a
        100% hit (executed=0) covering the whole grid."""
        store = str(tmp_path / "cache")
        base = ["sweep", "--kind", "test", "--families", "grid",
                "--ns", "36,64", "--epsilons", "0.5,0.25", "--seeds", "0",
                "--cache-dir", store]
        assert main(base + ["--shard", "0/2"]) == 0
        shard0 = capsys.readouterr().out
        assert "shard 0/2" in shard0
        assert main(base + ["--shard", "1/2"]) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "jobs=4 executed=0" in out
        assert "cache: hits=4" in out

    def test_sweep_markdown_same_for_fresh_and_stored_records(self, tmp_path):
        """Store hits come back codec-decoded with their fields in a
        different order; the rendered table must not change."""
        base = ["sweep", "--kind", "test", "--families", "grid",
                "--ns", "36", "--epsilons", "0.5", "--seeds", "0,1",
                "--cache-dir", str(tmp_path / "cache")]
        fresh, stored = tmp_path / "fresh.md", tmp_path / "stored.md"
        assert main(base + ["--markdown", str(fresh)]) == 0
        assert main(base + ["--markdown", str(stored)]) == 0
        assert fresh.read_text() == stored.read_text()

    def test_sweep_shard_argument_validation(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", "2/2"])
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", "nope"])

    def test_sweep_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="--resume needs --cache-dir"):
            main(["sweep", "--kind", "test", "--families", "grid",
                  "--ns", "36", "--epsilons", "0.5", "--resume"])

    def test_sweep_async_backend(self, capsys, tmp_path):
        store = str(tmp_path / "cache")
        code = main(
            ["sweep", "--kind", "test", "--families", "grid", "--ns", "36",
             "--epsilons", "0.5", "--backend", "async", "--workers", "1",
             "--cache-dir", store]
        )
        assert code == 0
        assert "backend=async" in capsys.readouterr().out
