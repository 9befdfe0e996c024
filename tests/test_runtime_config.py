"""RunConfig: precedence, env export, and the entry points."""

from __future__ import annotations

import os

import pytest

from repro.runtime import JobSpec, ResultCache, RunConfig, run_jobs, run_sweep
from repro.runtime.sweeps import SweepSpec


def _specs(n=2):
    return [
        JobSpec.make("test_planarity", family="grid", n=36, epsilon=0.5, seed=s)
        for s in range(n)
    ]


class TestResolvePrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        assert RunConfig().resolve("sim_batch") == 1
        assert RunConfig().resolve("sim_batch_waste") == 4.0
        assert RunConfig().resolve("sim_xp") == "numpy"
        assert RunConfig().resolve("store_format") == "rbin"
        assert RunConfig().resolve("cache_coord_keys") is True

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "8")
        monkeypatch.setenv("REPRO_CACHE_COORD_KEYS", "0")
        config = RunConfig()
        assert config.resolve("sim_batch") == 8
        assert config.resolve("cache_coord_keys") is False

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "8")
        assert RunConfig(sim_batch=2).resolve("sim_batch") == 2

    def test_auto_batch_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "auto")
        assert RunConfig().resolve("sim_batch") == "auto"
        assert RunConfig(sim_batch="auto").resolve("sim_batch") == "auto"

    def test_unparsable_env_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "banana")
        with pytest.warns(RuntimeWarning, match="unparsable"):
            assert RunConfig().resolve("sim_batch") == 1

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError, match="unknown runtime knob"):
            RunConfig().resolve("warp_factor")

    def test_resolved_and_overrides(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        config = RunConfig(sim_batch=4, sim_xp="torch")
        assert config.overrides() == {
            "sim_batch": 4,
            "sim_xp": "torch",
        }
        effective = config.resolved()
        assert effective["sim_batch"] == 4
        assert effective["sim_xp"] == "torch"
        assert effective["sim_batch_waste"] == 4.0  # default fills gaps

    def test_no_partition_engine_knob(self):
        # One partition engine: there is nothing left to configure.
        assert "partition_engine" not in RunConfig().resolved()
        with pytest.raises(TypeError):
            RunConfig(partition_engine="dense")

    def test_env_var_lookup(self):
        assert RunConfig.env_var("sim_batch") == "REPRO_SIM_BATCH"

    def test_from_env_pins_current_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "6")
        pinned = RunConfig.from_env()
        monkeypatch.setenv("REPRO_SIM_BATCH", "9")
        assert pinned.resolve("sim_batch") == 6  # frozen, not re-read
        assert RunConfig().resolve("sim_batch") == 9

    def test_frozen_and_hashable(self):
        config = RunConfig(sim_batch=2)
        assert hash(config) == hash(RunConfig(sim_batch=2))
        with pytest.raises(AttributeError):
            config.sim_batch = 3


class TestExport:
    def test_export_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        monkeypatch.setenv("REPRO_SIM_XP", "numpy")
        config = RunConfig(sim_batch=5, sim_xp="torch", cache_coord_keys=False)
        with config.export():
            assert os.environ["REPRO_SIM_BATCH"] == "5"
            assert os.environ["REPRO_SIM_XP"] == "torch"
            assert os.environ["REPRO_CACHE_COORD_KEYS"] == "0"
        assert "REPRO_SIM_BATCH" not in os.environ  # was unset before
        assert os.environ["REPRO_SIM_XP"] == "numpy"  # restored

    def test_export_skips_unset_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        with RunConfig().export():
            assert "REPRO_SIM_BATCH" not in os.environ

    def test_export_restores_on_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
        with pytest.raises(RuntimeError):
            with RunConfig(sim_batch=3).export():
                raise RuntimeError("boom")
        assert "REPRO_SIM_BATCH" not in os.environ


class TestEntryPoints:
    def test_run_jobs_config_no_warning(self, recwarn):
        result = run_jobs(
            _specs(), cache=ResultCache(), config=RunConfig(sim_batch=1)
        )
        assert len(result.records) == 2
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_run_sweep_reads_env_through_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BATCH", "2")
        sweep = SweepSpec.make(
            "test_planarity", families=["grid"], ns=[36],
            epsilon=[0.5], seeds=[0],
        )
        result = run_sweep(sweep)  # default config resolves the env knob
        assert len(result.records) == 1
