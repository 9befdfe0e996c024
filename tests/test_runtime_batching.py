"""Runtime-side batching: coalescing, transparent expansion, accounting.

The executor folds eligible same-cell simulator trials into
``simulate_batch`` jobs and re-expands the results, so every consumer
-- record lists, caches, cost books, all backends -- observes exactly
what a scalar run would have produced.  These tests pin the grouping
rules, the record/cache/cost transparency on the serial and process
backends, the async wire round-trip of batch specs, and the env-var
knob.
"""

from __future__ import annotations

from repro.congest.plane import PLANE_ENV_VAR
from repro.runtime import (
    BATCH_ENV_VAR,
    AsyncBackend,
    CostBook,
    JobSpec,
    ResultCache,
    RunConfig,
    batchable,
    coalesce,
    make_batch_spec,
    run_jobs,
    run_sweep,
    SweepSpec,
)
from repro.runtime.batching import expand_batch_record
from repro.runtime.jobs import run_job


def sim_spec(seed=0, program="bfs", profile="fast", n=30, graph_seed=7, **kw):
    return JobSpec.make(
        "simulate_program",
        family="grid",
        n=n,
        seed=seed,
        graph_seed=graph_seed,
        program=program,
        profile=profile,
        **kw,
    )


FLEET = [sim_spec(seed=s) for s in range(6)]


# -- eligibility and grouping -------------------------------------------------


def test_batchable_requires_fast_profile_and_known_program():
    assert batchable(sim_spec())
    assert not batchable(sim_spec(profile="faithful"))
    assert not batchable(sim_spec(profile=None))
    assert not batchable(
        JobSpec.make("test_planarity", family="grid", n=30, seed=0)
    )


def test_batchable_respects_plane_env(monkeypatch):
    monkeypatch.setenv(PLANE_ENV_VAR, "dict")
    assert not batchable(sim_spec())
    monkeypatch.setenv(PLANE_ENV_VAR, "dense")
    assert batchable(sim_spec())


def test_coalesce_groups_chunks_and_passes_singletons_through():
    specs = (
        [sim_spec(seed=s) for s in range(5)]
        + [sim_spec(seed=9, profile="faithful")]  # ineligible: untouched
        + [sim_spec(seed=s, program="storm", storm_rounds=4) for s in (0, 1)]
        + [sim_spec(seed=99, n=60)]  # different cell: group of one
    )
    dispatch, sources = coalesce(specs, 4)
    covered = sorted(i for group in sources for i in group)
    assert covered == list(range(len(specs)))
    kinds = [(d.kind, len(s)) for d, s in zip(dispatch, sources)]
    assert kinds == [
        ("simulate_batch", 4),  # seeds 0-3
        ("simulate_program", 1),  # seed 4: a chunk of one stays scalar
        ("simulate_program", 1),  # faithful passthrough
        ("simulate_batch", 2),  # the storm pair
        ("simulate_program", 1),  # the n=60 singleton
    ]
    batch = dispatch[0]
    assert batch.params["seeds"] == (0, 1, 2, 3)
    assert batch.params["program"] == "bfs"


def test_coalesce_disabled_at_limit_one():
    dispatch, sources = coalesce(FLEET, 1)
    assert dispatch == FLEET
    assert sources == [[i] for i in range(len(FLEET))]


def test_batch_spec_survives_wire_round_trip():
    batch = make_batch_spec(FLEET)
    clone = JobSpec.from_payload(batch.to_payload())
    assert clone == batch
    assert clone.params["seeds"] == tuple(s.seed for s in FLEET)


def test_batch_record_expands_to_scalar_records():
    batch = make_batch_spec(FLEET)
    record = run_job(batch)
    trials = expand_batch_record(record)
    assert record["trials_n"] == len(FLEET)
    scalar = [run_job(spec) for spec in FLEET]
    assert trials == scalar


# -- executor transparency ----------------------------------------------------


def test_run_jobs_batched_matches_unbatched():
    base = run_jobs(FLEET)
    batched = run_jobs(FLEET, config=RunConfig(sim_batch=4))
    assert batched.records == base.records
    assert batched.executed == base.executed == len(FLEET)


def test_run_jobs_batched_with_cache_then_scalar_rerun(tmp_path):
    cache = ResultCache(disk_dir=tmp_path / "store")
    first = run_jobs(FLEET, cache=cache, config=RunConfig(sim_batch=8))
    assert first.cache_stats.misses == len(FLEET)
    assert first.cache_stats.stores == len(FLEET)
    # A later *unbatched* run replays entirely from the per-trial cache.
    second = run_jobs(FLEET, cache=cache)
    assert second.cache_stats.misses == 0
    assert second.records == first.records


def test_cost_book_gets_amortized_per_trial_samples():
    book = CostBook()
    run_jobs(FLEET, cost_book=book, config=RunConfig(sim_batch=8))
    count, total = book._pending[("simulate_program", 30)]
    assert count == len(FLEET)
    assert total > 0
    assert ("simulate_batch", 30) not in book._pending


def test_process_backend_ships_batches():
    base = run_jobs(FLEET)
    batched = run_jobs(
        FLEET, backend="process", config=RunConfig(sim_batch=3)
    )
    assert batched.records == base.records


def test_async_backend_ships_batches(tmp_path):
    base = run_jobs(FLEET)
    cache = ResultCache(disk_dir=tmp_path / "store")
    batched = run_jobs(
        FLEET,
        backend=AsyncBackend(max_workers=2, store_dir=str(tmp_path / "store")),
        cache=cache,
        config=RunConfig(sim_batch=3),
    )
    assert batched.records == base.records
    # The expanded per-trial records landed in the cache despite the
    # workers persisting only batch records.
    rerun = run_jobs(FLEET, cache=cache)
    assert rerun.cache_stats.misses == 0


def test_env_var_enables_batching(monkeypatch):
    monkeypatch.setenv(BATCH_ENV_VAR, "4")
    dispatch, _sources = coalesce(FLEET)
    assert [d.kind for d in dispatch] == ["simulate_batch", "simulate_batch"]
    base = run_jobs(FLEET)
    batched = run_jobs(FLEET)  # picks the env knob up inside iter_jobs
    assert batched.records == base.records


def test_run_sweep_batched_matches_unbatched():
    sweep = SweepSpec.make(
        "simulate_program",
        families=["grid"],
        ns=[30],
        seeds=[0, 1, 2, 3],
        program=["flood", "storm"],
        profile=["fast"],
        storm_rounds=[4],
    )
    base = run_sweep(sweep)
    batched = run_sweep(sweep, config=RunConfig(sim_batch=4))
    assert batched.records == base.records
    assert batched.summary()["jobs"] == base.summary()["jobs"]


# -- auto batch sizing --------------------------------------------------------


def test_auto_batch_fixed_default_without_history():
    from repro.runtime import AUTO_BATCH_DEFAULT, auto_batch_size

    assert auto_batch_size(None, FLEET) == AUTO_BATCH_DEFAULT
    from repro.runtime.scheduler import CostModel

    assert auto_batch_size(CostModel(), FLEET) == AUTO_BATCH_DEFAULT


def test_auto_batch_sizes_from_measured_trial_cost():
    from repro.runtime import (
        AUTO_BATCH_MAX,
        AUTO_TARGET_SECONDS,
        auto_batch_size,
    )
    from repro.runtime.scheduler import CostModel

    cheap = CostModel(samples={"simulate_program": {30: 0.01}})
    assert auto_batch_size(cheap, FLEET) == int(AUTO_TARGET_SECONDS / 0.01)
    slow = CostModel(samples={"simulate_program": {30: 2.0}})
    assert auto_batch_size(slow, FLEET) == 1  # batching would not amortize
    free = CostModel(samples={"simulate_program": {30: 1e-6}})
    assert auto_batch_size(free, FLEET) == AUTO_BATCH_MAX


def test_resolve_batch_tolerates_auto(monkeypatch):
    from repro.runtime import AUTO_BATCH_DEFAULT, resolve_batch

    assert resolve_batch("auto") == AUTO_BATCH_DEFAULT
    assert resolve_batch("8") == 8
    monkeypatch.setenv(BATCH_ENV_VAR, "auto")
    assert resolve_batch() == AUTO_BATCH_DEFAULT


def test_run_sweep_auto_batch_matches_unbatched(tmp_path):
    """``sim_batch="auto"``: first run seeds the cost table, second run
    sizes batches from it -- records identical to scalar runs and the
    resume is a 100% hit (auto sizing cannot perturb cache keys)."""
    sweep = SweepSpec.make(
        "simulate_program",
        families=["grid"],
        ns=[30],
        seeds=[0, 1, 2, 3],
        program=["bfs"],
        profile=["fast"],
    )
    base = run_sweep(sweep)
    cache = ResultCache(disk_dir=tmp_path / "store")
    first = run_sweep(
        sweep, cache=cache, config=RunConfig(sim_batch="auto")
    )
    assert first.records == base.records
    assert first.batch.executed == len(first.records)
    cache2 = ResultCache(disk_dir=tmp_path / "store")
    second = run_sweep(
        sweep, cache=cache2, config=RunConfig(sim_batch="auto"), resume=True
    )
    assert second.records == base.records
    assert second.batch.executed == 0


# -- padding-waste bound ------------------------------------------------------


def test_resolve_pad_waste_arg_env_default(monkeypatch):
    import pytest

    from repro.congest.batch import WASTE_ENV_VAR, resolve_pad_waste

    monkeypatch.delenv(WASTE_ENV_VAR, raising=False)
    assert resolve_pad_waste() == 4.0
    monkeypatch.setenv(WASTE_ENV_VAR, "2.5")
    assert resolve_pad_waste() == 2.5
    assert resolve_pad_waste(8) == 8.0  # explicit arg beats the env
    with pytest.raises(ValueError):
        resolve_pad_waste(0.5)
    monkeypatch.setenv(WASTE_ENV_VAR, "0.25")
    with pytest.raises(ValueError):
        resolve_pad_waste()


def test_pad_groups_reads_waste_env(monkeypatch):
    import networkx as nx

    from repro.congest import compile_topology, pad_groups
    from repro.congest.batch import WASTE_ENV_VAR

    topologies = [compile_topology(nx.path_graph(n)) for n in (4, 8, 64)]
    monkeypatch.delenv(WASTE_ENV_VAR, raising=False)
    default_groups = pad_groups(topologies, limit=8)
    monkeypatch.setenv(WASTE_ENV_VAR, "1.0")
    tight = pad_groups(topologies, limit=8)
    # A waste bound of 1 forbids any padding: every distinct slot count
    # lands in its own group, tighter than the 4.0 default's split.
    assert len(tight) == 3
    assert len(default_groups) < len(tight)


def test_ragged_batch_respects_waste_bound(monkeypatch):
    """A ragged (unpinned-graph) batch splits through ``pad_groups``
    inside the job; under the tightest bound the record still expands
    to exactly the scalar per-trial records."""
    from repro.congest.batch import WASTE_ENV_VAR

    members = [
        JobSpec.make(
            "simulate_program",
            family="planar-sparse",
            n=24,
            seed=s,
            program="bfs",
            profile="fast",
        )
        for s in range(4)
    ]
    scalar = [run_job(spec) for spec in members]
    batch = make_batch_spec(members)
    monkeypatch.setenv(WASTE_ENV_VAR, "1.0")
    assert expand_batch_record(run_job(batch)) == scalar


def test_run_sweep_batch_waste_exports_and_restores_env(monkeypatch):
    import os

    from repro.congest.batch import WASTE_ENV_VAR

    monkeypatch.setenv(WASTE_ENV_VAR, "3.0")
    sweep = SweepSpec.make(
        "simulate_program",
        families=["grid"],
        ns=[30],
        seeds=[0, 1, 2, 3],
        program=["bfs"],
        profile=["fast"],
    )
    base = run_sweep(sweep)
    bounded = run_sweep(
        sweep, config=RunConfig(sim_batch=4, sim_batch_waste=1.5)
    )
    assert bounded.records == base.records
    # The flag was exported only for the sweep's duration.
    assert os.environ[WASTE_ENV_VAR] == "3.0"
