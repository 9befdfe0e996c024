"""E16 -- dense-index pipeline: CSR-native partition + Stage II throughput.

Claim reproduced (engineering, not paper): porting the emulated
partition/stage2 layer onto the compiled topology's CSR arrays and int
ids removes the networkx-view and dict-churn constant factors without
changing a single output.  Gated (and run in CI's bench-smoke job):

* the dense partition engine is >= 3x the legacy dict engine on the
  n=2000 Delaunay partition;
* the end-to-end planarity tester (dense Stage I + int Stage II) is
  >= 1.5x the seed path (legacy Stage I + the oracle's view path);
* the same tester is >= 2x "dense + dict Stage II", the oracle's
  dict-copy extraction + dict LR + Fenwick pipeline that shipped
  before Stage II moved to int ids.  Timed A/B-interleaved in this
  process; the gate is the median of the pair ratios;
* all pipelines produce identical partitions, phase stats, ledgers,
  and per-part verdicts (the full differential suite lives in
  ``tests/test_partition_dense.py`` / ``tests/test_stage2_native.py``).

The gate sizes are fixed at n=2000 regardless of ``REPRO_BENCH_QUICK``
-- the speedup claim is specifically about that scale; quick mode only
trims the repeat count.
"""

from __future__ import annotations

import statistics
import time

import pytest

from _harness import quick_mode, save_table
from repro.analysis.tables import Table
from repro.congest.topology import compile_topology
from repro.graphs import make_planar
from repro.partition import partition_stage1
from repro.testers import _differential as oracle
from repro.testers.planarity import PlanarityTestConfig
from repro.testers.planarity import test_planarity as run_planarity

N = 2000
EPSILON = 0.1
REPEATS = 2 if quick_mode() else 4
PAIRS = 5 if quick_mode() else 9

PARTITION_GATE = 3.0
TESTER_GATE = 1.5
INT_STAGE2_GATE = 2.0


def _best(fn):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _interleaved(control, candidate):
    """Median control/candidate ratio over A/B-interleaved pairs.

    Returns ``(ratio, control_s, candidate_s, control_result,
    candidate_result)`` with the medians of each side's times.
    """
    control_times, candidate_times, ratios = [], [], []
    control_result = candidate_result = None
    for _ in range(PAIRS):
        control_s, control_result = _timed(control)
        candidate_s, candidate_result = _timed(candidate)
        control_times.append(control_s)
        candidate_times.append(candidate_s)
        ratios.append(control_s / candidate_s)
    return (
        statistics.median(ratios),
        statistics.median(control_times),
        statistics.median(candidate_times),
        control_result,
        candidate_result,
    )


def _verdicts(result):
    return [vars(verdict) for verdict in result.part_verdicts]


@pytest.fixture(scope="module")
def pipeline_table():
    graph = make_planar("delaunay", N, seed=0)
    compile_topology(graph).edge_arrays()  # timings cover the sweeps only

    legacy_time, legacy = _best(
        lambda: partition_stage1(graph, epsilon=EPSILON, engine="legacy")
    )
    dense_time, dense = _best(
        lambda: partition_stage1(graph, epsilon=EPSILON, engine="dense")
    )
    seed_config = PlanarityTestConfig(epsilon=EPSILON, engine="legacy")
    native_config = PlanarityTestConfig(epsilon=EPSILON)
    seed_tester_time, seed_result = _best(
        lambda: oracle.test_planarity(
            graph, seed=0, config=seed_config, native=False
        )
    )
    native_tester_time, native_result = _best(
        lambda: run_planarity(graph, seed=0, config=native_config)
    )
    int_speedup, dict_time, int_time, dict_result, int_result = _interleaved(
        lambda: oracle.test_planarity(graph, seed=0, config=native_config),
        lambda: run_planarity(graph, seed=0, config=native_config),
    )

    assert dense.partition.size == legacy.partition.size
    assert dense.partition.cut_size() == legacy.partition.cut_size()
    assert dense.rounds == legacy.rounds
    assert [vars(s) for s in dense.phases] == [vars(s) for s in legacy.phases]
    assert native_result.accepted == seed_result.accepted
    assert native_result.rounds == seed_result.rounds
    assert _verdicts(native_result) == _verdicts(seed_result)
    assert _verdicts(int_result) == _verdicts(dict_result)

    partition_speedup = legacy_time / dense_time
    tester_speedup = seed_tester_time / native_tester_time

    table = Table(
        f"E16: dense-index pipeline on delaunay n={N}, eps={EPSILON}",
        ["workload", "engine", "wall s", "speedup", "gate", "identical"],
    )
    table.add_row("partition", "legacy (seed)", round(legacy_time, 4), 1.0, "-", "-")
    table.add_row(
        "partition",
        "dense (CSR)",
        round(dense_time, 4),
        round(partition_speedup, 2),
        f">={PARTITION_GATE}x",
        "yes",
    )
    table.add_row(
        "tester e2e", "legacy (seed)", round(seed_tester_time, 4), 1.0, "-", "-"
    )
    table.add_row(
        "tester e2e",
        "dense + int Stage II",
        round(native_tester_time, 4),
        round(tester_speedup, 2),
        f">={TESTER_GATE}x",
        "yes",
    )
    table.add_row(
        "tester e2e",
        "dense + dict Stage II (oracle)",
        round(dict_time, 4),
        1.0,
        "-",
        "-",
    )
    table.add_row(
        "tester e2e",
        "dense + int Stage II (A/B vs oracle)",
        round(int_time, 4),
        round(int_speedup, 2),
        f">={INT_STAGE2_GATE}x",
        "yes",
    )
    save_table(
        table,
        "e16_dense_pipeline.md",
        metrics={
            "n": N,
            "epsilon": EPSILON,
            "repeats": REPEATS,
            "partition_legacy_s": round(legacy_time, 6),
            "partition_dense_s": round(dense_time, 6),
            "partition_speedup": round(partition_speedup, 3),
            "partition_gate": PARTITION_GATE,
            "tester_seed_s": round(seed_tester_time, 6),
            "tester_native_s": round(native_tester_time, 6),
            "tester_speedup": round(tester_speedup, 3),
            "tester_gate": TESTER_GATE,
            "pairs": PAIRS,
            "tester_dict_stage2_s": round(dict_time, 6),
            "tester_int_stage2_s": round(int_time, 6),
            "int_stage2_speedup": round(int_speedup, 3),
            "int_stage2_gate": INT_STAGE2_GATE,
        },
    )
    return partition_speedup, tester_speedup, int_speedup


def test_partition_speedup_gate(pipeline_table):
    partition_speedup, _tester, _int = pipeline_table
    assert partition_speedup >= PARTITION_GATE, (
        f"dense partition speedup only {partition_speedup:.2f}x"
    )


def test_tester_speedup_gate(pipeline_table):
    _partition, tester_speedup, _int = pipeline_table
    assert tester_speedup >= TESTER_GATE, (
        f"end-to-end tester speedup only {tester_speedup:.2f}x"
    )


def test_int_stage2_speedup_gate(pipeline_table):
    _partition, _tester, int_speedup = pipeline_table
    assert int_speedup >= INT_STAGE2_GATE, (
        f"int Stage II tester only {int_speedup:.2f}x the dict Stage II "
        "(median of A/B pairs)"
    )


def test_benchmark_dense_partition(benchmark, pipeline_table):
    graph = make_planar("delaunay", N, seed=0)
    result = benchmark(
        lambda: partition_stage1(graph, epsilon=EPSILON, engine="dense")
    )
    assert result.success
