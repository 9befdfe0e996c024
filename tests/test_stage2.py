"""Direct tests for Stage II per-part verification (test_part)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest import RoundLedger
from repro.graphs import make_planar
from repro.partition import Partition, build_part
from repro.testers.stage2 import Stage2Config
from repro.testers.stage2 import test_part as run_part


def whole_graph_part(graph, root=0):
    """Wrap the entire connected graph as a single part."""
    parents = {}
    depths = nx.single_source_shortest_path_length(graph, root)
    for v, d in depths.items():
        if v == root:
            continue
        parents[v] = min(w for w in graph.neighbors(v) if depths[w] == d - 1)
    return build_part(root, graph.nodes(), list(parents.items()))


class TestPartVerdicts:
    def test_planar_part_accepted(self):
        graph = make_planar("delaunay", 120, seed=0)
        part = whole_graph_part(graph)
        verdict = run_part(
            graph, part, n_total=120, rng=random.Random(0),
            config=Stage2Config(epsilon=0.1),
        )
        assert verdict.accepted
        assert verdict.embedding_planar
        assert verdict.reason is None

    def test_k5_part_density_rejected(self, k5):
        part = whole_graph_part(k5)
        verdict = run_part(
            k5, part, n_total=5, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3),
        )
        assert not verdict.accepted
        assert verdict.reason == "density"  # 10 > 3*5-6

    def test_sparse_nonplanar_part_violation_rejected(self, k33):
        # K33: m=9 <= 3*6-6=12 passes density; caught by sampling
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3),
        )
        assert not verdict.accepted
        assert verdict.reason == "violation"
        assert not verdict.embedding_planar

    def test_embedding_failure_mode(self, k33):
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3, reject_on_embedding_failure=True),
        )
        assert verdict.reason == "embedding"

    def test_exact_violation_collection(self, k33):
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3, collect_exact_violations=True),
        )
        assert verdict.violating_exact is not None
        assert verdict.violating_exact > 0

    def test_preorder_criterion_on_nonplanar(self, k33):
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3, criterion="preorder"),
        )
        # soundness of the preorder criterion: detection still possible
        assert verdict.reason in ("violation", None)

    def test_unknown_criterion(self, small_grid):
        part = whole_graph_part(small_grid)
        with pytest.raises(ValueError):
            run_part(
                small_grid, part, n_total=36, rng=random.Random(0),
                config=Stage2Config(epsilon=0.3, criterion="astral"),
            )

    def test_single_node_part(self):
        graph = nx.Graph()
        graph.add_node(0)
        part = build_part(0, [0], [])
        verdict = run_part(
            graph, part, n_total=1, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3),
        )
        assert verdict.accepted
        assert verdict.non_tree_edges == 0

    def test_tree_part_trivially_accepted(self):
        tree = nx.random_labeled_tree(50, seed=1)
        part = whole_graph_part(tree)
        verdict = run_part(
            tree, part, n_total=50, rng=random.Random(0),
            config=Stage2Config(epsilon=0.1),
        )
        assert verdict.accepted
        assert verdict.sampled == 0  # no non-tree edges to sample

    def test_ledger_merging(self):
        graph = make_planar("grid", 64, seed=0)
        part = whole_graph_part(graph)
        ledger = RoundLedger()
        verdict = run_part(
            graph, part, n_total=64, rng=random.Random(0),
            config=Stage2Config(epsilon=0.2), ledger=ledger,
        )
        assert ledger.total == verdict.rounds
        categories = ledger.by_category()
        for expected in ("stage2.bfs", "stage2.counts", "stage2.embedding",
                         "stage2.labels", "stage2.sampling"):
            assert expected in categories, expected

    def test_rounds_scale_with_depth(self):
        # Compare the BFS phase alone: the shallow graph has far more
        # non-tree edges, so total rounds are dominated by sampling there.
        shallow = make_planar("apollonian", 100, seed=0)  # small diameter
        deep = nx.path_graph(100)
        deep.add_edge(0, 99)  # one non-tree edge so sampling runs
        ledger_shallow, ledger_deep = RoundLedger(), RoundLedger()
        v_shallow = run_part(
            shallow, whole_graph_part(shallow), n_total=100,
            rng=random.Random(0), config=Stage2Config(epsilon=0.2),
            ledger=ledger_shallow,
        )
        v_deep = run_part(
            deep, whole_graph_part(deep), n_total=100,
            rng=random.Random(0), config=Stage2Config(epsilon=0.2),
            ledger=ledger_deep,
        )
        assert v_deep.bfs_depth > v_shallow.bfs_depth
        assert (
            ledger_deep.by_category()["stage2.bfs"]
            > ledger_shallow.by_category()["stage2.bfs"]
        )


class TestStage2Spans:
    """Traced Stage II: each step's span carries the rounds charged in it."""

    SPAN_CATEGORY = {
        "stage2.embed": "stage2.embedding",
        "stage2.labels": "stage2.labels",
        "stage2.sample": "stage2.sampling",
    }

    @pytest.fixture
    def tracer(self, monkeypatch):
        from repro.telemetry import (
            TELEMETRY_ENV_VAR,
            TRACE_DIR_ENV_VAR,
            configure,
            get_tracer,
            reset,
        )

        monkeypatch.delenv(TRACE_DIR_ENV_VAR, raising=False)
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "1")
        reset()
        yield get_tracer()
        configure(enabled=False)

    def test_span_rounds_sum_to_part_rounds(self, tracer):
        from repro.partition import partition_stage1

        graph = make_planar("delaunay", 300, seed=0)
        rng = random.Random(5)
        nodes = list(graph)
        for _ in range(12):  # sparse non-planar parts reach the sampler
            graph.add_edge(*rng.sample(nodes, 2))
        partition = partition_stage1(graph, epsilon=0.3).partition
        tracer.drain()
        reasons = set()
        for config in (
            Stage2Config(epsilon=0.1),
            Stage2Config(epsilon=0.1, reject_on_embedding_failure=True),
        ):
            for pid, part in partition.parts.items():
                ledger = RoundLedger()
                verdict = run_part(
                    graph, part, n_total=300, rng=random.Random(0),
                    config=config, ledger=ledger,
                )
                reasons.add(verdict.reason)
                spans = [ev for ev in tracer.drain() if ev["ev"] == "span"]
                categories = ledger.by_category()
                assert all(ev["attrs"]["pid"] == pid for ev in spans)
                for ev in spans:
                    category = self.SPAN_CATEGORY[ev["name"]]
                    assert ev["attrs"]["rounds"] == categories.get(category, 0)
                outside = categories["stage2.bfs"] + categories.get(
                    "stage2.counts", 0
                )
                traced = sum(ev["attrs"]["rounds"] for ev in spans)
                assert traced + outside == verdict.rounds, pid
        assert {None, "violation", "embedding"} <= reasons


class TestRemark1Coloring:
    """Randomized coloring with abstention (Remark 1 trade-off)."""

    def test_proper_among_participants(self):
        from repro.partition import randomized_coloring_emulated

        parents = {i: (i + 1) % 301 for i in range(301)}  # directed cycle
        colors, abstaining = randomized_coloring_emulated(
            parents, rounds=8, rng=random.Random(1)
        )
        for v, p in parents.items():
            if colors[v] is not None and colors[p] is not None:
                assert colors[v] != colors[p]
        assert abstaining <= 301

    def test_abstention_rate_drops_with_rounds(self):
        from repro.partition import randomized_coloring_emulated

        parents = {i: i - 1 if i > 0 else None for i in range(2000)}
        few = sum(
            randomized_coloring_emulated(parents, 1, random.Random(s))[1]
            for s in range(5)
        )
        many = sum(
            randomized_coloring_emulated(parents, 10, random.Random(s))[1]
            for s in range(5)
        )
        assert many <= few

    def test_invalid_rounds(self):
        from repro.errors import PartitionError
        from repro.partition import randomized_coloring_emulated

        with pytest.raises(PartitionError):
            randomized_coloring_emulated({0: None}, rounds=0, rng=random.Random(0))

    def test_partition_with_randomized_coloring(self):
        from repro.partition import partition_randomized

        graph = make_planar("grid", 200, seed=0)
        result = partition_randomized(
            graph, epsilon=0.25, delta=0.2, seed=4, coloring="randomized"
        )
        result.partition.validate()
        assert result.met_target

    def test_unknown_coloring(self, small_grid):
        from repro.partition import partition_randomized

        with pytest.raises(ValueError):
            partition_randomized(
                small_grid, epsilon=0.3, seed=0, coloring="chromatic"
            )

    def test_marking_skips_abstainers(self):
        from repro.partition import mark_and_choose

        out_edge = {0: 1, 1: 2, 2: None}
        weights = {(0, 1): 5, (1, 2): 7}
        colors = {0: 0, 1: None, 2: 1}  # node 1 abstained
        result = mark_and_choose(out_edge, weights, colors)
        # no edge incident to the abstainer may be marked
        assert all(1 not in edge for edge in result.marked_edges)
