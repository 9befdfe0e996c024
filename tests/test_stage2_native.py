"""Differential tests: the int-indexed Stage II pipeline vs the seed path.

The shipped Stage II extracts each part onto int ids, embeds it with the
int LR core, labels it on int lists and resolves samples against the
vectorized violating mask.  The seed pipeline lives on as the oracle in
``repro.testers._differential``: ``native=False`` is the seed view path
(networkx subgraph views, dict LR, pairwise scan, legacy partition) and
``native=True`` the dict-copy extraction with the Fenwick mask.  These
tests assert identical per-part verdicts, reasons, sampled counts,
round charges, sampler outcomes (witnesses included), RNG draws and
embeddings on planar, far and sparse non-planar inputs, with int and
non-int node labels.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

import repro.testers._differential as oracle
import repro.testers.stage2 as stage2
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES
from repro.graphs.generators import PLANAR_FAMILIES
from repro.partition import partition_stage1
from repro.planarity import check_planarity
from repro.testers.planarity import PlanarityTestConfig, stage2_over_partition
from repro.testers.planarity import test_planarity as run_planarity
from repro.testers.stage2 import Stage2Config, extract_part_subgraphs
from repro.testers.violations import sample_and_detect

SEED_ENGINE = dict(engine="legacy")


def _canonical(result):
    return (
        result.accepted,
        result.rejected_stage,
        result.rejecting_parts,
        result.stage1_rounds,
        result.stage2_rounds,
        [
            (
                verdict.pid,
                verdict.accepted,
                verdict.reason,
                verdict.n,
                verdict.m,
                verdict.non_tree_edges,
                verdict.bfs_depth,
                verdict.embedding_planar,
                verdict.sampled,
                verdict.violating_exact,
                verdict.rounds,
            )
            for verdict in (result.part_verdicts or [])
        ],
    )


def _with_chords(graph, extra, seed):
    """*graph* plus *extra* random non-edges: sparse and non-planar."""
    graph = graph.copy()
    rng = random.Random(seed)
    nodes = list(graph)
    target = graph.number_of_edges() + extra
    while graph.number_of_edges() < target:
        u, v = rng.sample(nodes, 2)
        graph.add_edge(u, v)
    return graph


class TestTesterDifferential:
    @pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
    def test_planar_families_identical(self, family):
        graph = make_planar(family, 150, seed=0)
        for seed in (0, 1):
            shipped = run_planarity(
                graph, seed=seed, config=PlanarityTestConfig(epsilon=0.1)
            )
            legacy = oracle.test_planarity(
                graph,
                seed=seed,
                config=PlanarityTestConfig(epsilon=0.1, **SEED_ENGINE),
                native=False,
            )
            assert _canonical(shipped) == _canonical(legacy), (family, seed)

    @pytest.mark.parametrize("far", sorted(FAR_FAMILIES))
    def test_far_families_identical(self, far):
        graph, certified = make_far(far, 150, seed=0)
        epsilon = min(0.3, max(0.05, certified * 0.9))
        for seed in (0, 1, 2):
            shipped = run_planarity(
                graph, seed=seed, config=PlanarityTestConfig(epsilon=epsilon)
            )
            legacy = oracle.test_planarity(
                graph,
                seed=seed,
                config=PlanarityTestConfig(epsilon=epsilon, **SEED_ENGINE),
                native=False,
            )
            assert _canonical(shipped) == _canonical(legacy), (far, seed)

    def test_exact_violation_analysis_identical(self):
        graph, _ = make_far("planted-k5", 120, seed=0)
        config = PlanarityTestConfig(epsilon=0.1, collect_exact_violations=True)
        shipped = run_planarity(graph, seed=0, config=config)
        for native in (True, False):
            legacy = oracle.test_planarity(
                graph, seed=0, config=config, native=native
            )
            assert shipped.total_violating_exact == legacy.total_violating_exact
            assert _canonical(shipped) == _canonical(legacy)


def _recorded(monkeypatch, module):
    """Record every ``sample_and_detect`` call made through *module*."""
    calls = []
    inner = module.sample_and_detect

    def recording(intervals, sample_target, rng, *args, **kwargs):
        outcome = inner(intervals, sample_target, rng, *args, **kwargs)
        calls.append((list(intervals), sample_target, outcome, rng.getstate()))
        return outcome

    monkeypatch.setattr(module, "sample_and_detect", recording)
    return calls


def _relabel(graph, kind):
    if kind == "int":
        return graph
    if kind == "str":
        # repr order differs from int order ("10" < "9"), and the BFS
        # tie-break falls back to repr order.
        return nx.relabel_nodes(graph, {v: f"n{v}" for v in graph})
    # Mixed ints and tuples: id_key ranks every int before any tuple.
    return nx.relabel_nodes(
        graph, {v: v if v % 3 else (v, "t") for v in graph}
    )


class TestPartDifferential:
    """Stage II alone over one partition, compared part by part."""

    @pytest.mark.parametrize("kind", ["int", "str", "mixed"])
    @pytest.mark.parametrize("criterion", ["corner", "preorder"])
    @pytest.mark.parametrize(
        "family", ["grid", "delaunay", "outerplanar", "planar-sparse"]
    )
    def test_outcomes_witnesses_and_draws(
        self, monkeypatch, family, criterion, kind
    ):
        base = make_planar(family, 160, seed=1)
        graph = _relabel(_with_chords(base, 15, seed=2), kind)
        partition = partition_stage1(graph, epsilon=0.3).partition
        config = Stage2Config(
            epsilon=0.1, criterion=criterion, collect_exact_violations=True
        )
        shipped_calls = _recorded(monkeypatch, stage2)
        oracle_calls = _recorded(monkeypatch, oracle)
        shipped = stage2_over_partition(graph, partition, config, seed=4)
        for native in (True, False):
            oracle_calls.clear()
            legacy = oracle.stage2_over_partition(
                graph, partition, config, seed=4, native=native
            )
            assert shipped[1:] == legacy[1:]
            assert [vars(v) for v in shipped[0]] == [vars(v) for v in legacy[0]]
            assert shipped_calls == oracle_calls
        assert any(call[2].detected for call in shipped_calls)


class TestLRCore:
    def test_rotations_match_dict_lr(self):
        graphs = []
        for family in sorted(PLANAR_FAMILIES):
            for n in (12, 90):
                graph = make_planar(family, n, seed=n)
                graphs.append(graph)
                picked = random.Random(n).sample(list(graph), n // 2)
                graphs.append(graph.subgraph(picked))
        for seed in range(120):
            rng = random.Random(seed)
            n, p = rng.randint(3, 13), rng.uniform(0.1, 0.6)
            graphs.append(nx.gnp_random_graph(n, p, seed=seed))
        graphs.append(_relabel(make_planar("tri-grid", 60, seed=0), "str"))
        graphs.append(_relabel(make_planar("delaunay", 60, seed=0), "mixed"))
        for graph in graphs:
            shipped = check_planarity(graph)
            legacy = oracle.check_planarity(graph)
            assert shipped.is_planar == legacy.is_planar
            if shipped.is_planar:
                # Start-sensitive: to_dict lists each rotation from its
                # first entry.
                assert list(shipped.embedding.to_dict().items()) == list(
                    legacy.embedding.to_dict().items()
                )


class TestLabelAdapters:
    """The label-keyed label functions vs the seed's, outputs in order."""

    @pytest.mark.parametrize("kind", ["int", "str", "mixed"])
    def test_labels_match_seed(self, kind):
        from repro.planarity import identity_rotation
        from repro.testers import labels

        planar = _relabel(make_planar("delaunay", 120, seed=3), kind)
        sparse = _relabel(_with_chords(make_planar("grid", 100, seed=0), 8, 1), kind)
        for graph in (planar, sparse):
            root = next(iter(graph))
            lr = check_planarity(graph)
            rotation = lr.embedding if lr.is_planar else identity_rotation(graph)
            parents, depths = labels.deterministic_bfs_tree(graph, root)
            seed_parents, seed_depths = oracle.deterministic_bfs_tree(graph, root)
            assert list(parents.items()) == list(seed_parents.items())
            assert list(depths.items()) == list(seed_depths.items())
            ranks = labels.embedding_ranks(graph, root, rotation, parents)
            seed_ranks = oracle.embedding_ranks(graph, root, rotation, parents)
            assert list(ranks.items()) == list(seed_ranks.items())
            assert labels.non_tree_intervals(
                graph, parents, ranks
            ) == oracle.non_tree_intervals(graph, parents, ranks)
            found = labels.euler_tour_positions(graph, root, rotation, parents)
            seed = oracle.euler_tour_positions(graph, root, rotation, parents)
            assert found[1] == seed[1]
            assert list(found[0].items()) == list(seed[0].items())
            assert labels.corner_intervals(
                graph, parents, found[0]
            ) == oracle.corner_intervals(graph, parents, found[0])


class TestExtraction:
    def test_subgraphs_match_views_exactly(self):
        graph = make_planar("delaunay", 200, seed=1)
        stage1 = partition_stage1(graph, epsilon=0.2)
        partition = stage1.partition
        subs = extract_part_subgraphs(graph, partition)
        assert set(subs) == set(partition.parts)
        for pid, part in partition.parts.items():
            view = graph.subgraph(part.nodes)
            sub = subs[pid]
            # Same node set and iteration order as the view.
            assert sub.nodes == list(view.nodes())
            assert sub.m == view.number_of_edges()
            for i, node in enumerate(sub.nodes):
                # Same per-row adjacency iteration order.
                assert [sub.nodes[j] for j in sub.adj[i]] == list(view.adj[node])

    @pytest.mark.parametrize("input_is_view", [False, True])
    def test_small_and_large_parts_follow_the_view(self, input_is_view):
        graph = _relabel(make_planar("grid", 100, seed=0), "str")
        if input_is_view:  # a view of a view filters the root graph
            graph = graph.subgraph(list(graph)[5:95])
        nodes = list(graph)
        for size in (10, 44, 45, 46, 49, 50, 51, 80):
            picked = random.Random(size).sample(nodes, size)
            sub = stage2.PartGraph(graph, picked)
            view = graph.subgraph(picked)
            assert sub.nodes == list(view.nodes()), size
            for i, node in enumerate(sub.nodes):
                assert [sub.nodes[j] for j in sub.adj[i]] == list(view.adj[node])

    def test_extraction_shares_parent_data(self):
        graph = nx.path_graph(4)
        graph.nodes[1]["tag"] = "kept"
        graph.edges[1, 2]["weight"] = 7
        stage1 = partition_stage1(graph, epsilon=1.0, max_phases=0)
        subs = oracle.extract_part_subgraphs(graph, stage1.partition)
        merged = {
            node: data
            for sub in subs.values()
            for node, data in sub.nodes(data=True)
        }
        assert merged[1] == {"tag": "kept"}


class TestSamplingFastPath:
    def test_mask_resolution_matches_scan(self):
        rng_intervals = random.Random(7)
        for _trial in range(50):
            k = rng_intervals.randrange(0, 40)
            universe = max(2 * k, 4)
            intervals = []
            for _ in range(k):
                a, b = rng_intervals.sample(range(universe), 2)
                intervals.append((min(a, b), max(a, b)))
            for seed in range(3):
                scan = oracle.sample_and_detect(
                    intervals, 5, random.Random(seed)
                )
                fast = sample_and_detect(
                    intervals, 5, random.Random(seed), universe=universe
                )
                assert scan == fast
