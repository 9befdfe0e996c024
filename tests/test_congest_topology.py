"""Compiled topologies (repro.congest.topology) and their reuse paths."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest import (
    CompiledTopology,
    CongestNetwork,
    compile_topology,
    default_bandwidth_bits,
    reset_topology_stats,
    topology_stats,
)
from repro.errors import GraphInputError
from repro.runtime import JobSpec, ResultCache, SerialBackend, run_jobs


class TestCompiledTopology:
    def test_dense_indices_follow_sorted_ids(self):
        graph = nx.Graph([(10, 3), (3, 7), (7, 10)])
        topo = CompiledTopology(graph)
        assert topo.nodes == (3, 7, 10)
        assert topo.index == {3: 0, 7: 1, 10: 2}

    def test_csr_rows_match_sorted_adjacency(self):
        graph = nx.path_graph(5)
        graph.add_edge(0, 4)
        topo = CompiledTopology(graph)
        for v in graph.nodes():
            i = topo.index[v]
            row = list(topo.neighbor_indices(i))
            expected = [topo.index[w] for w in sorted(graph.neighbors(v))]
            assert row == expected
            assert topo.neighbor_index_sets[i] == frozenset(expected)

    def test_neighbor_tuples_and_sets(self):
        graph = nx.cycle_graph(6)
        topo = CompiledTopology(graph)
        for v in graph.nodes():
            assert topo.neighbors[v] == tuple(sorted(graph.neighbors(v)))
            assert topo.neighbor_sets[v] == set(graph.neighbors(v))

    def test_degree_table(self):
        graph = nx.star_graph(4)  # center 0 with 4 leaves
        topo = CompiledTopology(graph)
        assert topo.degree(0) == 4
        assert all(topo.degree(v) == 1 for v in range(1, 5))
        assert list(topo.degrees) == [4, 1, 1, 1, 1]

    def test_bandwidth_budget_precomputed(self):
        graph = nx.path_graph(9)
        topo = CompiledTopology(graph)
        assert topo.bandwidth_bits == default_bandwidth_bits(9)

    def test_validation_moved_into_topology(self):
        with pytest.raises(GraphInputError):
            CompiledTopology(nx.DiGraph([(0, 1)]))
        with pytest.raises(GraphInputError):
            CompiledTopology(nx.Graph())
        loop = nx.Graph()
        loop.add_edge(0, 0)
        with pytest.raises(GraphInputError):
            CompiledTopology(loop)
        with pytest.raises(GraphInputError):
            CompiledTopology(nx.MultiGraph([(0, 1), (0, 1)]))


class TestCompileMemo:
    def test_same_graph_object_compiles_once(self):
        reset_topology_stats()
        graph = nx.cycle_graph(8)
        first = compile_topology(graph)
        second = compile_topology(graph)
        assert first is second
        stats = topology_stats()
        assert stats.compiled == 1
        assert stats.reused == 1

    def test_mutated_graph_recompiles(self):
        # Memo hits whose node/edge counts drifted are stale and must
        # recompile (same-count rewires remain the caller's problem).
        graph = nx.path_graph(4)
        first = compile_topology(graph)
        graph.add_edge(0, 3)
        second = compile_topology(graph)
        assert second is not first
        assert second.neighbor_sets[0] == {1, 3}
        assert compile_topology(graph) is second

    def test_distinct_objects_compile_separately(self):
        reset_topology_stats()
        compile_topology(nx.cycle_graph(8))
        compile_topology(nx.cycle_graph(8))
        assert topology_stats().compiled == 2

    def test_networks_share_topology(self):
        graph = nx.path_graph(6)
        net1 = CongestNetwork(graph)
        net2 = CongestNetwork(graph, seed=3)
        assert net1.topology is net2.topology

    def test_explicit_topology_accepted(self):
        graph = nx.path_graph(4)
        topo = compile_topology(graph)
        net = CongestNetwork(topology=topo)
        assert net.graph is graph
        assert net.n == 4

    def test_mismatched_topology_rejected(self):
        topo = compile_topology(nx.path_graph(4))
        with pytest.raises(GraphInputError):
            CongestNetwork(nx.path_graph(4), topology=topo)

    def test_network_requires_graph_or_topology(self):
        with pytest.raises(GraphInputError):
            CongestNetwork()

    def test_compiled_graph_is_freed(self):
        """The memo's value must not keep its own key alive."""
        import gc
        import weakref

        from repro.congest.topology import _memo

        graph = nx.path_graph(6)
        topo = compile_topology(graph)
        assert topo.graph is graph
        ref = weakref.ref(graph)
        gc.collect()
        size = len(_memo)
        del graph
        gc.collect()
        assert ref() is None
        assert len(_memo) == size - 1
        assert topo.graph is None
        with pytest.raises(GraphInputError, match="freed"):
            CongestNetwork(topology=topo)


class TestRuntimeTopologyReuse:
    def _trial_specs(self, trials):
        # Same graph coordinates across all trials; distinct configs so
        # nothing deduplicates away.
        return [
            JobSpec.make(
                "simulate_program",
                family="grid",
                n=25,
                seed=0,
                program="bfs",
                trial=trial,
            )
            for trial in range(trials)
        ]

    def test_cached_sweep_compiles_topology_once(self):
        reset_topology_stats()
        batch = run_jobs(
            self._trial_specs(4), backend=SerialBackend(), cache=ResultCache()
        )
        assert batch.executed == 4
        assert topology_stats().compiled == 1  # acceptance criterion

    def test_uncached_sweep_compiles_topology_once(self):
        reset_topology_stats()
        batch = run_jobs(self._trial_specs(3), backend=SerialBackend())
        assert batch.executed == 3
        assert topology_stats().compiled == 1

    def test_graph_seed_splits_topologies(self):
        # delaunay generation is seed-sensitive (grid is not), so two
        # graph seeds really are two topologies.
        reset_topology_stats()
        specs = [
            JobSpec.make(
                "simulate_program",
                family="delaunay",
                n=25,
                seed=7,
                graph_seed=graph_seed,
                program="bfs",
            )
            for graph_seed in (0, 0, 1)
        ]
        run_jobs(specs, backend=SerialBackend(), cache=ResultCache())
        assert topology_stats().compiled == 2  # one per distinct graph


class TestGraphSeed:
    def test_graph_seed_defaults_to_seed(self):
        spec = JobSpec.make("test_planarity", family="grid", n=16, seed=5)
        assert spec.graph_seed is None
        assert spec.effective_graph_seed == 5

    def test_graph_seed_overrides_generation(self):
        pinned = JobSpec.make(
            "test_planarity", family="delaunay", n=32, seed=9, graph_seed=2
        )
        reference = JobSpec.make(
            "test_planarity", family="delaunay", n=32, seed=2
        )
        assert nx.utils.graphs_equal(
            pinned.build_graph(), reference.build_graph()
        )

    def test_canonical_unchanged_when_unset(self):
        spec = JobSpec.make("test_planarity", family="grid", n=16, seed=5)
        assert "graph_seed" not in spec.canonical()

    def test_canonical_includes_graph_seed_when_set(self):
        spec = JobSpec.make(
            "test_planarity", family="grid", n=16, seed=5, graph_seed=1
        )
        assert '"graph_seed":1' in spec.canonical()
