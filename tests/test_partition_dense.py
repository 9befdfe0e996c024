"""Differential tests: the shipped partition engine vs the seed oracle.

The acceptance bar of the CSR-native pipeline: on every bundled
generator (planar and far families alike) and under every kind of node
label, the shipped engine must produce bit-identical partitions -- same
parts, roots, spanning-tree parents and heights -- plus identical phase
statistics, ledger charges, round totals, rejection evidence, and (for
the randomized variant) identical RNG-driven draws.  The seed dict
engine is kept exactly for this comparison in
:mod:`repro.partition._differential`.
"""

from __future__ import annotations

import networkx as nx
import pytest

from _labellings import LABELLINGS
from repro.errors import GraphInputError
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES
from repro.graphs.generators import PLANAR_FAMILIES
from repro.partition import _differential as oracle
from repro.partition import dense_topology, partition_randomized, partition_stage1

N = 150
SEEDS = (0, 1)


def _canonical(result):
    """Everything a Stage1Result exposes, in an order-insensitive shape."""
    parts = {
        part.pid: (part.nodes, dict(part.parents), part.height)
        for part in result.partition.parts.values()
    }
    return (
        parts,
        dict(result.partition.part_of),
        result.success,
        result.rejecting_parts,
        [vars(stats) for stats in result.phases],
        result.ledger.total,
        result.ledger.by_category(),
        [(r.rounds, r.category, r.note) for r in result.ledger.records],
        result.target_cut,
        result.theoretical_phase_cap,
    )


class TestStage1Differential:
    @pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
    def test_planar_families_identical(self, family):
        for seed in SEEDS:
            graph = make_planar(family, N, seed=seed)
            legacy = oracle.partition_stage1(graph, epsilon=0.1)
            dense = partition_stage1(graph, epsilon=0.1)
            assert _canonical(legacy) == _canonical(dense), (family, seed)
            dense.partition.validate()

    @pytest.mark.parametrize("far", sorted(FAR_FAMILIES))
    def test_far_families_identical(self, far):
        graph, _farness = make_far(far, N, seed=0)
        legacy = oracle.partition_stage1(graph, epsilon=0.1)
        dense = partition_stage1(graph, epsilon=0.1)
        assert _canonical(legacy) == _canonical(dense), far
        assert legacy.success == dense.success

    def test_eps_n_target_identical(self):
        graph = make_planar("delaunay", 200, seed=3)
        n = graph.number_of_nodes()
        legacy = oracle.partition_stage1(
            graph, epsilon=0.2, target_cut=0.2 * n
        )
        dense = partition_stage1(
            graph, epsilon=0.2, target_cut=0.2 * n
        )
        assert _canonical(legacy) == _canonical(dense)

    def test_no_early_stop_identical(self):
        graph = make_planar("grid", 100, seed=0)
        legacy = oracle.partition_stage1(
            graph, epsilon=0.3, early_stop=False, max_phases=4
        )
        dense = partition_stage1(
            graph, epsilon=0.3, early_stop=False, max_phases=4
        )
        assert _canonical(legacy) == _canonical(dense)


class TestRandomizedDifferential:
    @pytest.mark.parametrize("family", ("delaunay", "apollonian", "grid"))
    def test_same_rng_stream(self, family):
        for seed in SEEDS:
            graph = make_planar(family, N, seed=0)
            legacy = oracle.partition_randomized(
                graph, epsilon=0.2, delta=0.1, seed=seed
            )
            dense = partition_randomized(
                graph, epsilon=0.2, delta=0.1, seed=seed
            )
            assert _canonical(legacy) == _canonical(dense), (family, seed)
            assert legacy.trials == dense.trials
            assert legacy.met_target == dense.met_target

    def test_randomized_coloring_variant_identical(self):
        graph = make_planar("tri-grid", 120, seed=0)
        legacy = oracle.partition_randomized(
            graph, epsilon=0.2, delta=0.2, seed=5,
            coloring="randomized",
        )
        dense = partition_randomized(
            graph, epsilon=0.2, delta=0.2, seed=5,
            coloring="randomized",
        )
        assert _canonical(legacy) == _canonical(dense)

    @pytest.mark.parametrize(
        "family",
        ("grid", "tri-grid", "apollonian", "delaunay", "planar-sparse",
         "outerplanar", "tree"),
    )
    def test_vectorized_selection_matches_legacy_and_rng_stream(self, family):
        """The vectorized Theorem 4 selection draws the exact edges of
        the sequential loop *and* leaves the RNG in the same state, on
        the singleton aux of every bundled family."""
        import random

        from repro.congest.topology import compile_topology
        from repro.partition.dense import (
            DensePartitionState,
            weighted_selection_dense,
        )

        graph = make_planar(family, 150, seed=0)
        aux = DensePartitionState(compile_topology(graph)).build_aux()
        for trials in (1, 2, 5):
            legacy_rng = random.Random(1234)
            dense_rng = random.Random(1234)
            legacy = oracle.weighted_edge_selection(aux, trials, legacy_rng)
            dense = weighted_selection_dense(aux, trials, dense_rng)
            assert legacy == dense, (family, trials)
            # Same draws consumed: subsequent randomness stays aligned.
            assert legacy_rng.getstate() == dense_rng.getstate()


class TestLabelBoundary:
    """Any hashable labels run the one engine, relabelled at the boundary."""

    @pytest.mark.parametrize("labelling", sorted(LABELLINGS))
    @pytest.mark.parametrize("family", ("delaunay", "apollonian", "grid"))
    def test_stage1_identical_under_labelling(self, labelling, family):
        for seed in (0, 1, 2):
            graph = LABELLINGS[labelling](make_planar(family, N, seed=seed), seed)
            legacy = oracle.partition_stage1(graph, epsilon=0.1)
            dense = partition_stage1(graph, epsilon=0.1)
            assert _canonical(legacy) == _canonical(dense), (family, seed)
            dense.partition.validate()

    @pytest.mark.parametrize("labelling", sorted(LABELLINGS))
    @pytest.mark.parametrize("coloring", ("cole-vishkin", "randomized"))
    def test_randomized_identical_under_labelling(self, labelling, coloring):
        for family in ("delaunay", "apollonian", "grid"):
            for seed in (0, 1, 2):
                graph = LABELLINGS[labelling](
                    make_planar(family, N, seed=seed), seed
                )
                legacy = oracle.partition_randomized(
                    graph, epsilon=0.2, delta=0.1, seed=seed, coloring=coloring
                )
                dense = partition_randomized(
                    graph, epsilon=0.2, delta=0.1, seed=seed, coloring=coloring
                )
                assert _canonical(legacy) == _canonical(dense), (family, seed)

    @pytest.mark.parametrize("labelling", sorted(LABELLINGS))
    def test_far_rejection_identical_under_labelling(self, labelling):
        for far in sorted(FAR_FAMILIES):
            graph, _farness = make_far(far, N, seed=0)
            graph = LABELLINGS[labelling](graph, 0)
            legacy = oracle.partition_stage1(graph, epsilon=0.1)
            dense = partition_stage1(graph, epsilon=0.1)
            assert _canonical(legacy) == _canonical(dense), far

    def test_int_labels_reuse_compiled_topology(self):
        from repro.congest.topology import compile_topology

        graph = make_planar("grid", 36, seed=0)
        assert dense_topology(graph) is compile_topology(graph)
        assert partition_stage1(graph, epsilon=0.5).dense_state.labels == tuple(
            range(graph.number_of_nodes())
        )

    def test_exotic_labels_relabel_at_boundary(self):
        graph = nx.path_graph(["b", ("a", 1), 10, "a"])
        topology = dense_topology(graph)
        # Dense ids follow id_key order: ints first, then repr order.
        assert topology.nodes == (10, "a", "b", ("a", 1))
        assert [topology.index[v] for v in topology.nodes] == [0, 1, 2, 3]
        result = partition_stage1(graph, epsilon=0.5)
        assert result.success
        assert set(result.partition.part_of) == set(graph.nodes())
        assert result.dense_state.labels == topology.nodes

    def test_huge_int_labels_seed_exactly(self):
        """Ids beyond int64 headroom seed Cole-Vishkin with exact ints."""
        base = make_planar("delaunay", N, seed=1)
        graph = nx.relabel_nodes(base, {v: 2**63 + 7 * v for v in base})
        for result, legacy in (
            (
                partition_stage1(graph, epsilon=0.1),
                oracle.partition_stage1(graph, epsilon=0.1),
            ),
            (
                partition_randomized(graph, epsilon=0.2, seed=3),
                oracle.partition_randomized(graph, epsilon=0.2, seed=3),
            ),
        ):
            assert _canonical(result) == _canonical(legacy)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphInputError, match="at least one node"):
            partition_stage1(nx.Graph(), epsilon=0.5)
        with pytest.raises(GraphInputError, match="at least one node"):
            partition_randomized(nx.Graph(), epsilon=0.5)
