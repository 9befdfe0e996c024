"""Differential suite: shipped applications/spanner vs the seed oracle.

The CSR-native layer's contract is *bit identity* with the seed walk
kept in :mod:`repro.partition._differential`: ``build_spanner`` must
produce the same ``SpannerResult`` (tree and connector counts,
guaranteed stretch, edge set, size, rounds), ``measure_stretch`` the
same worst-ratio float (same RNG sample), and the Corollary 16
application testers the same verdicts (accepted, rejecting parts, round
counts) -- across every bundled planar and far-from-planar generator,
for both the deterministic and the seeded randomized partition method,
and under every kind of node label.
"""

from __future__ import annotations

import pytest

import networkx as nx

from _labellings import LABELLINGS
from repro.applications import DenseSpanner, build_spanner, measure_stretch
from repro.errors import GraphInputError
from repro.graphs.far_from_planar import FAR_FAMILIES, make_far
from repro.graphs.generators import PLANAR_FAMILIES, make_planar
from repro.partition import _differential as oracle
from repro.testers.applications import (
    test_bipartiteness as run_bipartiteness,
    test_cycle_freeness as run_cycle_freeness,
)

N = 36

FAMILIES = sorted(PLANAR_FAMILIES) + sorted(FAR_FAMILIES)

METHODS = ("deterministic", "randomized")


@pytest.fixture(scope="module")
def zoo():
    graphs = {}
    for family in sorted(PLANAR_FAMILIES):
        graphs[family] = make_planar(family, N, seed=0)
    for family in sorted(FAR_FAMILIES):
        graphs[family], _farness = make_far(family, N, seed=0)
    return graphs


def edge_set(result):
    if result.dense is not None:
        return {frozenset(e) for e in result.dense.edges()}
    return {frozenset(e) for e in result.spanner.edges()}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_spanner_bit_identical(family, method, zoo):
    graph = zoo[family]
    legacy = oracle.build_spanner(graph, method=method, seed=7)
    dense = build_spanner(graph, method=method, seed=7)
    assert legacy.dense is None
    assert isinstance(dense.dense, DenseSpanner)
    assert dense.tree_edges == legacy.tree_edges
    assert dense.connector_edges == legacy.connector_edges
    assert dense.guaranteed_stretch == legacy.guaranteed_stretch
    assert dense.size == legacy.size
    assert dense.rounds == legacy.rounds
    assert (
        dense.partition_result.success == legacy.partition_result.success
    )
    assert edge_set(dense) == edge_set(legacy)
    # The lazy networkx materialization matches the legacy graph.
    materialized = dense.spanner
    assert set(materialized.nodes()) == set(legacy.spanner.nodes())
    assert {frozenset(e) for e in materialized.edges()} == edge_set(legacy)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_stretch_bit_identical(family, method, zoo):
    graph = zoo[family]
    legacy = oracle.build_spanner(graph, method=method, seed=7)
    dense = build_spanner(graph, method=method, seed=7)
    want = oracle.measure_stretch(graph, legacy.spanner, sample_nodes=6, seed=3)
    # Dense spanner input (the fast path).
    assert measure_stretch(graph, dense.dense, sample_nodes=6, seed=3) == want
    # Networkx spanner input (compiled on the fly).
    assert measure_stretch(graph, legacy.spanner, sample_nodes=6, seed=3) == want
    # Exhaustive sampling (>= n sources) agrees too.
    assert measure_stretch(
        graph, dense.dense, sample_nodes=10**6, seed=3
    ) == oracle.measure_stretch(graph, legacy.spanner, sample_nodes=10**6, seed=3)


@pytest.mark.parametrize("check", ("cycle", "bipartite"))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_application_verdicts_identical(family, method, check, zoo):
    graph = zoo[family]
    runner = run_cycle_freeness if check == "cycle" else run_bipartiteness
    legacy = oracle.run_application(graph, check=check, method=method, seed=11)
    dense = runner(graph, method=method, seed=11)
    assert dense.accepted == legacy.accepted
    assert dense.rejecting_parts == legacy.rejecting_parts
    assert dense.partition_rounds == legacy.partition_rounds
    assert dense.verification_rounds == legacy.verification_rounds
    assert dense.rounds == legacy.rounds


def test_bfs_fallback_matches_scipy_path():
    """The numpy level-synchronous BFS == the scipy C BFS (same hops)."""
    import numpy as np

    from repro.applications.dense import (
        _level_synchronous_distances,
        multi_source_distances,
    )
    from repro.congest.topology import compile_topology

    graph = nx.disjoint_union(
        make_planar("delaunay", 40, seed=2), nx.empty_graph(3)
    )
    arrays = compile_topology(graph).batch_arrays()
    sources = np.asarray([0, 5, 41], dtype=np.int64)
    n = graph.number_of_nodes()
    fast = multi_source_distances(
        arrays.indptr, arrays.indices, arrays.degrees, sources, n
    )
    slow = _level_synchronous_distances(
        arrays.indptr, arrays.indices, arrays.degrees, sources, n
    )
    assert (fast == slow).all()
    assert (fast[:, -1] == -1).all()  # isolated tail nodes unreachable


def test_str_labels_build_dense_spanner():
    graph = nx.relabel_nodes(nx.path_graph(6), lambda v: f"v{v}")
    result = build_spanner(graph)
    assert isinstance(result.dense, DenseSpanner)
    assert result.size == 5
    assert set(result.spanner.nodes()) == set(graph.nodes())
    assert {frozenset(e) for e in result.dense.edges()} == {
        frozenset(e) for e in graph.edges()
    }


def test_dense_stretch_requires_spanning_subgraph():
    graph = make_planar("grid", 25)
    broken = nx.Graph()
    broken.add_nodes_from(graph.nodes())  # no edges: spans nothing
    with pytest.raises(GraphInputError):
        measure_stretch(graph, broken, sample_nodes=4, seed=0)
    with pytest.raises(GraphInputError):
        oracle.measure_stretch(graph, broken, sample_nodes=4, seed=0)


def test_dense_stretch_node_mismatch_falls_back():
    graph = make_planar("grid", 25)
    spanner = oracle.build_spanner(graph).spanner.copy()
    spanner.add_node(10**9)  # extra node: not the input node set
    want = oracle.measure_stretch(graph, spanner, sample_nodes=4, seed=0)
    # The node-set mismatch routes this input to the networkx fold.
    assert measure_stretch(graph, spanner, sample_nodes=4, seed=0) == want


@pytest.mark.parametrize("labelling", sorted(LABELLINGS))
def test_labelled_applications_identical(labelling):
    """Spanner, stretch and Corollary 16 verdicts under every label kind."""
    for family in ("delaunay", "grid", "planted-k5"):
        for seed in (0, 1, 2):
            if family in PLANAR_FAMILIES:
                base = make_planar(family, 120, seed=seed)
            else:
                base, _farness = make_far(family, 120, seed=seed)
            graph = LABELLINGS[labelling](base, seed)
            for method in METHODS:
                legacy = oracle.build_spanner(graph, method=method, seed=seed)
                dense = build_spanner(graph, method=method, seed=seed)
                assert edge_set(dense) == edge_set(legacy)
                assert (dense.tree_edges, dense.connector_edges) == (
                    legacy.tree_edges,
                    legacy.connector_edges,
                )
                assert dense.guaranteed_stretch == legacy.guaranteed_stretch
                assert dense.rounds == legacy.rounds
                want = oracle.measure_stretch(
                    graph, legacy.spanner, sample_nodes=8, seed=seed
                )
                for spanner in (dense.dense, legacy.spanner):
                    assert measure_stretch(
                        graph, spanner, sample_nodes=8, seed=seed
                    ) == want
                for check, runner in (
                    ("cycle", run_cycle_freeness),
                    ("bipartite", run_bipartiteness),
                ):
                    want_v = oracle.run_application(
                        graph, check=check, method=method, seed=seed
                    )
                    got = runner(graph, method=method, seed=seed)
                    assert (
                        got.accepted,
                        got.rejecting_parts,
                        got.partition_rounds,
                        got.verification_rounds,
                    ) == (
                        want_v.accepted,
                        want_v.rejecting_parts,
                        want_v.partition_rounds,
                        want_v.verification_rounds,
                    ), (family, seed, method, check)
