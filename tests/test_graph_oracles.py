"""Differential tests: the graph layer against its previous implementations.

The generators and lower-bound audits were rewritten to run in O(n + m)
under one contract: every rewritten routine builds exactly the same
graph -- same nodes, same adjacency insertion order -- and leaves its
random stream in exactly the same state.  Records, graph fingerprints
and store cache keys depend on that.

The previous implementations live here, verbatim, as the reference:

* ``random_planar`` with a running ``number_of_edges()`` and a DFS
  connectivity check;
* ``_girth_surgery`` restarting ``find_short_cycle`` from the first node
  after every removal;
* ``view_is_tree`` through an unbounded BFS and a networkx subgraph;
* ``planarity_skewness_lower_bound`` computing the girth twice.

G(n, p) is checked against ``nx.gnp_random_graph`` itself.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import (
    all_views_are_trees,
    find_short_cycle,
    girth,
    gnp_far,
    grid_graph,
    lower_bound_instance,
    make_far,
    planarity_skewness_lower_bound,
    random_apollonian,
    random_planar,
    triangulated_grid,
    view_is_tree,
)
from repro.graphs import generators
from repro.graphs.generators import gnp_random_graph
from repro.graphs.lower_bound import _girth_surgery
from repro.graphs.utils import bfs_levels

SEEDS = range(32)


# -- the previous implementations ---------------------------------------------


def legacy_random_planar(n, m=None, seed=None):
    target_m = min(2 * n, 3 * n - 6) if m is None else m
    rng = generators._rng(seed)
    graph = random_apollonian(n, seed=rng.randrange(2**31))
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v in edges:
        if graph.number_of_edges() <= target_m:
            break
        graph.remove_edge(u, v)
        if not _legacy_still_connected_locally(graph, u, v):
            graph.add_edge(u, v)
    return graph


def _legacy_still_connected_locally(graph, u, v):
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in graph.adj[x]:
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def legacy_girth_surgery(graph, target_girth, rng):
    removed = 0
    while True:
        cycle = find_short_cycle(graph, target_girth - 1)
        if cycle is None:
            return removed
        index = rng.randrange(len(cycle))
        u, v = cycle[index], cycle[(index + 1) % len(cycle)]
        graph.remove_edge(u, v)
        removed += 1


def legacy_view_is_tree(graph, node, radius):
    depths = bfs_levels(graph.adj, node)
    ball = {v for v, d in depths.items() if d <= radius}
    sub = graph.subgraph(ball)
    return sub.number_of_edges() == (
        sub.number_of_nodes() - nx.number_connected_components(sub)
    )


def legacy_skewness_lower_bound(graph, use_girth=True):
    total = 0
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        n, m = sub.number_of_nodes(), sub.number_of_edges()
        if n < 3:
            continue
        budget = 3 * n - 6
        if use_girth and m > 0:
            g = girth(sub, upper_bound=3)
            if g != 3 and g != float("inf"):
                g = girth(sub)
            if g != float("inf") and g > 3:
                budget = min(budget, int(g * (n - 2) // (g - 2)))
        total += max(0, m - budget)
    return total


def adjacency(graph):
    """Nodes and every adjacency list, in insertion order."""
    return [(v, list(graph.adj[v])) for v in graph]


class RecordingRandom(random.Random):
    """A ``random.Random`` that the test can reach after the call."""

    made = []

    def __init__(self, seed=None):
        super().__init__(seed)
        RecordingRandom.made.append(self)


# -- random_planar ------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(40, None), (120, 180), (300, 450), (64, 63)])
def test_random_planar_matches_legacy(monkeypatch, n, m):
    monkeypatch.setattr(generators, "_rng", RecordingRandom)
    for seed in SEEDS:
        RecordingRandom.made = []
        new = random_planar(n, m=m, seed=seed)
        new_state = RecordingRandom.made[0].getstate()
        RecordingRandom.made = []
        old = legacy_random_planar(n, m=m, seed=seed)
        old_state = RecordingRandom.made[0].getstate()
        assert adjacency(new) == adjacency(old), (n, m, seed)
        assert new_state == old_state, (n, m, seed)


# -- G(n, p) ------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 120])
@pytest.mark.parametrize("p", [-0.5, 0.0, 1e-9, 0.05, 0.5, 0.999999, 1.0, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_gnp_matches_networkx(n, p, seed):
    ours = gnp_random_graph(n, p, seed)
    reference = nx.gnp_random_graph(n, p, seed=seed)
    assert adjacency(ours) == adjacency(reference)
    assert list(ours.edges()) == list(reference.edges())


def test_gnp_far_matches_networkx_stream():
    for seed in range(8):
        graph, _ = gnp_far(300, seed=seed)
        rng = random.Random(seed)
        reference = nx.gnp_random_graph(300, 14.0 / 300, seed=rng.randrange(2**31))
        components = [sorted(c) for c in nx.connected_components(reference)]
        for first, second in zip(components, components[1:]):
            reference.add_edge(rng.choice(first), rng.choice(second))
        assert adjacency(graph) == adjacency(reference), seed


# -- girth surgery ------------------------------------------------------------


@pytest.mark.parametrize(
    "n,degree,target", [(16, 6.0, 4), (60, 8.0, 5), (200, 8.0, 6), (300, 4.0, 8)]
)
def test_girth_surgery_matches_legacy(n, degree, target):
    for seed in SEEDS:
        base = nx.gnp_random_graph(n, degree / n, seed=seed)
        new, old = base.copy(), base.copy()
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        assert _girth_surgery(new, target, new_rng) == legacy_girth_surgery(
            old, target, old_rng
        )
        assert adjacency(new) == adjacency(old), (n, degree, target, seed)
        assert new_rng.getstate() == old_rng.getstate()


def test_lower_bound_instance_matches_legacy_construction():
    for seed in SEEDS:
        inst = lower_bound_instance(128, seed=seed)
        rng = random.Random(seed)
        graph = nx.gnp_random_graph(128, 8.0 / 128, seed=rng.randrange(2**31))
        removed = legacy_girth_surgery(graph, inst.target_girth, rng)
        assert adjacency(inst.graph) == adjacency(graph), seed
        assert inst.removed_edges == removed
        assert inst.farness_lower_bound == (
            legacy_skewness_lower_bound(graph) / graph.number_of_edges()
        )


# -- view check -----------------------------------------------------------------


def _view_graphs():
    yield grid_graph(6, 7)
    yield triangulated_grid(5, 6)
    yield nx.complete_graph(6)
    yield nx.cycle_graph(7)
    yield nx.petersen_graph()
    yield nx.disjoint_union(nx.cycle_graph(5), nx.path_graph(4))
    for seed in range(6):
        yield nx.gnp_random_graph(60, 3.0 / 60, seed=seed)
        yield lower_bound_instance(64, seed=seed).graph


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_view_is_tree_matches_legacy(radius):
    for graph in _view_graphs():
        for node in graph:
            assert view_is_tree(graph, node, radius) == legacy_view_is_tree(
                graph, node, radius
            ), (node, radius)
        assert all_views_are_trees(graph, radius) == all(
            legacy_view_is_tree(graph, v, radius) for v in graph
        )


# -- skewness lower bound -----------------------------------------------------


def test_skewness_lower_bound_matches_legacy():
    graphs = [make_far(family, 150, seed=1)[0] for family in ("gnp", "regular")]
    graphs += [lower_bound_instance(128, seed=s).graph for s in range(4)]
    graphs.append(nx.disjoint_union(nx.petersen_graph(), nx.complete_graph(5)))
    graphs.append(nx.disjoint_union(grid_graph(4, 4), nx.path_graph(2)))
    for graph in graphs:
        for use_girth in (True, False):
            assert planarity_skewness_lower_bound(
                graph, use_girth
            ) == legacy_skewness_lower_bound(graph, use_girth)
