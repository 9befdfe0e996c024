"""Distance-to-property estimation (farness certification).

The paper's guarantees are phrased in terms of being ``epsilon``-far: more
than ``epsilon * m`` edges must be removed to obtain the property.  This
module certifies farness of concrete instances:

* **planarity**: skewness lower bounds from Euler's formula (with a girth
  refinement) and upper bounds from a greedy maximal planar subgraph;
* **cycle-freeness**: the distance is exact, ``m - (n - #components)``;
* **bipartiteness**: lower bound via greedily packed edge-disjoint odd
  cycles, upper bound via local-search max-cut.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

import networkx as nx

from ..planarity import check_planarity
from .utils import girth_through


# -- planarity -----------------------------------------------------------------


def planarity_skewness_lower_bound(graph: nx.Graph, use_girth: bool = True) -> int:
    """Lower bound on the number of edge removals needed for planarity.

    Per connected component: a planar graph on ``n >= 3`` nodes has at most
    ``3n - 6`` edges; with girth ``g`` at most ``g (n - 2) / (g - 2)``.
    Removing edges never decreases girth, so the girth refinement is sound.
    """
    total = 0
    for component in nx.connected_components(graph):
        n = len(component)
        if n < 3:
            continue
        m = sum(d for _, d in graph.degree(component)) // 2
        budget = 3 * n - 6
        if use_girth and m > 0:
            g = girth_through(graph.adj, component)
            if g != float("inf") and g > 3:
                budget = min(budget, int(g * (n - 2) // (g - 2)))
        total += max(0, m - budget)
    return total


def planarity_farness_lower_bound(graph: nx.Graph, use_girth: bool = True) -> float:
    """Certified lower bound on the farness-from-planarity fraction."""
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    return planarity_skewness_lower_bound(graph, use_girth) / m


def greedy_maximal_planar_subgraph(
    graph: nx.Graph, seed: Optional[int] = None
) -> nx.Graph:
    """A maximal planar subgraph grown greedily in random edge order.

    Every edge is offered once; it is kept when the subgraph stays planar
    (checked with the library's own LR test).  The complement size is an
    upper bound on the skewness.
    """
    rng = random.Random(seed)
    edges = list(graph.edges())
    rng.shuffle(edges)
    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes())
    for u, v in edges:
        sub.add_edge(u, v)
        n, m = sub.number_of_nodes(), sub.number_of_edges()
        if n > 2 and m > 3 * n - 6:
            sub.remove_edge(u, v)
            continue
        if not check_planarity(sub).is_planar:
            sub.remove_edge(u, v)
    return sub


def planarity_farness_bounds(
    graph: nx.Graph, seed: Optional[int] = None
) -> Tuple[float, float]:
    """(certified lower bound, constructive upper bound) on farness."""
    m = graph.number_of_edges()
    if m == 0:
        return (0.0, 0.0)
    lower = planarity_farness_lower_bound(graph)
    planar_sub = greedy_maximal_planar_subgraph(graph, seed=seed)
    upper = (m - planar_sub.number_of_edges()) / m
    return (lower, upper)


# -- cycle-freeness ---------------------------------------------------------------


def cycle_freeness_distance(graph: nx.Graph) -> int:
    """Exact number of removals to reach a forest: ``m - n + #components``."""
    return (
        graph.number_of_edges()
        - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )


def cycle_freeness_farness(graph: nx.Graph) -> float:
    """Exact farness-from-cycle-freeness fraction."""
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    return cycle_freeness_distance(graph) / m


# -- bipartiteness -------------------------------------------------------------------


def bipartiteness_farness_lower_bound(graph: nx.Graph) -> float:
    """Lower bound via greedy packing of edge-disjoint odd cycles.

    Each packed odd cycle forces at least one removal.  The packing walks
    BFS trees and claims the non-tree edge plus cycle edges of any odd
    fundamental cycle whose edges are all unclaimed.
    """
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    claimed = set()
    packed = 0
    work = nx.Graph(graph)
    progress = True
    while progress:
        progress = False
        for component in list(nx.connected_components(work)):
            sub = work.subgraph(component)
            root = next(iter(component))
            depth = nx.single_source_shortest_path_length(sub, root)
            parent = {root: None}
            for u, v in nx.bfs_edges(sub, root):
                parent[v] = u
            for u, v in sub.edges():
                if parent.get(v) == u or parent.get(u) == v:
                    continue
                if depth[u] % 2 == depth[v] % 2:  # odd fundamental cycle
                    cycle_edges = _fundamental_cycle_edges(parent, depth, u, v)
                    if all(e not in claimed for e in cycle_edges):
                        claimed.update(cycle_edges)
                        packed += 1
                        work.remove_edges_from(cycle_edges)
                        progress = True
                        break
            if progress:
                break
    return packed / m


def _fundamental_cycle_edges(parent, depth, u, v):
    edges = [_norm(u, v)]
    a, b = u, v
    while depth[a] > depth[b]:
        edges.append(_norm(a, parent[a]))
        a = parent[a]
    while depth[b] > depth[a]:
        edges.append(_norm(b, parent[b]))
        b = parent[b]
    while a != b:
        edges.append(_norm(a, parent[a]))
        edges.append(_norm(b, parent[b]))
        a, b = parent[a], parent[b]
    return edges


def _norm(u, v):
    return (u, v) if repr(u) <= repr(v) else (v, u)


def bipartiteness_farness_upper_bound(
    graph: nx.Graph, seed: Optional[int] = None, sweeps: int = 8
) -> float:
    """Upper bound via local-search max-cut 2-coloring.

    The number of monochromatic edges under any 2-coloring upper-bounds
    the distance to bipartiteness.
    """
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    rng = random.Random(seed)
    # Two starting points: BFS parity (exact on bipartite graphs) and a
    # random assignment; local search improves both, and we keep the best.
    bfs_side = {}
    for component in nx.connected_components(graph):
        root = next(iter(component))
        for v, d in nx.single_source_shortest_path_length(
            graph.subgraph(component), root
        ).items():
            bfs_side[v] = d % 2
    random_side = {v: rng.randint(0, 1) for v in graph.nodes()}
    best = m
    for side in (bfs_side, random_side):
        side = dict(side)
        for _ in range(sweeps):
            improved = False
            for v in graph.nodes():
                same = sum(1 for w in graph.adj[v] if side[w] == side[v])
                if 2 * same > graph.degree(v):
                    side[v] ^= 1
                    improved = True
            if not improved:
                break
        monochromatic = sum(1 for u, v in graph.edges() if side[u] == side[v])
        best = min(best, monochromatic)
    return best / m


def bipartiteness_farness_bounds(
    graph: nx.Graph, seed: Optional[int] = None
) -> Tuple[float, float]:
    """(lower, upper) bounds on farness-from-bipartiteness."""
    return (
        bipartiteness_farness_lower_bound(graph),
        bipartiteness_farness_upper_bound(graph, seed=seed),
    )
