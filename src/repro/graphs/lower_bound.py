"""The Section 3 lower-bound construction (Theorem 2, Claims 11 & 12).

The paper proves an ``Omega(log n)`` round lower bound for one-sided
testing of H-minor freeness via graphs that are (a) far from
``K_k``-minor freeness yet (b) contain no cycle shorter than
``log(n) / c``: within fewer than ``girth/2 - 1`` rounds, every node's
view is a tree, which is consistent with a planar (indeed cycle-free)
graph, so a one-sided tester must accept.

The construction samples ``G(n, p)`` and removes one edge from every
short cycle.  Claim 11 uses ``p = 1000 k^2 / n``; at laptop scale that
constant makes the graph nearly complete, so the generator exposes the
expected average degree directly and *certifies* the resulting farness a
posteriori via the girth-refined Euler bound (DESIGN.md, substitution 3):
a graph with girth ``g`` needs ``m <= g (n - 2)/(g - 2)`` to be planar,
so high-girth graphs with ``m = cn/2`` for ``c > 2`` have skewness
``~ (1 - 2/c) m``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Set

import networkx as nx

from ..errors import GraphInputError
from .distance import planarity_farness_lower_bound
from .generators import gnp_random_graph
from .utils import _short_cycle_from, girth


@dataclass
class LowerBoundInstance:
    """A hard instance for one-sided minor-freeness testing.

    Attributes:
        graph: the final high-girth graph.
        girth: its exact girth (``inf`` if the surgery left a forest).
        target_girth: every shorter cycle was removed by surgery.
        removed_edges: how many edges the girth surgery deleted.
        farness_lower_bound: certified farness-from-planarity fraction.
        indistinguishability_radius: rounds for which every node's view
            is a tree.  An induced radius-r ball is acyclic iff the girth
            is at least ``2r + 2`` (a cycle of length L lies entirely
            within distance ``floor(L/2)`` of each of its nodes), so the
            radius is ``(girth - 2) // 2``.
    """

    graph: nx.Graph
    girth: float
    target_girth: int
    removed_edges: int
    farness_lower_bound: float

    @property
    def indistinguishability_radius(self) -> int:
        if self.girth == float("inf"):
            return self.graph.number_of_nodes()
        return max(0, (int(self.girth) - 2) // 2)


def lower_bound_instance(
    n: int,
    average_degree: float = 8.0,
    target_girth: Optional[int] = None,
    seed: Optional[int] = None,
) -> LowerBoundInstance:
    """Sample the Theorem 2 construction.

    Args:
        n: number of nodes.
        average_degree: expected average degree ``c`` of the initial
            ``G(n, c/n)`` sample; farness after surgery is roughly
            ``1 - 2/c``, so values of 6-12 give strongly far instances.
        target_girth: cycles strictly shorter than this are destroyed.
            Defaults to ``max(4, floor(log2(n) / 2))`` -- logarithmic in n,
            mirroring the ``log(n)/c(k)`` of Claim 12, with a constant
            small enough that surgery removes an o(1) edge fraction.
        seed: RNG seed.
    """
    if n < 16:
        raise GraphInputError("lower_bound_instance needs n >= 16")
    if target_girth is None:
        target_girth = max(4, int(math.log2(n) / 2))
    rng = random.Random(seed)
    graph = gnp_random_graph(n, average_degree / n, seed=rng.randrange(2**31))
    removed = _girth_surgery(graph, target_girth, rng)
    final_girth = girth(graph)
    return LowerBoundInstance(
        graph=graph,
        girth=final_girth,
        target_girth=target_girth,
        removed_edges=removed,
        farness_lower_bound=planarity_farness_lower_bound(graph),
    )


def _girth_surgery(graph: nx.Graph, target_girth: int, rng: random.Random) -> int:
    """Remove one random edge from every cycle shorter than *target_girth*.

    Removes exactly the edges that restarting :func:`find_short_cycle`
    from the first node after every removal would, without rescanning
    the sources already found clean.  A source's search only reads the
    adjacency of nodes closer to it than the search depth, so removing
    ``(u, v)`` can change its outcome only when ``u`` or ``v`` is that
    close.  Sources are searched in node order; after a removal, the
    earlier sources that close to ``u`` or ``v`` are searched again, in
    node order, before the search moves past the current source.
    """
    max_length = target_girth - 1
    if max_length < 3:
        return 0
    limit = (max_length + 1) // 2
    adj = graph.adj
    order = list(graph.nodes())
    position = {v: k for k, v in enumerate(order)}
    pending = set()  # positions below `frontier` to search again
    frontier = 0
    removed = 0
    while pending or frontier < len(order):
        k = min(pending) if pending else frontier
        cycle = _short_cycle_from(adj, order[k], limit, max_length)
        if cycle is None:
            if pending:
                pending.remove(k)
            else:
                frontier += 1
            continue
        index = rng.randrange(len(cycle))
        u, v = cycle[index], cycle[(index + 1) % len(cycle)]
        graph.remove_edge(u, v)
        removed += 1
        near = (position[w] for w in _ball(adj, (u, v), limit - 1))
        pending.update(j for j in near if j < frontier)
    return removed


def view_is_tree(graph: nx.Graph, node, radius: int) -> bool:
    """True when the radius-*radius* ball around *node* is acyclic.

    This is the indistinguishability predicate behind Theorem 2: an
    ``r``-round (deterministic or one-sided randomized) algorithm's output
    at a node is a function of its radius-``r`` view; if that view is a
    tree it also occurs in some forest, and on forests (which are planar)
    a one-sided tester must accept.

    The BFS stops at depth *radius*.  A BFS ball is connected, so it is
    a tree exactly when it induces ``|ball| - 1`` edges.
    """
    adj = graph.adj
    ball = _ball(adj, (node,), radius)
    # Every induced edge is seen once from each end.
    ends = sum(1 for v in ball for w in adj[v] if w in ball)
    return ends == 2 * (len(ball) - 1)


def _ball(adj, sources: Iterable, radius: int) -> Set:
    """Every node within *radius* hops of one of *sources*."""
    ball = set(sources)
    frontier = list(ball)
    for _ in range(radius):
        grown = []
        for v in frontier:
            for w in adj[v]:
                if w not in ball:
                    ball.add(w)
                    grown.append(w)
        if not grown:
            break
        frontier = grown
    return ball


def all_views_are_trees(graph: nx.Graph, radius: int) -> bool:
    """True when every node's radius-*radius* view is a tree.

    Equivalent to ``girth > 2 * radius + 1``; checked directly on the
    balls for experiment transparency (and as a cross-check of the girth
    computation in tests).
    """
    return all(view_is_tree(graph, v, radius) for v in graph.nodes())
