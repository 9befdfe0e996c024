"""Node labellings for the label-boundary differential and digest suites.

The partition engine maps arbitrary hashable labels to dense ints in
``id_key`` order; these relabel the bundled int-labelled generators so
every kind of label reaches that boundary: repr-ordered strs and
tuples, negative ints (not CONGEST-style ids), mixed int/str, and the
same int labels with shuffled node and edge insertion order.
"""

from __future__ import annotations

import random

import networkx as nx


def shuffled(graph: nx.Graph, seed: int) -> nx.Graph:
    """Same int labels, shuffled node and edge insertion order."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    out = nx.Graph()
    out.add_nodes_from(nodes)
    out.add_edges_from((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges)
    return out


LABELLINGS = {
    "str": lambda g, s: nx.relabel_nodes(g, {v: f"v{v}" for v in g}),
    "tuple": lambda g, s: nx.relabel_nodes(g, {v: (v % 7, v // 7) for v in g}),
    "negint": lambda g, s: nx.relabel_nodes(g, {v: v - 100 for v in g}),
    "mixed": lambda g, s: nx.relabel_nodes(
        g, {v: v if v % 3 else f"s{v}" for v in g}
    ),
    "shuffled": shuffled,
}
