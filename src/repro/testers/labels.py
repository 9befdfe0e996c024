"""Embedding-derived lexicographic node labels (paper Section 2.2.2).

Within each part, Stage II builds a BFS tree ``T_B`` and, using the
circular clockwise ordering of each node's incident edges from the
combinatorial embedding, labels every tree edge by its position among the
node's child edges *counting clockwise from the parent edge* (the root
starts at an arbitrary first edge).  A node's label is the concatenation
of the edge labels on its root path; lexicographic order over labels is
exactly DFS preorder of ``T_B`` with children visited in rotation order,
so we assign each node its preorder *rank* -- an equivalent, compact
representation of the order.

Stage II runs the ``*_int`` cores on int ids: node ``v`` is ``0..n-1``,
``adj[v]`` and ``rot[v]`` are neighbor-index lists, ``parent[v]`` is an
index or ``-1`` at the root, and a half-edge ``(v, w)`` is keyed
``v * n + w``.  The label-keyed functions (``deterministic_bfs_tree``,
``embedding_ranks``, ``euler_tour_positions`` and the interval
builders) relabel a networkx graph in its node order, run the same
cores, and map the results back.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..errors import GraphInputError
from ..graphs.utils import id_key
from ..planarity.rotation import RotationSystem

IntervalInt = Tuple[int, int, int, int]


# -- int cores ---------------------------------------------------------------


def id_keys(nodes: Sequence[Any]) -> Sequence[Any]:
    """Per-index sort keys realizing :func:`id_key` order on *nodes*."""
    if all(type(v) is int for v in nodes):
        return nodes
    return [id_key(v) for v in nodes]


def bfs_tree_int(
    adj: Sequence[Sequence[int]], root: int, keys: Sequence[Any]
) -> Tuple[List[int], List[int], List[int]]:
    """The Section 2.2.1 BFS tree on int ids: ``(parent, depth, order)``.

    A node at depth ``d + 1`` takes the announcing depth-``d`` neighbor
    with the smallest ``keys`` entry as its parent (see
    :func:`deterministic_bfs_tree`); *order* is the BFS discovery order.
    """
    n = len(adj)
    depth = [-1] * n
    parent = [-1] * n
    depth[root] = 0
    order = [root]
    for v in order:
        d = depth[v] + 1
        key = keys[v]
        for w in adj[v]:
            dw = depth[w]
            if dw < 0:
                depth[w] = d
                parent[w] = v
                order.append(w)
            elif dw == d and key < keys[parent[w]]:
                parent[w] = v
    if len(order) != n:
        raise GraphInputError("BFS labeling requires a connected part")
    return parent, depth, order


def _after_parent(rot: Sequence[int], parent: int) -> List[int]:
    """*rot* read clockwise from just after *parent* (excluded)."""
    idx = rot.index(parent)
    return list(rot[idx + 1 :]) + list(rot[:idx])


def preorder_ranks_int(
    rot: Sequence[Sequence[int]], root: int, parent: Sequence[int]
) -> List[int]:
    """Preorder rank per node under the rotation-ordered DFS of ``T_B``."""
    n = len(rot)
    ranks = [-1] * n
    counter = 0
    stack = [root]
    while stack:
        v = stack.pop()
        ranks[v] = counter
        counter += 1
        p = parent[v]
        ordered = rot[v] if p < 0 else _after_parent(rot[v], p)
        # Push children in reverse so the first child is visited first.
        stack.extend(reversed([w for w in ordered if parent[w] == v]))
    if counter != n:
        raise GraphInputError(
            "rotation order did not reach every node; embedding does not "
            "match the part"
        )
    return ranks


def euler_positions_int(
    rot: Sequence[Sequence[int]], root: int, parent: Sequence[int]
) -> Tuple[Dict[int, int], int]:
    """Corner positions of non-tree half-edges along the Euler tour.

    The walk leaves the root along the first tree edge of ``rot[root]``
    and, at every node, scans the rotation clockwise from the edge it
    arrived by: a child's tree edge is descended, every other entry
    (except the parent's) is a non-tree half-edge and takes the next
    position.  The gap before the root's first tree edge is scanned
    last.  Returns ``({v * n + w: position}, total)``.
    """
    n = len(rot)
    positions: Dict[int, int] = {}
    if n <= 1:
        return positions, 0
    root_rot = rot[root]
    first = next(i for i, w in enumerate(root_rot) if parent[w] == root)
    stack = [(root, list(root_rot[first:]) + list(root_rot[:first]), 0)]
    counter = 0
    descents = 0
    while stack:
        v, ordered, i = stack.pop()
        base = v * n
        while i < len(ordered):
            w = ordered[i]
            i += 1
            if parent[w] == v:  # tree edge to a child: descend
                stack.append((v, ordered, i))
                stack.append((w, _after_parent(rot[w], v), 0))
                descents += 1
                break
            positions[base + w] = counter
            counter += 1
    if descents != n - 1:
        raise GraphInputError("Euler tour missed a tree edge")
    return positions, counter


def non_tree_edges_int(
    adj: Sequence[Sequence[int]], parent: Sequence[int]
) -> List[Tuple[int, int]]:
    """Non-tree edges ``(u, v)``, ``u < v``, in networkx edge order."""
    return [
        (u, v)
        for u, row in enumerate(adj)
        for v in row
        if v > u and parent[u] != v and parent[v] != u
    ]


def corner_intervals_int(
    adj: Sequence[Sequence[int]],
    parent: Sequence[int],
    positions: Dict[int, int],
) -> List[IntervalInt]:
    """Non-tree edges as corner-position intervals ``(a, b, u, v)``, a < b."""
    n = len(adj)
    out: List[IntervalInt] = []
    for u, v in non_tree_edges_int(adj, parent):
        a, b = positions[u * n + v], positions[v * n + u]
        out.append((a, b, u, v) if a < b else (b, a, v, u))
    return out


def rank_intervals_int(
    adj: Sequence[Sequence[int]],
    parent: Sequence[int],
    ranks: Sequence[int],
) -> List[IntervalInt]:
    """Non-tree edges as preorder-rank intervals ``(a, b, u, v)``, a < b."""
    out: List[IntervalInt] = []
    for u, v in non_tree_edges_int(adj, parent):
        a, b = ranks[u], ranks[v]
        out.append((a, b, u, v) if a < b else (b, a, v, u))
    return out


# -- label-keyed forms -------------------------------------------------------


class _Relabel:
    """A networkx graph in int form, nodes numbered in graph order."""

    def __init__(self, graph: nx.Graph, parents: Optional[Dict] = None):
        self.nodes = list(graph)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        index = self.index
        self.adj = [[index[w] for w in graph.adj[v]] for v in self.nodes]
        if parents is not None:
            self.parent = [
                -1 if parents.get(v) is None else index[parents[v]]
                for v in self.nodes
            ]

    def rotations(self, rotation: RotationSystem) -> List[List[int]]:
        index = self.index
        return [[index[w] for w in rotation.rotation(v)] for v in self.nodes]

    def intervals(self, found: List[IntervalInt]) -> List[Tuple[int, int, Any, Any]]:
        nodes = self.nodes
        return [(a, b, nodes[u], nodes[v]) for a, b, u, v in found]


def deterministic_bfs_tree(
    graph: nx.Graph, root: Any
) -> Tuple[Dict[Any, Optional[Any]], Dict[Any, int]]:
    """BFS tree matching the distributed construction of Section 2.2.1.

    All nodes of depth ``d`` announce in the same round, so a node at
    depth ``d + 1`` picks the minimum-id announcing neighbor as its
    parent -- the same rule as :class:`repro.congest.programs.bfs`.

    Returns (parents, depths) in BFS order; ``parents[root] is None``.
    """
    form = _Relabel(graph)
    nodes = form.nodes
    parent, depth, order = bfs_tree_int(
        form.adj, form.index[root], id_keys(nodes)
    )
    parents = {
        nodes[v]: None if parent[v] < 0 else nodes[parent[v]] for v in order
    }
    return parents, {nodes[v]: depth[v] for v in order}


def children_in_rotation_order(
    rotation: RotationSystem,
    parents: Dict[Any, Optional[Any]],
    v: Any,
) -> List[Any]:
    """Children of *v* in ``T_B``, ordered clockwise from the parent edge.

    For the root the order starts at the rotation's first entry, which is
    the emulation of "r_j arbitrarily labels one of its incident edges by
    1" -- any fixed starting edge satisfies the paper's requirement.
    """
    rot = rotation.rotation(v)
    parent = parents[v]
    ordered = rot if parent is None else _after_parent(rot, parent)
    return [w for w in ordered if parents.get(w) == v]


def embedding_ranks(
    graph: nx.Graph,
    root: Any,
    rotation: RotationSystem,
    parents: Dict[Any, Optional[Any]],
) -> Dict[Any, int]:
    """Preorder rank of every node under the embedding-ordered DFS of T_B.

    Ranks realize the lexicographic order on the paper's labels: the
    label of u is a strict prefix of v's iff u is an ancestor of v (and
    then rank(u) < rank(v)); otherwise the first differing edge label
    orders the subtrees exactly as rotation-ordered DFS does.
    """
    form = _Relabel(graph, parents)
    ranks = preorder_ranks_int(
        form.rotations(rotation), form.index[root], form.parent
    )
    by_rank = sorted(range(len(ranks)), key=ranks.__getitem__)
    return {form.nodes[v]: ranks[v] for v in by_rank}


def non_tree_intervals(
    graph: nx.Graph,
    parents: Dict[Any, Optional[Any]],
    ranks: Dict[Any, int],
) -> List[Tuple[int, int, Any, Any]]:
    """Non-tree edges of T_B as rank intervals ``(a, b, u, v)`` with a < b.

    Definition 7 orients each edge so the smaller label comes first; the
    returned tuples keep the original endpoints for reporting.
    """
    form = _Relabel(graph, parents)
    int_ranks = [ranks[v] for v in form.nodes]
    return form.intervals(rank_intervals_int(form.adj, form.parent, int_ranks))


def max_label_length(depths: Dict[Any, int]) -> int:
    """Length (in edge labels = id-sized words) of the longest node label."""
    return max(depths.values(), default=0)


def euler_tour_positions(
    graph: nx.Graph,
    root: Any,
    rotation: RotationSystem,
    parents: Dict[Any, Optional[Any]],
) -> Tuple[Dict[Tuple[Any, Any], int], int]:
    """Corner positions of non-tree half-edges along the tree's Euler tour.

    The complement of a spanning tree in the sphere is a single disk whose
    boundary is the tree's facial walk; every non-tree edge is a chord of
    that disk, attached at the *corner* (angular gap between consecutive
    tree edges in the rotation) where it appears.  The walk assigns each
    non-tree half-edge a distinct position; a rotation system is a
    genus-0 embedding of the part iff no two chords interlace in this
    circular order.

    This is the corner-refined variant of the paper's labeling: the
    literal Claim 10 labeling (first-visit preorder ranks, see
    :func:`embedding_ranks`) discards the corner information and admits
    interlacements even on planar embeddings (e.g. the 3x3 grid --
    reproduced in the test-suite), whereas the corner positions restore
    the exact planarity characterization with the same O(D)-round,
    O(log n)-bit-label distributed implementation (the root distributes
    prefix sums of subtree corner counts down ``T_B``).

    Returns:
        (positions, total): ``positions[(v, x)]`` is the walk position of
        non-tree half-edge ``(v, x)``; ``total`` is the number of
        positions assigned (= 2 * number of non-tree edges).
    """
    form = _Relabel(graph, parents)
    n = len(form.nodes)
    if n <= 1:
        return {}, 0
    found, total = euler_positions_int(
        form.rotations(rotation), form.index[root], form.parent
    )
    nodes = form.nodes
    positions = {
        (nodes[key // n], nodes[key % n]): pos for key, pos in found.items()
    }
    return positions, total


def corner_intervals(
    graph: nx.Graph,
    parents: Dict[Any, Optional[Any]],
    positions: Dict[Tuple[Any, Any], int],
) -> List[Tuple[int, int, Any, Any]]:
    """Non-tree edges as corner-position intervals ``(a, b, u, v)``, a < b.

    All 2k endpoints are distinct, so interlacement is exactly strict
    alternation around the disk boundary.
    """
    form = _Relabel(graph, parents)
    n = len(form.nodes)
    index = form.index
    int_positions = {
        index[v] * n + index[w]: pos for (v, w), pos in positions.items()
    }
    return form.intervals(
        corner_intervals_int(form.adj, form.parent, int_positions)
    )
